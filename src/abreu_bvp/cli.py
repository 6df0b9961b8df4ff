"""Command-line driver.

Subcommands cover the full solve, the two inner solvers, the 1D reference
solver, functional evaluation, the properness probe, and a diagnostics run.
Every run writes `fields.txt` and/or `report.txt` into the output directory.

Exit codes: 0 success, 2 configuration error, 3 solver failure to converge,
4 detected nonexistence, a verdict on an interval only: the 1D certificate,
or w at t = 1 below its floor on the exact path.  A 2-d problem has a
solution for every f, so a 2-d run never exits 4.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import RunConfig, parse_config
from .continuation import solve_second_bvp
from .exceptions import (ConfigError, DomainError, ExpressionError,
                         SolverError, WFloorError)
from .expressions import parse_expression
from .fileio import write_fields, write_report
from .functionals import el_residual, eval_F, eval_L, properness_probe
from .gfamily import g_eval, verify_assumptions
from .lin_ma import linearized_residual, solve_linearized
from .ma_dirichlet import ma_residual, solve_ma
from .mesh import ScalarField, cofactor, det_field, hessian
from .oned_oracle import NonexistenceCertificate, OneDProblem, solve_exact_1d

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NONEXISTENCE = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abreu-bvp",
        description="finite-difference solvers for fourth-order "
                    "Monge-Ampere boundary value problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("solve", "run the full continuation solver"),
            ("ma", "solve the Monge-Ampere Dirichlet problem for a given g"),
            ("linma", "solve the linearized equation in cofactor form"),
            ("oracle1d", "quadrature-based 1D reference solve"),
            ("functional", "solve, then evaluate the objective functionals"),
            ("probe-properness", "scan test functions for coercivity "
                                 "violations"),
            ("diagnostics", "solve and run the full diagnostics suite")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, metavar="PATH",
                         help="path to a run configuration file")
        cmd.add_argument("--out", metavar="DIR",
                         help="output directory (default: config "
                              "[output] directory, else '.')")
        cmd.add_argument("--resolution", type=int, metavar="N",
                         help="override the configured grid resolution")
    return parser


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    cfg = parse_config(text, base_dir=os.path.dirname(
        os.path.abspath(args.config)))
    if args.resolution is not None:
        if args.resolution < 4:
            raise ConfigError("resolution must be at least 4")
        cfg = dataclasses.replace(cfg, resolution=args.resolution)
    return cfg


def _base_report(cfg: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "domain": {"kind": cfg.domain.kind,
                   "bounds": list(cfg.domain.bounds)},
        "theta": cfg.gspec.theta,
        "resolution": cfg.resolution,
    }


def _solution_entries(sol) -> dict:
    return {
        "el_residual_norm": sol.el_residual_norm,
        "continuation": {"steps": len(sol.iterations),
                         "trace": list(sol.iterations)},
        "diagnostics": sol.diagnostics.to_mapping(),
    }


def _write_solution_fields(outdir, problem, sol) -> None:
    residual = el_residual(sol.u, problem)
    write_fields(os.path.join(outdir, "fields.txt"), problem.grid,
                 sol.u.values, sol.w.values, sol.d.values, residual.values)


def _cmd_solve(cfg: RunConfig, outdir: str, command: str = "solve") -> int:
    grid = cfg.make_grid()
    problem = cfg.make_problem(grid)
    # eval_F/eval_L are only defined against zero boundary data; surface
    # that as a usage error before spending time on the solve.
    if command == "functional" and not problem.phi_is_zero:
        raise ConfigError("functional evaluation requires phi = 0")
    sol = solve_second_bvp(problem, cfg.continuation)
    report = _base_report(cfg, command)
    report.update(_solution_entries(sol))
    if problem.phi_is_zero:
        report["functionals"] = {"F": eval_F(sol.u, problem),
                                 "L": eval_L(sol.u, problem)}
    if command == "diagnostics":
        d_int = sol.d.interior
        lo = max(float(np.min(d_int)) / 2.0, 1e-8)
        hi = max(2.0 * float(np.max(d_int)), 10.0 * lo)
        report["assumptions"] = verify_assumptions(cfg.gspec, (lo, hi))
    _write_solution_fields(outdir, problem, sol)
    write_report(os.path.join(outdir, "report.txt"), report)
    if command == "functional":
        print("functional: F = {F:.12g}, L = {L:.12g}".format(
            **report["functionals"]))
    else:
        print(f"{command}: converged, el residual sup-norm "
              f"{sol.el_residual_norm:.3e}")
    return EXIT_OK


def _g_field(cfg: RunConfig, grid, required: bool):
    if cfg.g_expr is None:
        if required:
            raise ConfigError("the ma command needs a g expression in "
                              "[problem]")
        expr = parse_expression("1")
    else:
        expr = cfg.g_expr
    g = grid.field(expr)
    if not np.all(np.isfinite(g.values)) or np.any(g.interior <= 0):
        raise ConfigError("g must be positive and finite on the grid")
    return g


def _cmd_ma(cfg: RunConfig, outdir: str) -> int:
    grid = cfg.make_grid()
    g = _g_field(cfg, grid, required=True)
    phi_b = grid.boundary_values(cfg.phi)
    u = solve_ma(grid, g, phi_b, cfg.continuation.ma)
    residual = ma_residual(grid, u, g)
    d = det_field(hessian(u, grid), grid)
    w = ScalarField(grid, g_eval(cfg.gspec, d.values).w)
    res_norm = float(np.max(np.abs(residual.interior)))
    report = _base_report(cfg, "ma")
    report["ma_residual_norm"] = res_norm
    write_fields(os.path.join(outdir, "fields.txt"), grid, u.values,
                 w.values, d.values, residual.values)
    write_report(os.path.join(outdir, "report.txt"), report)
    print(f"ma: converged, determinant residual sup-norm {res_norm:.3e}")
    return EXIT_OK


def _cmd_linma(cfg: RunConfig, outdir: str) -> int:
    grid = cfg.make_grid()
    g = _g_field(cfg, grid, required=False)
    phi_b = grid.boundary_values(cfg.phi)
    u = solve_ma(grid, g, phi_b, cfg.continuation.ma)
    U = cofactor(hessian(u, grid), grid)
    f = cfg.f_field(grid)
    psi_b = grid.boundary_values(cfg.psi)
    w = solve_linearized(grid, U, f, psi_b)
    residual = linearized_residual(grid, U, w, f)
    d = det_field(hessian(u, grid), grid)
    res_norm = float(np.max(np.abs(residual.interior)))
    report = _base_report(cfg, "linma")
    report["linear_residual_norm"] = res_norm
    write_fields(os.path.join(outdir, "fields.txt"), grid, u.values,
                 w.values, d.values, residual.values)
    write_report(os.path.join(outdir, "report.txt"), report)
    print(f"linma: solved, residual sup-norm {res_norm:.3e}")
    return EXIT_OK


def _cmd_oracle1d(cfg: RunConfig, outdir: str) -> int:
    if cfg.domain.kind != "interval":
        raise ConfigError("oracle1d requires an interval domain")
    if isinstance(cfg.f_spec, str):
        raise ConfigError("oracle1d needs f as an expression, not a table")
    a, b = cfg.domain.bounds
    phi = (float(cfg.phi(a)), float(cfg.phi(b)))
    psi = (float(cfg.psi(a)), float(cfg.psi(b)))
    p = OneDProblem(interval=(a, b), theta=cfg.gspec.theta, f=cfg.f_spec,
                    phi=phi, psi=psi)
    result = solve_exact_1d(p, resolution=cfg.resolution)
    report = _base_report(cfg, "oracle1d")
    if isinstance(result, NonexistenceCertificate):
        report["verdict"] = "nonexistent"
        report["certificate"] = {
            "min_w": result.min_w,
            "argmin": result.argmin,
            "resolution": result.resolution,
            "message": result.message,
        }
        write_report(os.path.join(outdir, "report.txt"), report)
        print(f"oracle1d: {result.message}", file=sys.stderr)
        return EXIT_NONEXISTENCE
    report["verdict"] = "solved"
    report.update(_solution_entries(result))
    grid = result.u.grid
    problem = cfg.make_problem(grid)
    residual = el_residual(result.u, problem).values
    write_fields(os.path.join(outdir, "fields.txt"), grid, result.u.values,
                 result.w.values, result.d.values, residual)
    write_report(os.path.join(outdir, "report.txt"), report)
    print(f"oracle1d: solved, el residual sup-norm "
          f"{result.el_residual_norm:.3e}")
    return EXIT_OK


def _cmd_probe(cfg: RunConfig, outdir: str) -> int:
    grid = cfg.make_grid()
    problem = cfg.make_problem(grid)
    result = properness_probe(problem)
    report = _base_report(cfg, "probe-properness")
    report["properness"] = {
        "verdict": result.verdict,
        "lambda_hat": result.lambda_hat,
        "c_hat": result.c_hat,
        "witness_count": len(result.witnesses),
        "witnesses": [{"lambda": lam, "shape": label}
                      for lam, label in result.witnesses],
    }
    write_report(os.path.join(outdir, "report.txt"), report)
    print(f"probe-properness: {result.verdict}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        outdir = args.out or cfg.output_dir or "."
        os.makedirs(outdir, exist_ok=True)
        if args.command in ("solve", "diagnostics", "functional"):
            return _cmd_solve(cfg, outdir, args.command)
        if args.command == "ma":
            return _cmd_ma(cfg, outdir)
        if args.command == "linma":
            return _cmd_linma(cfg, outdir)
        if args.command == "oracle1d":
            return _cmd_oracle1d(cfg, outdir)
        if args.command == "probe-properness":
            return _cmd_probe(cfg, outdir)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ExpressionError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WFloorError as exc:
        report = _base_report(cfg, args.command)
        report.update({"verdict": "nonexistent",
                       "last_good_t": exc.last_good_t, "w_min": exc.w_min,
                       "continuation": {"steps": len(exc.trace),
                                        "trace": exc.trace}})
        write_report(os.path.join(outdir, "report.txt"), report)
        print(f"nonexistence detected: {exc}", file=sys.stderr)
        return EXIT_NONEXISTENCE
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
