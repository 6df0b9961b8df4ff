"""Command-line driver.

Subcommands cover the full solve, the two inner solvers, the 1D reference
solver, functional evaluation, the properness probe, and a diagnostics run.
A subcommand's handler returns what it computed and writes nothing; `main`
alone writes it into the output directory: `report.txt` for every run past
its configuration, `fields.txt` for a run that computed fields (a run that
computed none removes an earlier run's), and one line, on stdout for
success and on stderr otherwise.

Exit codes: 0 success, 2 configuration error (nothing written), 3 solver
failure to converge (a report with verdict "solver failure"), 4 detected
nonexistence, a verdict on an interval only: the 1D certificate, or w at
t = 1 below its floor on the exact path.  A 2-d problem has a solution for
every f, so a 2-d run never exits 4.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import NamedTuple

import numpy as np

from .config import RunConfig, parse_config
from .continuation import solve_second_bvp
from .exceptions import (ConfigError, ContinuationError, SolverError,
                         WFloorError)
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


class _Outcome(NamedTuple):
    entries: dict  # report entries after the base keys
    fields: tuple  # write_fields' (grid, u, w, d, residual), or None
    message: str  # the line printed: stdout on exit 0, else stderr
    code: int = EXIT_OK


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


def _solution_entries(sol) -> dict:
    return {
        "el_residual_norm": sol.el_residual_norm,
        "continuation": {"steps": len(sol.iterations),
                         "trace": list(sol.iterations)},
        "diagnostics": {name: {k: v for k, v in dataclasses.asdict(e).items()
                               if k != "name"}
                        for name, e in sol.diagnostics.items()},
    }


def _solution_fields(problem, sol) -> tuple:
    residual = el_residual(sol.u, problem)
    return (problem.grid, sol.u.values, sol.w.values, sol.d.values,
            residual.values)


def _cmd_solve(cfg: RunConfig, command: str) -> _Outcome:
    problem = cfg.make_problem(cfg.make_grid())
    # eval_F/eval_L are only defined against zero boundary data; surface
    # that as a usage error before spending time on the solve.
    if command == "functional" and not problem.phi_is_zero:
        raise ConfigError("functional evaluation requires phi = 0")
    sol = solve_second_bvp(problem, cfg.continuation)
    entries = _solution_entries(sol)
    if problem.phi_is_zero:
        entries["functionals"] = {"F": eval_F(sol.u, problem),
                                  "L": eval_L(sol.u, problem)}
    if command == "diagnostics":
        d_int = sol.d.interior
        lo = max(float(np.min(d_int)) / 2.0, 1e-8)
        hi = max(2.0 * float(np.max(d_int)), 10.0 * lo)
        entries["assumptions"] = verify_assumptions(cfg.gspec, (lo, hi))
    if command == "functional":
        message = "functional: F = {F:.12g}, L = {L:.12g}".format(
            **entries["functionals"])
    else:
        message = (f"{command}: converged, el residual sup-norm "
                   f"{sol.el_residual_norm:.3e}")
    return _Outcome(entries, _solution_fields(problem, sol), message)


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


def _cmd_ma(cfg: RunConfig, command: str) -> _Outcome:
    grid = cfg.make_grid()
    g = _g_field(cfg, grid, required=True)
    u = solve_ma(grid, g, grid.boundary_values(cfg.phi), cfg.continuation.ma)
    residual = ma_residual(grid, u, g)
    d = det_field(hessian(u, grid), grid)
    w = ScalarField(grid, g_eval(cfg.gspec, d.values).w)
    norm = float(np.max(np.abs(residual.interior)))
    return _Outcome({"ma_residual_norm": norm},
                    (grid, u.values, w.values, d.values, residual.values),
                    f"ma: converged, determinant residual sup-norm "
                    f"{norm:.3e}")


def _cmd_linma(cfg: RunConfig, command: str) -> _Outcome:
    grid = cfg.make_grid()
    g = _g_field(cfg, grid, required=False)
    u = solve_ma(grid, g, grid.boundary_values(cfg.phi), cfg.continuation.ma)
    H = hessian(u, grid)
    U = cofactor(H, grid)
    problem = cfg.make_problem(grid)
    w = solve_linearized(grid, U, problem.f, problem.psi)
    residual = linearized_residual(grid, U, w, problem.f)
    d = det_field(H, grid)
    norm = float(np.max(np.abs(residual.interior)))
    return _Outcome({"linear_residual_norm": norm},
                    (grid, u.values, w.values, d.values, residual.values),
                    f"linma: solved, residual sup-norm {norm:.3e}")


def _cmd_oracle1d(cfg: RunConfig, command: str) -> _Outcome:
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
    if isinstance(result, NonexistenceCertificate):
        return _Outcome({"verdict": "nonexistent",
                         "certificate": dataclasses.asdict(result)},
                        None, f"oracle1d: {result.message}",
                        EXIT_NONEXISTENCE)
    problem = cfg.make_problem(result.u.grid)
    return _Outcome({"verdict": "solved", **_solution_entries(result)},
                    _solution_fields(problem, result),
                    f"oracle1d: solved, el residual sup-norm "
                    f"{result.el_residual_norm:.3e}")


def _cmd_probe(cfg: RunConfig, command: str) -> _Outcome:
    result = properness_probe(cfg.make_problem(cfg.make_grid()))
    properness = {
        "verdict": result.verdict,
        "lambda_hat": result.lambda_hat,
        "c_hat": result.c_hat,
        "witness_count": len(result.witnesses),
        "witnesses": [{"lambda": lam, "shape": label}
                      for lam, label in result.witnesses],
    }
    return _Outcome({"properness": properness}, None,
                    f"{command}: {result.verdict}")


def _failure(exc: SolverError) -> _Outcome:
    """The outcome of a run that ended in `exc`: exit 4 for a WFloorError,
    the interval's nonexistence verdict, and exit 3 for any other."""
    if isinstance(exc, WFloorError):
        entries = {"verdict": "nonexistent", "last_good_t": exc.last_good_t,
                   "w_min": exc.w_min}
        message, code = f"nonexistence detected: {exc}", EXIT_NONEXISTENCE
    else:
        entries = {"verdict": "solver failure", "message": str(exc)}
        message, code = f"solver failed: {exc}", EXIT_NO_CONVERGENCE
        if isinstance(exc, ContinuationError):
            entries["last_good_t"] = exc.last_good_t
    if isinstance(exc, (ContinuationError, WFloorError)):
        entries["continuation"] = {"steps": len(exc.trace),
                                   "trace": exc.trace}
    else:
        entries["trace"] = exc.trace
    return _Outcome(entries, None, message, code)


# name: (handler, help text), in the order of the help listing
_COMMANDS = {
    "solve": (_cmd_solve, "run the full continuation solver"),
    "ma": (_cmd_ma, "solve the Monge-Ampere Dirichlet problem for a given g"),
    "linma": (_cmd_linma, "solve the linearized equation in cofactor form"),
    "oracle1d": (_cmd_oracle1d, "quadrature-based 1D reference solve"),
    "functional": (_cmd_solve,
                   "solve, then evaluate the objective functionals"),
    "probe-properness": (_cmd_probe, "decide coercivity on rays of convex "
                                     "test functions"),
    "diagnostics": (_cmd_solve, "solve and run the full diagnostics suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abreu-bvp",
        description="finite-difference solvers for fourth-order "
                    "Monge-Ampere boundary value problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, metavar="PATH",
                         help="path to a run configuration file")
        cmd.add_argument("--out", metavar="DIR",
                         help="output directory (default: config "
                              "[output] directory, else '.')")
        cmd.add_argument("--resolution", type=int, metavar="N",
                         help="override the configured grid resolution")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        outdir = args.out or cfg.output_dir or "."
        os.makedirs(outdir, exist_ok=True)
        outcome = _COMMANDS[args.command][0](cfg, args.command)
    except ValueError as exc:  # ConfigError, ExpressionError, DomainError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        outcome = _failure(exc)
    fields = os.path.join(outdir, "fields.txt")
    if outcome.fields is not None:
        write_fields(fields, *outcome.fields)
    elif os.path.exists(fields):  # never pair the report with another run's
        os.remove(fields)
    write_report(os.path.join(outdir, "report.txt"), {
        "command": args.command,
        "domain": {"kind": cfg.domain.kind,
                   "bounds": list(cfg.domain.bounds)},
        "theta": cfg.gspec.theta,
        "resolution": cfg.resolution,
        **outcome.entries,
    })
    print(outcome.message,
          file=sys.stdout if outcome.code == EXIT_OK else sys.stderr)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
