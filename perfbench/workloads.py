"""The benchmark's workloads: inputs drawn from a seed, the solve calls of
one pass, and the correctness gate each call must pass.

Every pass builds a fresh grid, so work that a later change moves into
per-grid caches shows up in set-up time.  The solver receives only the
generated fields; the seed never reaches it.  Solver functions are looked
up on the package at call time, so a tracer that patches the package sees
these calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import abreu_bvp as bvp

# Criterion 4's gates for the disks.
EL_REL_TOL = 1e-4
# The returned d must be det D^2 u of the returned u, up to roundoff.
D_REL_TOL = 1e-10


@dataclass
class Call:
    """One solve call: what it returned or raised, and whether it passed."""

    label: str
    result: object = None
    error: Exception = None
    passed: bool = False
    note: str = ""
    values: dict = field(default_factory=dict)

    def continuation_steps(self):
        """The t-step entries of the public continuation trace, if any."""
        if isinstance(self.result, bvp.Solution):
            return self.result.iterations
        return [e for e in getattr(self.error, "trace", []) if "t" in e]


def _call(label, solver, *args):
    try:
        return Call(label, result=solver(*args))
    except bvp.SolverError as exc:
        return Call(label, error=exc)


def _raised(call):
    call.note = f"raised {type(call.error).__name__}: {call.error}"


class DiskWorkload:
    """One `solve_second_bvp` on the unit disk, theta = 0, phi = 0, psi = 1.

    f = c (1 + a x + b y) with c within 2 % of the nominal source and a
    tilt |a|, |b| <= 0.02, so the regime (and the iteration counts) stay
    those of the nominal problem.
    """

    def __init__(self, resolution, source, rng):
        self.resolution = resolution
        self.params = {"c": float(source * (1.0 + 0.02 * rng.uniform(-1, 1))),
                       "tilt": [float(v) for v in
                                0.02 * rng.uniform(-1.0, 1.0, size=2)]}

    def setup(self):
        grid = bvp.build_grid(bvp.DomainSpec.disk(1.0), self.resolution)
        grid.second_ops
        x, y = grid.points[:, 0], grid.points[:, 1]
        a, b = self.params["tilt"]
        f = bvp.ScalarField(grid, self.params["c"] * (1.0 + a * x + b * y))
        return bvp.Problem(grid, bvp.GSpec(0.0, 2), f, 0.0, 1.0)

    def solve(self, problem):
        return [_call(f"c={self.params['c']:.4f}", bvp.solve_second_bvp,
                      problem)]

    def check(self, problem, calls):
        for call in calls:
            if call.error is not None:
                _raised(call)
                continue
            # Recomputed from u, not read from the Solution's own figures.
            sol = call.result
            try:
                el = bvp.el_residual(sol.u, problem)
            except ValueError as exc:  # u is not discretely convex
                call.note = f"EL residual: {exc}"
                continue
            el_rel = float(np.max(np.abs(el.interior))) / float(np.max(
                np.abs(problem.f.values)))
            w_min = float(np.min(sol.w.values))
            det = bvp.det_field(bvp.hessian(sol.u, problem.grid),
                                problem.grid).interior
            d_min = float(np.min(det))
            d_gap = float(np.max(np.abs(sol.d.interior - det))) / float(
                np.max(np.abs(det)))
            call.values = {"el_residual_rel": el_rel, "w_min": w_min}
            call.passed = (el_rel <= EL_REL_TOL and w_min > 0 and d_min > 0
                           and d_gap <= D_REL_TOL)
            if not call.passed:
                call.note = (f"el/|f| = {el_rel:.3e}, min w = {w_min:.3e}, "
                             f"min det D^2u = {d_min:.3e}, "
                             f"|d - det D^2u| / max d = {d_gap:.3e}")


class MAInput(NamedTuple):
    grid: object
    g: object


class EllipseMAWorkload:
    """One `solve_ma` on the (1.5, 0.75) ellipse with g = 1 + a x^2 + b y^2.

    a and b are drawn within 10 % of 1 and 1/2.
    """

    def __init__(self, resolution, rng):
        self.resolution = resolution
        ua, ub = rng.uniform(-1.0, 1.0, size=2)
        self.params = {"a": float(1.0 + 0.1 * ua),
                       "b": float(0.5 * (1.0 + 0.1 * ub))}

    def setup(self):
        grid = bvp.build_grid(bvp.DomainSpec.ellipse(1.5, 0.75),
                              self.resolution)
        grid.second_ops
        x, y = grid.points[:, 0], grid.points[:, 1]
        g = bvp.ScalarField(grid, 1.0 + self.params["a"] * x**2
                            + self.params["b"] * y**2)
        return MAInput(grid, g)

    def solve(self, state):
        return [_call("ma", bvp.solve_ma, state.grid, state.g, 0.0)]

    def check(self, state, calls):
        grid, g = state
        # solve_ma stops when max|det D^2 u - g| <= newton_tol max(1, max g).
        tol = bvp.MAOptions().newton_tol * max(1.0, float(np.max(g.interior)))
        for call in calls:
            if call.error is not None:
                _raised(call)
                continue
            resid = float(np.max(np.abs(
                bvp.ma_residual(grid, call.result, g).interior)))
            call.passed = resid <= tol
            if not call.passed:
                call.note = f"MA residual {resid:.3e} > {tol:.3e}"


# The exact threshold for constant f on [0, 1] with psi = 1 and theta = 0.
F_STAR = 8.0
# The smallest last_good_t f an exit-4 verdict may report.  With constant f
# the discrete w is exact (see discrete_threshold), so a step at t hits the
# w floor only once t f >= f*_h (1 - w_floor).  The verdict comes from the
# step last_good_t + dt_min, dt_min = 1 / (t_steps 2^max_step_halvings), so
# last_good_t f >= f*_h (1 - w_floor) - f dt_min.  With the default schedule
# (dt_min = 0.1 / 64) and f <= 24.5 that is within 0.5 % of F_STAR; 5 %
# leaves room for a last step ten times coarser and still fails a verdict
# given well before the threshold.
VERDICT_FLOOR = 0.95 * F_STAR


def discrete_threshold(grid):
    """f*_h: the exact threshold of the discrete problem on `grid`.

    With constant f and psi = 1 the discrete w-equation at parameter t is
    w'' = t f with w = 1 at both ends, and the three-point second
    difference is exact on quadratics, so the discrete w equals the exact
    1 - t f x (1 - x) / 2 at every node.  Its nodal minimum vanishes at
    t f = 2 / max_i x_i (1 - x_i).  On the uniform grid with spacing h
    whose two middle nodes sit h/2 from x = 1/2 this is 8 / (1 - h^2): an
    O(h^2) allowance above f* = 8 (8.00202 at resolution 64).
    """
    x = grid.interior_points[:, 0]
    return 2.0 / float(np.max(x * (1.0 - x)))


def oracle_allowance(grid, c):
    """Bound on sup|u_h - u| for theta = 0, constant f = c, psi = 1, phi = 0.

    w_h is exact at the nodes (see discrete_threshold), so d_h = 1/w_h is
    too, and u_h solves D^2 u_h = d at the nodes.  The error e = u_h - u
    then solves D^2 e = -(h^2/12) d''(xi) with e = 0 at both ends; the
    discrete Green's function of D^2 on [0, 1] is bounded by 1/8, so
    |e| <= h^2 max|d''| / 96.  The factor 1.01 covers the dense oracle's own
    error, which is (1/64)^2 of this.
    """
    xs = np.linspace(0.0, 1.0, 20001)
    w = 1.0 - c * xs * (1.0 - xs) / 2.0
    dw = -c * (1.0 - 2.0 * xs) / 2.0
    d2 = 2.0 * dw**2 / w**3 - c / w**2
    return 1.01 * grid.hx**2 * float(np.max(np.abs(d2))) / 96.0


class Sweep(NamedTuple):
    grid: object
    problems: list


class IntervalThresholdWorkload:
    """A sweep of constant f on [0, 1] on both sides of f* = 8.

    Two cases below the threshold and three above it, each within 2 % of
    its nominal value.  The one near 9 lies in (8, 10) and outside the
    discrete band (8, 8.002] where the resolution-64 problem still has a
    solution.
    """

    NOMINAL = (4.0, 7.0, 9.0, 14.0, 24.0)

    def __init__(self, resolution, rng):
        self.resolution = resolution
        self.params = {"f": [float(c * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)))
                             for c in self.NOMINAL]}

    def setup(self):
        grid = bvp.build_grid(bvp.DomainSpec.interval(0.0, 1.0),
                              self.resolution)
        grid.second_ops
        return Sweep(grid, [bvp.Problem(grid, bvp.GSpec(0.0, 1), c, 0.0, 1.0)
                            for c in self.params["f"]])

    def solve(self, sweep):
        return [_call(f"f={c:.4f}", bvp.solve_second_bvp, p)
                for c, p in zip(self.params["f"], sweep.problems)]

    def check(self, sweep, calls):
        grid = sweep.grid
        f_star_h = discrete_threshold(grid)
        for c, call in zip(self.params["f"], calls):
            if c > F_STAR:
                if not isinstance(call.error, bvp.WFloorError):
                    call.note = (f"f = {c:.4f} > {F_STAR:g} wants the exit-4 "
                                 f"verdict, got {_outcome(call)}")
                    continue
                product = call.error.last_good_t * c
                call.values = {"last_good_tf": product}
                call.passed = VERDICT_FLOOR <= product <= f_star_h
                if not call.passed:
                    call.note = (f"last_good_t f = {product:.6f} outside "
                                 f"[{VERDICT_FLOOR:g}, "
                                 f"f*_h = {f_star_h:.6f}]")
                continue
            if call.error is not None:
                call.note = (f"f = {c:.4f} < {F_STAR:g} wants a solution, "
                             f"got {_outcome(call)}")
                continue
            err = _oracle_error(grid, c, call.result)
            allowance = oracle_allowance(grid, c)
            call.values = {"oracle_err": err,
                           "w_min": float(np.min(call.result.w.values)),
                           "el_residual_rel": call.result.el_residual_norm / c}
            call.passed = err <= allowance
            if not call.passed:
                call.note = f"oracle error {err:.3e} > {allowance:.3e}"


def _outcome(call):
    return ("a solution" if call.error is None
            else type(call.error).__name__)


def _oracle_error(grid, c, sol):
    """sup|u - u_oracle| against solve_exact_1d on a nested dense grid."""
    res = grid.resolution
    dense = (res - 1) * 64 + 1
    oracle = bvp.solve_exact_1d(bvp.OneDProblem((0.0, 1.0), 0.0, c),
                                resolution=dense)
    ox = oracle.u.grid.points[:, 0]
    order = np.argsort(ox)
    idx = order[np.searchsorted(ox[order], grid.points[:, 0])]
    if np.max(np.abs(ox[idx] - grid.points[:, 0])) > 1e-12:
        raise AssertionError("oracle grid does not nest the solver grid")
    return float(np.max(np.abs(sol.u.values - oracle.u.values[idx])))


# Why each workload is in the set is recorded in BENCHMARK.json.
WORKLOADS = ("disk-mild", "disk-strong", "ma-ellipse-256",
             "interval-threshold")


def make(name, seed):
    """The workload `name` with its inputs drawn from `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "disk-mild":
        return DiskWorkload(32, 2.0, rng)
    if name == "disk-strong":
        return DiskWorkload(48, 50.0, rng)
    if name == "ma-ellipse-256":
        return EllipseMAWorkload(256, rng)
    return IntervalThresholdWorkload(64, rng)
