"""Newton continuation for the second boundary value problem.

The fourth-order equation is solved as the coupled second-order system

    det D^2 u = Theta(w),    U^{ij} w_{ij} = t f,

with u = phi and w = t psi + (1 - t) on the boundary, where U is the
cofactor matrix of D^2 u and Theta inverts G'.  At t = 0 the solution is
w = 1 (or a given initial w0) with u from one Monge-Ampere solve.  t is
then driven to 1 by an Euler-Newton predictor-corrector under a step
controller.  Each step is a Newton solve of the coupled system on the
stacked (u, log w) unknowns by the package's one damped Newton
(`ma_dirichlet.damped_newton`), so w > 0 by construction.  A converged step
before t = 1 solves once more with its live LU for the tangent dx/dt, and
the next step starts from the previous solution moved along it, when that
start is convex and has the smaller residual, else from the previous
solution itself.  The first step is dt = 1/t_steps.  dt grows 4 times after
a converged step of one factorization whose first Newton contraction is at
most THETA_MAX/16, 2 times after one of at most 2 factorizations, and
halves after a failed step until the next step ends short of it.  A failed
step no longer than the floor dt = 1/(t_steps 2^max_step_halvings) ends the
continuation in ContinuationError.  The coarsest grid's continuation and
each fallback's start afresh from the first step.
In two dimensions the problem has a solution for every f, so no 2-d step
gives a nonexistence verdict, and w_floor does not bound w there.

An interval takes an exact path instead (`_exact_1d`).  There the cofactor
is 1, so the system is w'' = t f, u'' = Theta(w): linear and triangular,
with w affine in t.  One LU of the unit operator, with two solves, gives
the solution at t = 1, and the t at which w first reaches w_floor has a
closed form, which is the nonexistence verdict's last_good_t.  t_steps,
max_step_halvings and w0 do nothing on an interval (w0 is still
validated).

A 2-d grid finer than _COARSEST_RESOLUTION = 32 does not drive t itself
(grid sequencing; Deuflhard's nested iteration).  It solves the same problem
on the grid of half its resolution, recursively, moves that solution's log w
to its own nodes, solves u = solve_ma(Theta(w)), and takes one Newton step
at t = 1 from there: by mesh independence, Newton's iteration count does not
grow with the resolution.  So t_steps, max_step_halvings and w0 act on the
coarsest grid.  If a coarser grid or the re-solve of u on this grid raises a
SolverError, or the fine step does not converge, the grid runs the
continuation itself, and its outcome is the run's.  Each trace entry records
the resolution of its grid.

phi_map, one sweep of the splitting (a Monge-Ampere solve, then the linear
solve in cofactor form), is kept as an independent fixed-point check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import standard_diagnostics
from .exceptions import (ContinuationError, SingularSystemError, SolverError,
                         WFloorError)
from .functionals import el_residual
from .gfamily import invert_w
from .lin_ma import (apply_weights, assemble_operator, factorize,
                     factorize_coupled, solve_linearized, stencil_weights)
from .ma_dirichlet import THETA_MAX, MAOptions, damped_newton, solve_ma
from .mesh import (MatrixField, ScalarField, build_grid, cofactor, det_field,
                   hessian, is_positive_definite, quadratic_transfer, sym_det)
from .problem import Problem


@dataclass(frozen=True)
class ContinuationOptions:
    t_steps: int = 10
    w_floor: float = 1e-6
    max_step_halvings: int = 6
    ma: MAOptions = field(default_factory=MAOptions)

    def __post_init__(self):
        # integers only: NaN fails every comparison, so a NaN t_steps
        # would pass and its failed steps would never halve
        if not isinstance(self.t_steps, (int, np.integer)) or self.t_steps < 1:
            raise ValueError("t_steps must be an integer >= 1")
        if not 0.0 < self.w_floor < np.inf:
            raise ValueError("w_floor must be positive and finite")
        if (not isinstance(self.max_step_halvings, (int, np.integer))
                or self.max_step_halvings < 0):
            raise ValueError("max_step_halvings must be an integer >= 0")
        if math.ldexp(1.0 / self.t_steps, -self.max_step_halvings) == 0.0:
            raise ValueError("max_step_halvings leaves no positive step "
                             "floor 1/(t_steps 2^max_step_halvings)")


@dataclass
class Solution:
    u: ScalarField
    w: ScalarField
    d: ScalarField
    el_residual_norm: float
    iterations: list
    diagnostics: dict  # ReportEntry by name


def phi_map(w: ScalarField, t: float, problem: Problem,
            opts: ContinuationOptions = None):
    """One application of the inner map: returns (w_t, u)."""
    opts = opts or ContinuationOptions()
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    w_min = float(np.min(w.values))
    if w_min < opts.w_floor:
        raise WFloorError(f"iterate has min w = {w_min:.3e} below the floor "
                          f"{opts.w_floor:.3e}", w_min=w_min)
    grid = problem.grid
    g = ScalarField(grid, invert_w(problem.gspec, w.values))
    u = solve_ma(grid, g, problem.phi, opts.ma)
    U = cofactor(hessian(u, grid), grid)
    f_t = ScalarField(grid, t * problem.f.values)
    w_tb = t * problem.psi + (1.0 - t)
    w_t = solve_linearized(grid, U, f_t, w_tb)
    return w_t, u


_NEWTON_TOL = 1e-11       # scaled coupled residual that ends a step
_NEWTON_MAX_ITERS = 30


def _newton_step(uv, wv, t, problem, shift=None):
    """Newton on the coupled system at parameter t, from node values (uv, wv).

    2-d grids only; an interval takes `_exact_1d`.

    The unknowns are the interior values of u and of s = log w, stacked,
    so w = e^s stays positive with no bound on the step.  The Jacobian is
    exact: the determinant block assembles with cofactor coefficients of
    D²u; in s, -Theta(w) has the derivative -Theta/(theta - 1), and the
    w-equation's block is A diag(w); and in two dimensions the cofactor
    pairing is symmetric (cof(A):B = cof(B):A), so the derivative of
    U^{ij}w_{ij} in u assembles with cofactor coefficients built from D²w.
    `damped_newton` runs the iteration.  No residual builds a matrix: the
    w-equation is `apply_weights` with the u-weights, which the residual
    keeps for the Jacobian at the same iterate, `lin_ma.factorize_coupled`.

    `shift`, if given, is the predictor's move of the interior (u, s) from
    (uv, wv).  Newton starts from the shifted point only if D²u is positive
    definite there and its scaled residual is below that of (uv, wv);
    each start is evaluated once, and the chosen one's evaluation is
    handed to `damped_newton`.

    Returns the final (uv, wv), the step's outcome for the trace, and the
    tangent.  The outcome holds the step's Newton iterations (chord steps
    included), factorizations, final scaled residual, min w, whether it
    converged (exactly when `damped_newton` returns no error and the final
    D²u is positive definite), whether it started from the shifted point
    (`predicted`), and Newton's first contraction (`contraction`).
    floor_hit is always False, since no 2-d step gives a nonexistence
    verdict.  The tangent dx/dt = -J^{-1} dF/dt of the interior (u, s) is
    one more solve with the step's last LU after a converged step with
    t < 1 and a factorization, else None.  In (u, s), dF/dt is 0 in the
    u-rows and B_a(psi - 1) - f in the w-rows, with B_a the boundary
    columns of the u-weights at the solution.  The LU is dropped on return.
    """
    grid = problem.grid
    n = grid.n_interior
    gspec = problem.gspec
    f_int = t * problem.f.interior
    ub = uv[n:]
    wb = t * problem.psi + (1.0 - t)
    s2 = max(1.0, float(np.max(np.abs(f_int))))

    def residual(x):
        # Far out in s, e^s or Theta(e^s) leaves the floating-point range;
        # such a trial has residual inf, which the line search rejects.
        with np.errstate(over="ignore"):
            w = np.concatenate([np.exp(x[n:]), wb])
            theta = (invert_w(gspec, w[:n])
                     if np.all((w > 0.0) & (w < np.inf)) else np.inf)
        if not np.all(theta < np.inf):
            return np.inf, None, None
        Hu = hessian(ScalarField(grid, np.concatenate([x[:n], ub])), grid)
        U = cofactor(Hu, grid)
        a = stencil_weights(grid, U)
        F = np.concatenate([sym_det(Hu.data) - theta,
                            apply_weights(grid, a, w) - f_int])
        s1 = max(1.0, float(np.max(theta)))
        r = max(float(np.max(np.abs(F[:n]))) / s1,
                float(np.max(np.abs(F[n:]))) / s2)
        return r, F, (Hu, a, theta, w)

    def jacobian(x, state):
        # The operator with cofactor coefficients of D²u is also the
        # derivative of det D²u.
        _, a, theta, w = state
        c = stencil_weights(grid, cofactor(hessian(ScalarField(grid, w),
                                                   grid), grid))
        return factorize_coupled(grid, a, -theta / (gspec.theta - 1.0), c, w)

    x = np.concatenate([uv[:n], np.log(wv[:n])])
    start = residual(x)
    predicted = False
    if shift is not None:
        x_pred = x + shift
        guess = residual(x_pred)
        if guess[0] < start[0] and np.all(is_positive_definite(guess[2][0])):
            x, start, predicted = x_pred, guess, True
    result = damped_newton(x, residual, jacobian, _NEWTON_TOL,
                           _NEWTON_MAX_ITERS, start)
    Hu, a, _, _ = result.state
    uv = np.concatenate([result.x[:n], ub])
    wv = np.concatenate([np.exp(result.x[n:]), wb])
    error = None if result.error is None else f"coupled Newton: {result.error}"
    if error is None and not np.all(is_positive_definite(Hu)):
        error = "coupled Newton left a nonconvex iterate"
    tangent = None
    if error is None and t < 1.0 and result.solve is not None:
        dw = np.concatenate([np.zeros(n), problem.psi - 1.0])
        dF = np.concatenate([np.zeros(n), apply_weights(grid, a, dw)
                             - problem.f.interior])
        try:
            tangent = result.solve(-dF)
        except SingularSystemError:
            pass  # the next step starts from this solution
    outcome = {"iterations": result.steps,
               "factorizations": result.factorizations,
               "residual": result.r, "w_min": float(np.min(wv)),
               "converged": error is None, "floor_hit": False,
               "predicted": predicted, "contraction": result.contraction}
    if error is not None:
        outcome["error"] = error
    return uv, wv, outcome, tangent


# A converged step whose Newton made at most this many factorizations was
# cheap, and the next step is twice as long.
_CHEAP_STEP_FACTORIZATIONS = 2
# A converged step of one factorization whose first contraction is at most
# this was very cheap, and the next step is four times as long: the
# predictor's error is O(dt^2), so a step four times as long should still
# contract by THETA_MAX.
_FAST_CONTRACTION = THETA_MAX / 16.0


def _growth(outcome):
    """The factor by which a converged step's outcome lengthens dt."""
    if (outcome["factorizations"] == 1 and outcome["contraction"] is not None
            and outcome["contraction"] <= _FAST_CONTRACTION):
        return 4.0
    if outcome["factorizations"] <= _CHEAP_STEP_FACTORIZATIONS:
        return 2.0
    return 1.0


def _continuation(problem, opts, wv, trace):
    """Drive t from 0 to 1 from w = wv at t = 0; return the (u, w) node values.

    An Euler-Newton predictor-corrector (Allgower and Georg, Introduction
    to Numerical Continuation Methods, ch. 2).  Each converged step before
    t = 1 hands on its tangent dx/dt, and the next step's Newton starts at
    x + (t_next - t) dx/dt where `_newton_step`'s guard lets it (convex
    there, with a smaller residual), else at x.  A failed step keeps the
    last converged step's tangent.

    The first step is dt = 1/t_steps.  After a converged step dt grows by
    `_growth`: 4 times after one factorization whose first contraction
    Theta_0 is at most _FAST_CONTRACTION (Deuflhard, Newton Methods for
    Nonlinear Problems, ch. 5), 2 times after at most
    _CHEAP_STEP_FACTORIZATIONS factorizations, else not.  After a failed
    step dt halves until the next step ends short of the failed t.  A
    failed step no longer than the floor dt_min = dt/2^max_step_halvings
    ends the continuation in ContinuationError.  dt moves only by powers
    of 2, so it meets the floor exactly.  Each step's entry, with the
    controller's dt, is appended to `trace`.
    """
    grid = problem.grid
    g = ScalarField(grid, invert_w(problem.gspec, wv))
    uv = solve_ma(grid, g, problem.phi, opts.ma).values
    t_reached = 0.0
    dt = 1.0 / opts.t_steps
    dt_min = math.ldexp(dt, -opts.max_step_halvings)
    tangent = None
    while t_reached < 1.0:
        t_try = min(1.0, t_reached + dt)
        if 1.0 - t_try < 1e-12:  # don't let roundoff add an extra step
            t_try = 1.0
        shift = None if tangent is None else (t_try - t_reached) * tangent
        u_new, w_new, outcome, tangent_new = _newton_step(
            uv, wv, t_try, problem, shift)
        trace.append({"t": t_try, "dt": dt, "resolution": grid.resolution,
                      **outcome})
        if outcome["converged"]:
            uv, wv, tangent = u_new, w_new, tangent_new
            t_reached = t_try
            dt *= _growth(outcome)
            continue
        # halve dt until the next step, snapped as above, ends before t_try
        while dt >= dt_min and t_reached + dt >= t_try - 1e-12:
            dt *= 0.5
        if dt < dt_min:
            raise ContinuationError(
                f"no convergence at t = {t_try:.6g} after "
                f"{opts.max_step_halvings} step halvings below the first "
                f"step ({outcome['error']})",
                last_good_t=t_reached, trace=trace)
    return uv, wv


def _exact_1d(problem, opts, trace):
    """The (u, w) node values at t = 1 on an interval: one LU, two solves.

    With unit coefficients (the cofactor in one dimension), w_1 solves
    w'' = f with w = psi.  The path in t is then known: w_t = (1 - t) + t w_1
    solves w'' = t f with w = t psi + (1 - t), so a node with w_1 < 1 meets
    w_floor at t = (1 - w_floor) / (1 - w_1).  If min w_1, boundary
    included, is below w_floor, the least such t is the verdict's
    last_good_t (WFloorError); otherwise u solves u'' = Theta(w_1) with
    u = phi.  Both are solves with the one unit operator, whose one LU
    (`assemble_operator`) serves both.  One trace entry, at t = 1, records
    the outcome; its residual is that of the equations solved, scaled as
    in `_newton_step`.
    """
    grid = problem.grid
    n = grid.n_interior
    a = stencil_weights(grid, MatrixField(grid, np.ones((n, 1, 1))))
    solve = factorize(assemble_operator(grid, a), grid.nd_order)

    def dirichlet(rhs, boundary):
        # node values of the solution and its scaled residual
        v = solve(rhs - apply_weights(
            grid, a, np.concatenate([np.zeros(n), boundary])))
        v = np.concatenate([v, boundary])
        r = (float(np.max(np.abs(apply_weights(grid, a, v) - rhs)))
             / max(1.0, float(np.max(np.abs(rhs)))))
        return v, r

    wv, r = dirichlet(problem.f.interior, problem.psi)
    w_min = float(np.min(wv))
    entry = {"t": 1.0, "dt": 1.0, "resolution": grid.resolution,
             "iterations": 0, "factorizations": 1, "predicted": False,
             "contraction": None}
    if w_min < opts.w_floor:
        drop = 1.0 - wv
        t_star = (1.0 - opts.w_floor) / float(np.max(drop))
        trace.append({**entry, "residual": r, "w_min": w_min,
                      "converged": False, "floor_hit": True,
                      "error": f"w at t = 1 has min w = {w_min:.3e} below "
                               "the floor"})
        raise WFloorError(
            f"w reaches the floor {opts.w_floor:.3e} at t = {t_star:.6g}: "
            "nonexistence (closed form on an interval)",
            last_good_t=t_star, w_min=float(np.min(1.0 - t_star * drop)),
            trace=trace)
    uv, r_u = dirichlet(invert_w(problem.gspec, wv)[:n], problem.phi)
    trace.append({**entry, "residual": max(r, r_u), "w_min": w_min,
                  "converged": True, "floor_hit": False})
    return uv, wv


# A 2-d grid finer than this starts from the grid of half its resolution.
_COARSEST_RESOLUTION = 32


def _boundary_interp(fine, coarse, values):
    """Boundary node values of `fine` at the boundary nodes of `coarse`."""
    return np.interp(coarse.boundary_params, fine.boundary_params, values,
                     period=2.0 * np.pi)


def _from_coarse(problem, opts, wv, trace):
    """The (u, w) node values at t = 1 from the half-resolution solution.

    The problem, with w = wv at t = 0, is solved on the grid of half the
    resolution by `_solve`.  Its log w alone moves to this grid's interior
    by `quadratic_transfer` (a moved u need not be discretely convex
    here), with the boundary values set exactly; u = solve_ma(Theta(w)),
    as at t = 0, then one Newton step is taken at t = 1.  Returns None
    when that step does not converge.
    """
    grid = problem.grid
    coarse = build_grid(grid.domain, (grid.resolution + 1) // 2)
    f, s = quadratic_transfer(grid, coarse.points, np.column_stack(
        [problem.f.values, np.log(wv)])).T
    coarse_problem = Problem(
        coarse, problem.gspec, ScalarField(coarse, f),
        _boundary_interp(grid, coarse, problem.phi),
        _boundary_interp(grid, coarse, problem.psi))
    _, wc = _solve(coarse_problem, opts, np.exp(s), trace)

    s = quadratic_transfer(coarse, grid.interior_points, np.log(wc))
    wv = np.concatenate([np.exp(s), problem.psi])
    u = solve_ma(grid, ScalarField(grid, invert_w(problem.gspec, wv)),
                 problem.phi, opts.ma)
    uv, wv, outcome, _ = _newton_step(u.values, wv, 1.0, problem)
    trace.append({"t": 1.0, "dt": 1.0, "resolution": grid.resolution,
                  **outcome})
    return (uv, wv) if outcome["converged"] else None


def _solve(problem, opts, wv, trace):
    """The (u, w) node values at t = 1 from w = wv at t = 0.

    An interval takes the exact path (`_exact_1d`), which ignores wv.  A
    2-d grid finer than _COARSEST_RESOLUTION starts from the solution at
    half its resolution (`_from_coarse`).  If that raises a SolverError or
    its step does not converge, the grid runs the continuation itself.
    Each step's entry is appended to `trace`.
    """
    grid = problem.grid
    if grid.dim == 1:
        return _exact_1d(problem, opts, trace)
    if grid.resolution > _COARSEST_RESOLUTION:
        try:
            solved = _from_coarse(problem, opts, wv, trace)
        except SolverError:
            solved = None
        if solved is not None:
            return solved
    return _continuation(problem, opts, wv, trace)


def solve_second_bvp(problem: Problem, opts: ContinuationOptions = None,
                     w0: ScalarField = None) -> Solution:
    """Solve the problem at t = 1 and return the solution fields.

    w0 optionally replaces the default initial iterate w = 1 (the solution
    at t = 0); it must be finite and at least w_floor.
    """
    opts = opts or ContinuationOptions()
    grid = problem.grid
    if w0 is None:
        w0 = ScalarField.constant(grid, 1.0)
    else:
        if w0.grid is not grid:
            raise ValueError("w0 lives on a different grid")
        if not np.all((w0.values >= opts.w_floor) & (w0.values < np.inf)):
            raise ValueError("w0 must be finite and >= w_floor everywhere")
    trace = []
    uv, wv = _solve(problem, opts, w0.values, trace)

    u = ScalarField(grid, uv)
    w = ScalarField(grid, wv)
    d = det_field(hessian(u, grid), grid)
    residual = el_residual(u, problem)
    el_norm = float(np.max(np.abs(residual.interior)))
    diagnostics = standard_diagnostics(u, w, d, problem.f, grid,
                                       problem.gspec, problem.phi)
    return Solution(u=u, w=w, d=d, el_residual_norm=el_norm,
                    iterations=trace, diagnostics=diagnostics)
