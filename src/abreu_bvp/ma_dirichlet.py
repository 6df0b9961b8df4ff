"""Damped Newton solver for det D^2 u = g with Dirichlet data, g > 0.

Newton uses the exact linearization delta(det D^2 u) = U^{ij} delta u_{ij},
so each step solves a linearized problem with the current cofactor field as
coefficients.  The initial guess solves M : D^2 u0 = n g^{1/n}, with
M = diag(a/b, b/a) on an ellipse of semi-axes a, b (the identity on a
disk, so a Poisson solve there), made convex with the domain's
level-function bubble where needed.  det M = 1, so by AM-GM
tr(M H) >= n (det H)^{1/n}, with equality exactly when H is a multiple of
M^{-1}, the Hessian of the domain's level quadratic: for constant g and
affine phi the start is already the discrete solution, as it is for any g
in one dimension.  At that equality the cofactor of H is g^{(n-1)/n} M,
so the start's LU, its rows scaled by g^{(n-1)/n}, is also a chord
Jacobian: Newton starts with chord steps on it, and an MA solve whose
start contracts makes that one LU and no other.  Iterates stay discretely
convex (positive definite Hessian at every interior node): a nonconvex
trial has infinite residual, which the line search rejects.

`damped_newton`, the package's one damped Newton, also drives the coupled
step of the continuation.  It reuses its LU across chord steps as well as
across a line search (Deuflhard's NLEQ-ERR): a full step whose simplified
step contracts by THETA_MAX or better makes that simplified step the next
iteration, with no new Jacobian or factorization.  A chord step is never
damped; when one fails, Newton refactorizes at the same iterate.  A
caller may hand over a checked solve it already has for the first chord
step (`solve_ma` does; the continuation does not).  It hands back, with
the solution, what the continuation's predictor and step controller
read: the live LU's checked solve and the first contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (ConvexityLossError, NewtonDivergenceError,
                         SingularSystemError, SolverError)
from .lin_ma import (apply_weights, assemble_operator, factorize,
                     solve_system, stencil_weights)
from .mesh import (Grid, MatrixField, ScalarField, cofactor, hessian,
                   is_positive_definite, level_bubble, sym_det)


@dataclass(frozen=True)
class MAOptions:
    newton_tol: float = 1e-10
    max_newton_iters: int = 50

    def __post_init__(self):
        if not 0.0 < self.newton_tol < np.inf:
            raise ValueError("newton_tol must be positive and finite")
        if (not isinstance(self.max_newton_iters, (int, np.integer))
                or self.max_newton_iters < 1):
            raise ValueError("max_newton_iters must be an integer >= 1")


def _check_g(g: ScalarField):
    if np.any(g.interior <= 0.0) or not np.all(np.isfinite(g.interior)):
        raise ValueError("g must be strictly positive and finite on "
                         "interior nodes")


def _interior_det(grid: Grid, values: np.ndarray):
    H = hessian(ScalarField(grid, values), grid)
    return H, sym_det(H.data)


def _shape_coeffs(grid: Grid) -> MatrixField:
    """M = diag(a/b, b/a) for semi-axes a, b (I on a disk), 1 on an interval."""
    m = np.ones((1, 1))
    if grid.dim == 2:
        a, b = grid.domain.semi_axes
        m = np.diag([a / b, b / a])
    return MatrixField(grid, np.broadcast_to(m, (grid.n_interior,) + m.shape))


def _initial_guess(grid: Grid, g: ScalarField, phi_b):
    """The start u0 and the checked solve of M : D^2 that made it."""
    n = grid.dim
    # M : D^2 u0 = n g^{1/n} with det M = 1.  By AM-GM,
    # tr(M H) >= n (det H)^{1/n}, with equality exactly when H is a
    # multiple of M^{-1}, the Hessian of the domain's level quadratic; so
    # for constant g and affine phi the start is the discrete solution.
    a = stencil_weights(grid, _shape_coeffs(grid))
    rhs = n * g.interior ** (1.0 / n) - apply_weights(
        grid, a, np.concatenate([np.zeros(grid.n_interior), phi_b]))
    u_int, solve = solve_system(assemble_operator(grid, a), rhs,
                                grid.nd_order)
    u = np.concatenate([u_int, phi_b])

    bubble = level_bubble(grid)
    # Convexify if the linear solve undershot somewhere.
    eps = 1.0
    for _ in range(60):
        H, _ = _interior_det(grid, u)
        if np.all(is_positive_definite(H)):
            return u, solve
        u = u + eps * bubble
        eps *= 2.0
    raise ConvexityLossError("could not construct a convex initial guess")


# The line search gives up below this damping.  No coupled step runs on an
# interval, and a 2-d problem always has a solution, so in a coupled step
# this floor ends a hopeless long step early, before the iteration budget.
_DAMPING_MIN = 1e-2
# A full step whose simplified step contracts by at least this factor hands
# that simplified step on as the next iteration's chord step.  The
# continuation's step controller reads it too.
THETA_MAX = 0.25


class NewtonResult(NamedTuple):
    """What `damped_newton` ends with, for the last accepted iterate."""

    x: np.ndarray
    r: float                   # its scaled residual
    state: object              # its residual state
    steps: int                 # iterations run, chord steps included
    factorizations: int        # `jacobian` calls
    error: SolverError | None  # what stopped Newton short
    solve: object              # the last LU's checked solve, or None
    contraction: float | None  # Theta_0 at the first trial


def damped_newton(x, residual, jacobian, tol, max_iters, start=None,
                  solve=None):
    """Damped Newton for F(x) = 0 from x, until the scaled residual <= tol.

    `residual(x)` returns (r, F, state): the scaled residual norm (inf
    rejects x), the residual vector, and what `jacobian(x, state)` needs
    to factorize the Jacobian at x and return its checked solve, as
    `lin_ma.factorize` does.  `start` is residual(x) when the caller has
    already evaluated it.  A trial at damping s is taken by Deuflhard's
    natural-monotonicity test: its simplified step J^{-1} F(trial) is at
    most (1 - s/4) times the step.  A Newton iteration drops the live LU
    and calls `jacobian` once; the simplified steps reuse the new LU.
    When a full step (s = 1) is taken with contraction |simplified step|
    <= THETA_MAX |step| (sup norms), the simplified step is the next
    iteration: a chord step with the live LU, so no Jacobian and no
    factorization (Deuflhard's NLEQ-ERR).  A chord step is never damped:
    if it fails the test, Newton refactorizes at the same iterate and
    takes a Newton step.  `solve` is a checked solve of an approximate
    Jacobian at x that the caller already has: when the residual at x is
    above tol, the first iteration is the chord step solve(-F) on it,
    taken and tested as any chord step, and chord steps go on with it
    while they contract by THETA_MAX.  If that first chord step is refused,
    or its checked solve raises SingularSystemError, Newton refactorizes
    at x and runs from there as it would have without `solve`.

    Returns a `NewtonResult`.  Its steps do not count a failed chord
    trial, and its error is None or the SolverError that stopped Newton
    short: no trial above _DAMPING_MIN, max_iters steps, or a linear solve
    failing its check.  Its solve is the live LU's checked solve when
    Newton converged, for the caller to use once more and drop: the given
    `solve` when Newton made no factorization, else the last one's; None
    on an error.  Its contraction is Deuflhard's first contraction
    Theta_0 = |simplified step| / |step| at the first trial: the full
    first Newton step, or the chord step on the given `solve` when there
    is one; inf when that trial is rejected outright, None when no trial
    ran.
    """
    r, F, state = residual(x) if start is None else start
    trace = [{"iter": 0, "residual": r}]
    steps = factorizations = 0
    error = chord = contraction = None
    if solve is not None and r > tol:
        try:
            chord = solve(-F)
        except SingularSystemError:
            pass  # refused: the first iteration factorizes at x
    try:
        while r > tol and steps < max_iters:
            newton = chord is None
            if newton:
                solve = None  # one factorization alive at a time
                factorizations += 1
                solve = jacobian(x, state)
                step = solve(-F)
                steps += 1
            else:
                step, chord = chord, None
            s = 1.0
            norm = float(np.max(np.abs(step)))
            while s > _DAMPING_MIN:
                x_try = x + s * step
                trial = residual(x_try)
                accepted = trial[0] <= tol
                first = contraction is None
                if trial[0] < np.inf and (first or not accepted):
                    try:
                        simplified = solve(-trial[1])
                    except SingularSystemError:
                        if factorizations:
                            raise
                        accepted = False  # the given solve failed
                        break
                    size = float(np.max(np.abs(simplified)))
                    if first:
                        contraction = size / norm
                    accepted = accepted or size <= (1.0 - 0.25 * s) * norm
                    if accepted and s == 1.0 and size <= THETA_MAX * norm:
                        chord = simplified
                elif first:
                    contraction = np.inf
                if accepted or not newton:
                    break
                s *= 0.5
            else:
                error = NewtonDivergenceError(
                    f"line search found no damping above {_DAMPING_MIN}",
                    trace=trace)
                break
            if not accepted:
                continue  # the chord step failed: refactorize here
            if not newton:
                steps += 1
            x, (r, F, state) = x_try, trial
            trace.append({"iter": steps, "residual": r})
    except SingularSystemError as exc:
        solve, error = None, exc  # exc.__traceback__ keeps this frame alive
    if error is None and r > tol:
        error = NewtonDivergenceError(
            f"no convergence in {max_iters} Newton iterations "
            f"(residual {r:.3e})", trace=trace)
    return NewtonResult(x, r, state, steps, factorizations, error,
                        solve if error is None else None, contraction)


def _rows_divided(solve, scale):
    """The checked solve of diag(scale) A, from `solve` of A."""
    return lambda rhs: solve(rhs / scale)


def solve_ma(grid: Grid, g: ScalarField, phi_b,
             opts: MAOptions = None) -> ScalarField:
    """Solve det D^2 u = g, u = phi_b on the boundary, u discretely convex,
    by Newton from `_initial_guess` (exact for constant g and affine phi_b).

    Newton's first steps are chord steps on the start's LU, with the
    right-hand side divided row-wise by g^{(n-1)/n}; while they contract
    by THETA_MAX the solve makes no other LU.  When the first is refused,
    Newton factorizes at the start and runs from there as it would have
    with no chord step.
    """
    opts = opts or MAOptions()
    _check_g(g)
    phi_b = np.asarray(phi_b, dtype=float) * np.ones(grid.n_boundary)
    if not np.all(np.isfinite(phi_b)):
        raise ValueError("phi must be finite on boundary nodes")

    def residual(x):
        H, dets = _interior_det(grid, np.concatenate([x, phi_b]))
        F = dets - g.interior
        if not np.all(is_positive_definite(H)):
            return np.inf, F, H  # Newton keeps the iterates convex
        return float(np.max(np.abs(F))), F, H

    def jacobian(x, H):
        J = assemble_operator(grid, stencil_weights(grid, cofactor(H, grid)))
        return factorize(J, grid.nd_order)

    u, solve = _initial_guess(grid, g, phi_b)
    x = u[: grid.n_interior]
    # Where D^2 u0 = g^{1/n} M^{-1}, the AM-GM equality the start is built
    # on, its cofactor is g^{(n-1)/n} M, as det M = 1: the Jacobian there is
    # M : D^2 with its rows scaled by g^{(n-1)/n}.  So the start's LU, with
    # the right-hand side divided by that, is Newton's first chord
    # Jacobian.  It is handed over from a list, so that no name here keeps
    # it and a refactorization frees it first.
    chord = [_rows_divided(solve, g.interior ** ((grid.dim - 1) / grid.dim))]
    del solve

    # The convergence test scales with the data: the discrete determinant
    # carries rounding noise proportional to its own size, so an absolute
    # sup-norm target is unreachable when g is large.
    tol = opts.newton_tol * max(1.0, float(np.max(np.abs(g.interior))))
    result = damped_newton(x, residual, jacobian, tol, opts.max_newton_iters,
                           solve=chord.pop())
    x, error = result.x, result.error
    # Free the LU before the solution's array is made: made while the LU
    # lives, the array lands above it in the heap, and the peak RSS of a
    # disk48 solve rose by about 1 MB.
    del result
    if error is not None:
        raise error
    return ScalarField(grid, np.concatenate([x, phi_b]))


def ma_residual(grid: Grid, u: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise det D^2 u - g at interior nodes (boundary rows zero)."""
    _, dets = _interior_det(grid, u.values)
    r = dets - g.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
