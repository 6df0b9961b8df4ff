"""Damped Newton solver for det D^2 u = g with Dirichlet data, g > 0.

Newton uses the exact linearization delta(det D^2 u) = U^{ij} delta u_{ij},
so each step solves a linearized problem with the current cofactor field as
coefficients.  The initial guess is a Poisson solve, made convex with the
domain's level-function bubble where needed; in one dimension it is already
the discrete solution.  Iterates stay discretely convex (positive definite
Hessian at every interior node): a nonconvex trial has infinite residual,
which the line search rejects.

`damped_newton`, the package's one damped Newton, also drives the coupled
step of the continuation.  It reuses its LU across chord steps as well as
across a line search (Deuflhard's NLEQ-ERR): a full step whose simplified
step contracts by _THETA_MAX or better makes that simplified step the next
iteration, with no new Jacobian or factorization.  A chord step is never
damped; when one fails, Newton refactorizes at the same iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (ConvexityLossError, NewtonDivergenceError,
                         SingularSystemError)
from .lin_ma import assemble_operator, factorize, solve_system
from .mesh import (Grid, MatrixField, ScalarField, cofactor, hessian,
                   is_positive_definite, level_bubble, sym_det)


@dataclass(frozen=True)
class MAOptions:
    newton_tol: float = 1e-10
    max_newton_iters: int = 50

    def __post_init__(self):
        if self.newton_tol <= 0.0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be at least 1")


def _check_g(g: ScalarField):
    if np.any(g.interior <= 0.0) or not np.all(np.isfinite(g.interior)):
        raise ValueError("g must be strictly positive and finite on "
                         "interior nodes")


def _interior_det(grid: Grid, values: np.ndarray):
    H = hessian(ScalarField(grid, values), grid)
    return H, sym_det(H.data)


def _identity_coeffs(grid: Grid) -> MatrixField:
    n = grid.dim
    data = np.broadcast_to(np.eye(n), (grid.n_interior, n, n))
    return MatrixField(grid, data)


def _initial_guess(grid: Grid, g: ScalarField, phi_b) -> np.ndarray:
    n = grid.dim
    # trace D^2 u0 = n g^{1/n}: equality when D^2 u0 is a multiple of I.
    rhs = n * g.interior ** (1.0 / n)
    A, B = assemble_operator(grid, _identity_coeffs(grid))
    u_int = solve_system(A, rhs - B @ phi_b, grid.nd_order)
    u = np.concatenate([u_int, phi_b])

    bubble = level_bubble(grid)
    # Convexify if the linear solve undershot somewhere.
    eps = 1.0
    for _ in range(60):
        H, _ = _interior_det(grid, u)
        if np.all(is_positive_definite(H)):
            return u
        u = u + eps * bubble
        eps *= 2.0
    raise ConvexityLossError("could not construct a convex initial guess")


# The line search gives up below this damping.  Where no solution exists,
# it ends the coupled step sooner than the iteration budget would.
_DAMPING_MIN = 1e-2
# A full step whose simplified step contracts by at least this factor hands
# that simplified step on as the next iteration's chord step.
_THETA_MAX = 0.25


def damped_newton(x, residual, jacobian, tol, max_iters):
    """Damped Newton for F(x) = 0 from x, until the scaled residual <= tol.

    `residual(x)` returns (r, F, state): the scaled residual norm (inf
    rejects x), the residual vector, and what `jacobian(x, state)` needs
    to factorize the Jacobian at x and return its checked solve, as
    `lin_ma.factorize` does.  A trial at damping s is taken by Deuflhard's
    natural-monotonicity test: its simplified step J^{-1} F(trial) is at
    most (1 - s/4) times the step.  A Newton iteration drops the live LU
    and calls `jacobian` once; the simplified steps reuse the new LU.
    When a full step (s = 1) is taken with contraction |simplified step|
    <= _THETA_MAX |step| (sup norms), the simplified step is the next
    iteration: a chord step with the live LU, so no Jacobian and no
    factorization (Deuflhard's NLEQ-ERR).  A chord step is never damped:
    if it fails the test, Newton refactorizes at the same iterate and
    takes a Newton step.

    Returns (x, r, F, state, steps, factorizations, error) for the last
    accepted iterate, with steps the iterations run (chord steps included,
    a failed chord trial not), factorizations the `jacobian` calls made,
    and error None or the SolverError that stopped Newton short: no trial
    above _DAMPING_MIN, max_iters steps, or a linear solve failing its
    check.
    """
    r, F, state = residual(x)
    trace = [{"iter": 0, "residual": r}]
    steps = factorizations = 0
    error = solve = chord = None
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
                if not accepted and trial[0] < np.inf:
                    simplified = solve(-trial[1])
                    size = float(np.max(np.abs(simplified)))
                    accepted = size <= (1.0 - 0.25 * s) * norm
                    if accepted and s == 1.0 and size <= _THETA_MAX * norm:
                        chord = simplified
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
    return x, r, F, state, steps, factorizations, error


def solve_ma(grid: Grid, g: ScalarField, phi_b, opts: MAOptions = None,
             initial: ScalarField = None) -> ScalarField:
    """Solve det D^2 u = g, u = phi_b on the boundary, u discretely convex.

    `initial` warm-starts Newton; its boundary values are replaced by phi_b.
    """
    opts = opts or MAOptions()
    _check_g(g)
    phi_b = np.asarray(phi_b, dtype=float) * np.ones(grid.n_boundary)

    def residual(x):
        H, dets = _interior_det(grid, np.concatenate([x, phi_b]))
        F = dets - g.interior
        if not np.all(is_positive_definite(H)):
            return np.inf, F, H  # Newton keeps the iterates convex
        return float(np.max(np.abs(F))), F, H

    def jacobian(x, H):
        J = assemble_operator(grid, cofactor(H, grid))[0]
        return factorize(J, grid.nd_order)

    x = None if initial is None else initial.interior
    if x is None or residual(x)[0] == np.inf:
        x = _initial_guess(grid, g, phi_b)[: grid.n_interior]

    # The convergence test scales with the data: the discrete determinant
    # carries rounding noise proportional to its own size, so an absolute
    # sup-norm target is unreachable when g is large.
    tol = opts.newton_tol * max(1.0, float(np.max(np.abs(g.interior))))
    x, *_, error = damped_newton(x, residual, jacobian, tol,
                                 opts.max_newton_iters)
    if error is not None:
        raise error
    return ScalarField(grid, np.concatenate([x, phi_b]))


def ma_residual(grid: Grid, u: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise det D^2 u - g at interior nodes (boundary rows zero)."""
    _, dets = _interior_det(grid, u.values)
    r = dets - g.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
