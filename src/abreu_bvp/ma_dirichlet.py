"""Damped Newton solver for det D^2 u = g with Dirichlet data, g > 0.

Newton uses the exact linearization delta(det D^2 u) = U^{ij} delta u_{ij},
so each step solves a linearized problem with the current cofactor field as
coefficients.  Iterates are kept discretely convex (positive definite
Hessian at every interior node) by backtracking; the initial guess is a
Poisson solve, made convex with the domain's level-function bubble where
needed.  In one dimension the problem is linear in the discrete Hessian
and is solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvexityLossError, NewtonDivergenceError
from .lin_ma import LinSolveOptions, assemble_operator, solve_system
from .mesh import (Grid, MatrixField, ScalarField, cofactor, hessian,
                   is_positive_definite, level_bubble, sym_det)


@dataclass(frozen=True)
class MAOptions:
    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    damping_min: float = 2.0**-20

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


def _linear_solve(grid, coeffs, rhs_interior, boundary, lin_opts):
    A, B = assemble_operator(grid, coeffs)
    return solve_system(A, rhs_interior - B @ boundary, lin_opts)


def _initial_guess(grid: Grid, g: ScalarField, phi_b,
                   lin_opts: LinSolveOptions) -> np.ndarray:
    n = grid.dim
    # trace D^2 u0 = n g^{1/n}: equality when D^2 u0 is a multiple of I.
    rhs = n * g.interior ** (1.0 / n)
    u_int = _linear_solve(grid, _identity_coeffs(grid), rhs, phi_b, lin_opts)
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


def solve_ma(grid: Grid, g: ScalarField, phi_b, opts: MAOptions = None,
             lin_opts: LinSolveOptions = None,
             initial: ScalarField = None) -> ScalarField:
    """Solve det D^2 u = g, u = phi_b on the boundary, u discretely convex.

    `initial` warm-starts Newton; it must carry the same boundary values.
    """
    opts = opts or MAOptions()
    lin_opts = lin_opts or LinSolveOptions()
    _check_g(g)
    phi_b = np.asarray(phi_b, dtype=float) * np.ones(grid.n_boundary)

    if grid.dim == 1:
        # det D^2 u is linear in u: one solve, no Newton.
        u_int = _linear_solve(grid, _identity_coeffs(grid), g.interior,
                              phi_b, lin_opts)
        return ScalarField(grid, np.concatenate([u_int, phi_b]))

    if initial is not None:
        u = initial.values.copy()
        u[grid.n_interior:] = phi_b
        H, dets = _interior_det(grid, u)
        if not np.all(is_positive_definite(H)):
            u = _initial_guess(grid, g, phi_b, lin_opts)
    else:
        u = _initial_guess(grid, g, phi_b, lin_opts)

    trace = []
    # The convergence test scales with the data: the discrete determinant
    # carries rounding noise proportional to its own size, so an absolute
    # sup-norm target is unreachable when g is large.
    tol = opts.newton_tol * max(1.0, float(np.max(np.abs(g.interior))))
    H, dets = _interior_det(grid, u)
    res = dets - g.interior
    res_norm = float(np.max(np.abs(res)))
    for it in range(opts.max_newton_iters):
        trace.append({"iter": it, "residual": res_norm})
        if res_norm <= tol:
            return ScalarField(grid, u)
        U = cofactor(H, grid)
        A, _ = assemble_operator(grid, U)
        step = solve_system(A, -res, lin_opts)

        s = 1.0
        while True:
            u_try = u.copy()
            u_try[: grid.n_interior] += s * step
            H_try, dets_try = _interior_det(grid, u_try)
            res_try = dets_try - g.interior
            norm_try = float(np.max(np.abs(res_try)))
            convex = bool(np.all(is_positive_definite(H_try)))
            if convex and norm_try < res_norm:
                break
            s *= 0.5
            if s < opts.damping_min:
                trace.append({"iter": it + 1, "residual": norm_try,
                              "damping": s, "convex": convex})
                if not convex:
                    raise ConvexityLossError(
                        "damping cannot restore discrete convexity",
                        trace=trace)
                raise NewtonDivergenceError(
                    "line search stalled before residual decrease",
                    trace=trace)
        u, H, res, res_norm = u_try, H_try, res_try, norm_try

    trace.append({"iter": opts.max_newton_iters, "residual": res_norm})
    raise NewtonDivergenceError(
        f"no convergence in {opts.max_newton_iters} Newton iterations "
        f"(residual {res_norm:.3e})", trace=trace)


def ma_residual(grid: Grid, u: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise det D^2 u - g at interior nodes (boundary rows zero)."""
    _, dets = _interior_det(grid, u.values)
    r = dets - g.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
