"""Newton continuation for the second boundary value problem.

The fourth-order equation is solved as the coupled second-order system

    det D^2 u = Theta(w),    U^{ij} w_{ij} = t f,

with u = phi and w = t psi + (1 - t) on the boundary, where U is the
cofactor matrix of D^2 u and Theta inverts G'.  At t = 0 the solution is
w = 1 (or a given initial w0) with u from one Monge-Ampere solve.  t is
then driven to 1 in t_steps equal steps; each step is a Newton solve of the
coupled system on the stacked (u, w) unknowns, started from the previous
step's solution, by the package's one damped Newton
(`ma_dirichlet.damped_newton`).  A failed step is retried at half the size,
within a budget of max_step_halvings halvings for the whole run.  Newton
keeps w > 0.  A failed step shows the floor (floor_hit) when its last iterate
has min w below w_floor, or when the w-equation solved alone on its last
u would; if the halving budget runs out on such a step, the run reports
suspected nonexistence (WFloorError).

phi_map, one sweep of the splitting (a Monge-Ampere solve, then the linear
solve in cofactor form), is kept as an independent fixed-point check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .estimates import DiagnosticsReport, standard_diagnostics
from .exceptions import ContinuationError, SingularSystemError, WFloorError
from .functionals import el_residual
from .gfamily import invert_w
from .lin_ma import (assemble_operator, factorize, solve_linearized,
                     solve_system)
from .ma_dirichlet import MAOptions, damped_newton, solve_ma
from .mesh import (ScalarField, cofactor, det_field, hessian,
                   is_positive_definite, sym_det)
from .problem import Problem


@dataclass(frozen=True)
class ContinuationOptions:
    t_steps: int = 10
    w_floor: float = 1e-6
    max_step_halvings: int = 6
    ma: MAOptions = field(default_factory=MAOptions)

    def __post_init__(self):
        if self.t_steps < 1:
            raise ValueError("t_steps must be >= 1")
        if self.w_floor <= 0.0:
            raise ValueError("w_floor must be positive")
        if self.max_step_halvings < 0:
            raise ValueError("max_step_halvings must be >= 0")


@dataclass
class Solution:
    u: ScalarField
    w: ScalarField
    d: ScalarField
    el_residual_norm: float
    iterations: list
    diagnostics: DiagnosticsReport


def phi_map(w: ScalarField, t: float, problem: Problem,
            opts: ContinuationOptions = None, u_init: ScalarField = None):
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
    u = solve_ma(grid, g, problem.phi, opts.ma, initial=u_init)
    U = cofactor(hessian(u, grid), grid)
    f_t = ScalarField(grid, t * problem.f.values)
    w_tb = t * problem.psi + (1.0 - t)
    w_t = solve_linearized(grid, U, f_t, w_tb)
    return w_t, u


_NEWTON_TOL = 1e-11       # scaled coupled residual that ends a step
_NEWTON_ACCEPT = 1e-8     # still converged if the line search stalls here
_NEWTON_MAX_ITERS = 30


def _coupled_jacobian(A, d, C=None):
    """[[A, diag(d)], [C, A]] for n x n CSR blocks A and C, in CSC form.

    C = None is a zero block.  Row i holds A's row i, then d[i]; row n + i
    holds C's row i, then A's row i shifted by n columns.  Each block's
    entries go straight to their places in the stacked CSR arrays.  The
    result is converted here to the factorization's CSC form, so that the
    checked solve, which keeps its matrix, holds no second copy.
    """
    n = A.shape[0]
    a_ptr = A.indptr
    c_ptr = np.zeros(n + 1, dtype=a_ptr.dtype) if C is None else C.indptr
    nnz_a, nnz_c = int(a_ptr[-1]), int(c_ptr[-1])
    rows = np.arange(n)
    a_at = np.arange(nnz_a)
    a_row = np.repeat(rows, np.diff(a_ptr))
    bottom = nnz_a + n  # where row n starts
    indptr = np.concatenate([a_ptr + np.arange(n + 1),
                             bottom + a_ptr[1:] + c_ptr[1:]])
    indices = np.empty(bottom + nnz_c + nnz_a, dtype=A.indices.dtype)
    data = np.empty(indices.size)
    at = a_at + a_row  # A in the top rows
    indices[at], data[at] = A.indices, A.data
    at = a_ptr[1:] + rows  # the diagonal block
    indices[at], data[at] = rows + n, d
    at = bottom + a_at + c_ptr[1:][a_row]  # A, bottom right
    indices[at], data[at] = A.indices + n, A.data
    if C is not None:
        at = bottom + np.arange(nnz_c) + a_ptr[np.repeat(rows, np.diff(c_ptr))]
        indices[at], data[at] = C.indices, C.data
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(2 * n, 2 * n)).tocsc()


def _newton_step(uv, wv, t, problem, opts):
    """Newton on the coupled system at parameter t, from node values (uv, wv).

    The unknowns are the interior values of u and w, stacked.  The Jacobian
    is exact: the determinant block assembles with cofactor coefficients of
    D²u, and in two dimensions the cofactor pairing is symmetric
    (cof(A):B = cof(B):A), so the derivative of U^{ij}w_{ij} in u
    assembles with cofactor coefficients built from D²w.  `damped_newton`
    runs the iteration; its steps are cut short so that w stays positive.

    Returns the final (uv, wv) and the step's outcome for the trace: its
    Newton iterations (chord steps included), factorizations, final scaled
    residual, min w, and whether it converged or hit the floor.
    """
    grid = problem.grid
    n = grid.n_interior
    gspec = problem.gspec
    f_int = t * problem.f.interior
    ub = uv[n:]
    wb = t * problem.psi + (1.0 - t)
    s2 = max(1.0, float(np.max(np.abs(f_int))))

    def residual(x):
        Hu = hessian(ScalarField(grid, np.concatenate([x[:n], ub])), grid)
        theta = invert_w(gspec, x[n:])
        A_w, B_w = assemble_operator(grid, cofactor(Hu, grid))
        F = np.concatenate([sym_det(Hu.data) - theta,
                            A_w @ x[n:] + B_w @ wb - f_int])
        s1 = max(1.0, float(np.max(theta)))
        r = max(float(np.max(np.abs(F[:n]))) / s1,
                float(np.max(np.abs(F[n:]))) / s2)
        return r, F, (Hu, A_w, theta)

    # the grid's order with each node's u and w unknowns side by side
    p = grid.nd_order
    order = None if p is None else np.column_stack([p, p + n]).ravel()

    def jacobian(x, state):
        # A_w, the operator with cofactor coefficients of D²u, is also the
        # derivative of det D²u.
        _, A_w, theta = state
        d_theta = theta / (gspec.theta - 1.0) / x[n:]
        C_wu = None  # in one dimension the cofactor is constant
        if grid.dim == 2:
            Hw = hessian(ScalarField(grid, np.concatenate([x[n:], wb])), grid)
            C_wu = assemble_operator(grid, cofactor(Hw, grid))[0]
        return factorize(_coupled_jacobian(A_w, -d_theta, C_wu), order)

    def cap(x, step):
        # fraction-to-boundary: keep w positive along the step
        neg = step[n:] < 0.0
        return min(1.0, 0.995 * float(np.min(x[n:][neg] / -step[n:][neg],
                                             initial=np.inf)))

    x = np.concatenate([uv[:n], wv[:n]])
    x, r, F, (Hu, A_w, _), steps, factorizations, exc = damped_newton(
        x, residual, jacobian, _NEWTON_TOL, _NEWTON_MAX_ITERS, cap)
    error = (f"singular coupled Jacobian: {exc}"
             if isinstance(exc, SingularSystemError) else None)
    uv = np.concatenate([x[:n], ub])
    wv = np.concatenate([x[n:], wb])
    w_min = float(np.min(wv))
    convex = bool(np.all(is_positive_definite(Hu)))
    floor_hit = w_min < opts.w_floor
    if error is None and r > _NEWTON_ACCEPT:
        error = f"coupled Newton stalled with scaled residual {r:.3e}"
    if error is None and floor_hit:
        error = f"Newton point has min w = {w_min:.3e} below the floor"
    if error is None and not convex:
        error = "coupled Newton left a nonconvex iterate"
    if error is not None and not floor_hit and convex:
        # Floor evidence from the w-equation alone on the last u.  Unlike
        # the coupled step's w-part, its solution stays above the boundary
        # data where t f <= 0 (maximum principle), so a step that is merely
        # too long for Newton is not taken for nonexistence.
        try:
            w_alone = wv[:n] - solve_system(A_w, F[n:], p)
            floor_hit = float(np.min(w_alone)) < opts.w_floor
        except SingularSystemError:
            pass  # no evidence either way
    outcome = {"iterations": steps, "factorizations": factorizations,
               "residual": r, "w_min": w_min,
               "converged": error is None,
               "floor_hit": error is not None and floor_hit}
    if error is not None:
        outcome["error"] = error
    return uv, wv, outcome


def solve_second_bvp(problem: Problem, opts: ContinuationOptions = None,
                     w0: ScalarField = None) -> Solution:
    """Drive t from 0 to 1 and return the converged solution fields.

    w0 optionally replaces the default initial iterate w = 1 (the solution
    at t = 0).
    """
    opts = opts or ContinuationOptions()
    grid = problem.grid
    if w0 is None:
        w0 = ScalarField.constant(grid, 1.0)
    else:
        if w0.grid is not grid:
            raise ValueError("w0 lives on a different grid")
        if float(np.min(w0.values)) < opts.w_floor:
            raise ValueError("w0 must be >= w_floor everywhere")
    g = ScalarField(grid, invert_w(problem.gspec, w0.values))
    uv = solve_ma(grid, g, problem.phi, opts.ma).values
    wv = w0.values

    trace = []
    t_reached = 0.0
    dt = 1.0 / opts.t_steps
    halvings = 0
    while t_reached < 1.0:
        t_try = min(1.0, t_reached + dt)
        if 1.0 - t_try < 1e-12:  # don't let roundoff add an extra step
            t_try = 1.0
        u_new, w_new, outcome = _newton_step(uv, wv, t_try, problem, opts)
        trace.append({"t": t_try, "dt": dt, **outcome})
        if outcome["converged"]:
            uv, wv = u_new, w_new
            t_reached = t_try
            continue
        halvings += 1
        if halvings > opts.max_step_halvings:
            if outcome["floor_hit"]:
                raise WFloorError(
                    f"w-floor breach persisting at t = {t_try:.6g}: "
                    "suspected nonexistence",
                    last_good_t=t_reached, w_min=outcome["w_min"],
                    trace=trace)
            raise ContinuationError(
                f"no convergence at t = {t_try:.6g} after "
                f"{opts.max_step_halvings} step halvings "
                f"({outcome['error']})",
                last_good_t=t_reached, trace=trace)
        dt *= 0.5

    u = ScalarField(grid, uv)
    w = ScalarField(grid, wv)
    d = det_field(hessian(u, grid), grid)
    residual = el_residual(u, problem)
    el_norm = float(np.max(np.abs(residual.interior)))
    diagnostics = standard_diagnostics(u, w, d, problem.f, grid,
                                       problem.gspec, problem.phi)
    return Solution(u=u, w=w, d=d, el_residual_norm=el_norm,
                    iterations=trace, diagnostics=diagnostics)
