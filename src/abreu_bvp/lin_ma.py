"""Nondivergence-form elliptic solves: a^{ij} w_{ij} = f with Dirichlet data.

The coefficient field is a symmetric positive definite MatrixField (in
practice the cofactor matrix of a convex iterate).  The discretization is
central differences, with the mixed derivative taken from the two diagonal
directional second derivatives; the resulting nonsymmetric sparse system is
solved by a direct sparse factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import EllipticityError, SingularSystemError
from .mesh import Grid, MatrixField, ScalarField, is_positive_definite


@dataclass(frozen=True)
class LinSolveOptions:
    linear_tol: float = 1e-9

    def __post_init__(self):
        if self.linear_tol <= 0.0:
            raise ValueError("linear_tol must be positive")


def assemble_operator(grid: Grid, U: MatrixField):
    """Sparse form of w |-> U^{ij} w_{ij} at interior nodes.

    Returns (A, B) with the operator equal to A @ w_interior + B @ w_boundary.
    Also the exact Jacobian of u |-> det of the discrete Hessian, since
    delta(det H) = U^{ij} delta H_{ij}.
    """
    ops = grid.second_ops
    d = U.data
    if grid.dim == 1:
        a = sp.diags(d[:, 0, 0])
        return (a @ ops[0][0]).tocsr(), (a @ ops[0][1]).tocsr()
    cxx = sp.diags(d[:, 0, 0])
    cyy = sp.diags(d[:, 1, 1])
    # 2 u_xy = (u_pp - u_mm) * ell^2 / (2 hx hy) with the diagonal stencils.
    ell2 = grid.hx**2 + grid.hy**2
    cxy = sp.diags(d[:, 0, 1] * ell2 / (2.0 * grid.hx * grid.hy))
    A = cxx @ ops[0][0] + cyy @ ops[1][0] + cxy @ (ops[2][0] - ops[3][0])
    B = cxx @ ops[0][1] + cyy @ ops[1][1] + cxy @ (ops[2][1] - ops[3][1])
    return A.tocsr(), B.tocsr()


def _condition_estimate(A):
    if A.shape[0] <= 600:
        try:
            return float(np.linalg.cond(A.toarray()))
        except np.linalg.LinAlgError:
            return None
    return None


def solve_system(A, rhs, opts: LinSolveOptions):
    """Solve the assembled interior system, with residual verification."""
    try:
        x = spla.spsolve(A.tocsc(), rhs)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse factorization failed: {exc}",
            condition_estimate=_condition_estimate(A)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "singular system: solution contains non-finite entries",
            condition_estimate=_condition_estimate(A))
    scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    if scale > 0.0:
        resid = float(np.max(np.abs(A @ x - rhs)))
        if resid > opts.linear_tol * scale:
            raise SingularSystemError(
                f"relative residual {resid / scale:.3e} exceeds linear_tol",
                condition_estimate=_condition_estimate(A))
    return x


def solve_linearized(grid: Grid, U: MatrixField, f: ScalarField, w_b,
                     opts: LinSolveOptions = None) -> ScalarField:
    """Solve U^{ij} w_{ij} = f on the interior with w = w_b on the boundary."""
    opts = opts or LinSolveOptions()
    if not np.all(is_positive_definite(U)):
        raise EllipticityError("coefficient matrix not positive definite "
                               "at every interior node")
    w_b = np.asarray(w_b, dtype=float) * np.ones(grid.n_boundary)
    A, B = assemble_operator(grid, U)
    rhs = f.interior - B @ w_b
    w_int = solve_system(A, rhs, opts)
    return ScalarField(grid, np.concatenate([w_int, w_b]))


def linearized_residual(grid: Grid, U: MatrixField, w: ScalarField,
                        f: ScalarField) -> ScalarField:
    """Pointwise U^{ij} w_{ij} - f at interior nodes (boundary rows zero)."""
    A, B = assemble_operator(grid, U)
    r = A @ w.interior + B @ w.boundary - f.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
