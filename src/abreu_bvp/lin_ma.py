"""Nondivergence-form elliptic solves: a^{ij} w_{ij} = f with Dirichlet data.

The coefficient field is a symmetric positive definite MatrixField (in
practice the cofactor matrix of a convex iterate).  The discretization is
central differences, with the mixed derivative taken from the two diagonal
directional second derivatives; the resulting nonsymmetric sparse system is
solved by a direct sparse factorization.  `factorize` is the package's one
SuperLU call: the Newton solves reuse its LU across a line search and across
chord steps, and every solve through it is checked for a finite solution and
a relative residual within LINEAR_TOL, one constant for every caller.  On
a 2-d grid every caller passes the grid's nested-dissection order
(`Grid.nd_order`, interleaved per node for the coupled (u, w) system), which
leaves 30-50 % less LU fill than COLAMD, SuperLU's default, on the 9-point
stencil; intervals keep COLAMD on their tridiagonal systems.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import EllipticityError, SingularSystemError
from .mesh import Grid, MatrixField, ScalarField, is_positive_definite


# A checked solve fails when max|A x - rhs| exceeds this times max|rhs|.
LINEAR_TOL = 1e-9


def assemble_operator(grid: Grid, U: MatrixField):
    """Sparse form of w |-> U^{ij} w_{ij} at interior nodes.

    Returns (A, B) with the operator equal to A @ w_interior + B @ w_boundary.
    Also the exact Jacobian of u |-> det of the discrete Hessian, since
    delta(det H) = U^{ij} delta H_{ij}.  Each axis of `grid.second_ops` is
    weighted by its coefficient U : to_hessian[a], and the weighted stencils
    fill one CSR matrix on the grid's fixed pattern.  Entries that cancel
    (the diagonal arms when U^{xy} = 0) are dropped before the split into
    interior and boundary columns.
    """
    ops = grid.second_ops
    n = grid.n_interior
    c = U.data.reshape(n, -1) @ ops.to_hessian.T
    w = ops.weights
    data = np.empty(ops.cols.shape)
    data[:, 0] = np.einsum("na,na->n", c, w[..., 0])
    np.multiply(c, w[..., 1], out=data[:, 1::2])
    np.multiply(c, w[..., 2], out=data[:, 2::2])
    M = sp.csr_matrix((data.ravel(), ops.cols.ravel(), ops.indptr),
                      shape=(n, grid.n_nodes), copy=True)
    M.eliminate_zeros()
    return M[:, :n], M[:, n:]


def factorize(A, order=None):
    """Sparse LU of A; returns solve(rhs), which checks every solution.

    With `order` (a permutation, such as `Grid.nd_order`) the LU is of the
    symmetrically permuted A[order][:, order] with no column reordering of
    its own; without it SuperLU orders the columns by COLAMD.  Either way
    solve(rhs) answers for A itself: a solution must be finite with
    residual within LINEAR_TOL of max|rhs|, and a failed check, or a
    failed factorization, raises SingularSystemError.  The LU lives as
    long as the returned function.
    """
    try:
        if order is None:
            lu = spla.splu(A.tocsc())
        else:
            lu = spla.splu(A.tocsc()[order][:, order], permc_spec="NATURAL")
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse factorization failed: {exc}") from exc

    def solve(rhs):
        if order is None:
            x = lu.solve(rhs)
        else:
            x = np.empty_like(rhs)
            x[order] = lu.solve(rhs[order])
        if not np.all(np.isfinite(x)):
            raise SingularSystemError(
                "singular system: solution contains non-finite entries")
        scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        if scale > 0.0:
            resid = float(np.max(np.abs(A @ x - rhs)))
            if resid > LINEAR_TOL * scale:
                raise SingularSystemError(
                    f"relative residual {resid / scale:.3e} exceeds "
                    "linear_tol")
        return x
    return solve


def solve_system(A, rhs, order=None):
    """Solve the assembled interior system once, with residual verification."""
    return factorize(A, order)(rhs)


def solve_linearized(grid: Grid, U: MatrixField, f: ScalarField,
                     w_b) -> ScalarField:
    """Solve U^{ij} w_{ij} = f on the interior with w = w_b on the boundary."""
    if not np.all(is_positive_definite(U)):
        raise EllipticityError("coefficient matrix not positive definite "
                               "at every interior node")
    w_b = np.asarray(w_b, dtype=float) * np.ones(grid.n_boundary)
    A, B = assemble_operator(grid, U)
    rhs = f.interior - B @ w_b
    w_int = solve_system(A, rhs, grid.nd_order)
    return ScalarField(grid, np.concatenate([w_int, w_b]))


def linearized_residual(grid: Grid, U: MatrixField, w: ScalarField,
                        f: ScalarField) -> ScalarField:
    """Pointwise U^{ij} w_{ij} - f at interior nodes (boundary rows zero)."""
    A, B = assemble_operator(grid, U)
    r = A @ w.interior + B @ w.boundary - f.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
