"""Nondivergence-form elliptic solves: a^{ij} w_{ij} = f with Dirichlet data.

The coefficient field is a symmetric positive definite MatrixField (in
practice the cofactor matrix of a convex iterate).  The discretization is
central differences, with the mixed derivative taken from the two diagonal
directional second derivatives; the resulting nonsymmetric sparse system is
solved by a direct sparse factorization.

`stencil_weights` is the one place the coefficients meet the stencil.
`apply_weights` sums the weighted stencil values without building a
matrix; it equals the assembled product up to rounding.  Every sparsity
pattern on the stencil lives here and is built once per grid, on first
use (`Grid.cached`): `assemble_operator` fills the interior and boundary
CSR patterns, and `factorize_coupled` the CSC pattern of the coupled
(u, log w) Newton Jacobian on a 2-d grid, held in the order it is
factorized in.  The matrices own
copies of those index arrays, and scipy's `eliminate_zeros` drops their
exact zeros.

`factorize` is the package's one SuperLU call: the Newton solves reuse its
LU across a line search and across chord steps, and every solve through it
is checked for a finite solution and a relative residual within
LINEAR_TOL, one constant for every caller; a solve that fails the
residual check takes a few steps of iterative refinement with the same LU
before it raises.  Every LU keeps a column order the package chose, with
no column ordering of SuperLU's own: on a 2-d grid every caller passes the
grid's nested-dissection order (`Grid.nd_order`, interleaved per node for
the coupled system), which leaves 30-50 % less LU fill than COLAMD,
SuperLU's default, on the 9-point stencil; an interval's lattice order is
tridiagonal and has no fill.  The pivots are static: SuperLU keeps every
nonzero diagonal entry as its pivot and exchanges a row only where the
diagonal is exactly zero, so the rows stay in the order the columns were
given and the nested-dissection fill holds.  A small pivot that costs
accuracy is caught by the residual check, and the refinement recovers it
or the solve raises (static pivoting with iterative refinement, Li and
Demmel, SuperLU_DIST, ACM TOMS 29(2), 2003).  SuperLU's default partial
pivoting exchanges rows wherever a diagonal entry is not the largest in
its column, and in a hard case that can triple the fill of the LUs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import EllipticityError, SingularSystemError
from .mesh import Grid, MatrixField, ScalarField, is_positive_definite


# A checked solve fails when max|A x - rhs| exceeds this times max|rhs|.
LINEAR_TOL = 1e-9
# Steps of iterative refinement with the live LU that a solve failing that
# check takes before it raises (Skeel 1980; Higham, Accuracy and Stability
# of Numerical Algorithms, ch. 12).
_REFINEMENT_STEPS = 3


class _OperatorSplit(NamedTuple):
    """The interior/boundary column split of a grid's stencil, built once.

    `interior[n, j]` says whether column j of `second_ops.cols` row n is an
    interior node.  (a_indptr, a_indices) and (b_indptr, b_indices) are the
    CSR patterns of the interior block A and the boundary block B with
    every stencil entry, in stencil order within each row; b_indices count
    boundary nodes from 0.
    """

    interior: np.ndarray
    a_indptr: np.ndarray
    a_indices: np.ndarray
    b_indptr: np.ndarray
    b_indices: np.ndarray


def _operator_split(grid: Grid) -> _OperatorSplit:
    cols = grid.second_ops.cols
    n = grid.n_interior
    interior = cols < n

    def indptr(mask):
        ptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(mask.sum(axis=1), out=ptr[1:])
        return ptr

    split = _OperatorSplit(
        interior, indptr(interior), cols[interior].astype(np.int32),
        indptr(~interior), (cols[~interior] - n).astype(np.int32))
    for arr in split:
        arr.setflags(write=False)  # shared by every operator on the grid
    return split


def stencil_weights(grid: Grid, U: MatrixField) -> np.ndarray:
    """Weights of w |-> U^{ij} w_{ij} on the stencil columns, per row.

    Entry [n, j] multiplies the value at node `grid.second_ops.cols[n, j]`.
    Each axis of `second_ops` is weighted by its coefficient
    U : to_hessian[a]; the center's weight is the sum over the axes.
    """
    ops = grid.second_ops
    n = grid.n_interior
    # A C-ordered copy of the small transpose: numpy's matmul of a long
    # C-ordered U by an F-ordered view leaves its fast path (the product is
    # the same bits either way).
    c = U.data.reshape(n, -1) @ np.ascontiguousarray(ops.to_hessian.T)
    w = ops.weights
    data = np.empty(ops.cols.shape)
    data[:, 0] = np.einsum("na,na->n", c, w[..., 0])
    np.multiply(c, w[..., 1], out=data[:, 1::2])
    np.multiply(c, w[..., 2], out=data[:, 2::2])
    return data


def _on_pattern(matrix, data, indptr, indices, shape):
    """matrix((data, indices, indptr)) on a shared pattern, for matrix
    sp.csr_matrix or sp.csc_matrix, owning copies of its index arrays and
    with its exact zeros dropped by scipy's `eliminate_zeros`."""
    out = matrix((data, indices.copy(), indptr.copy()), shape=shape)
    out.eliminate_zeros()
    return out


def assemble_operator(grid: Grid, U: MatrixField):
    """Sparse form of w |-> U^{ij} w_{ij} at interior nodes.

    Returns (A, B) with the operator equal to A @ w_interior + B @ w_boundary.
    Also the exact Jacobian of u |-> det of the discrete Hessian, since
    delta(det H) = U^{ij} delta H_{ij}.  The `stencil_weights` fill the
    grid's interior and boundary CSR patterns, which are split from
    `second_ops.cols` once per grid (`Grid.cached`).  Each matrix owns
    copies of its index arrays, so scipy may sort or compact it in place
    without touching the shared patterns; scipy drops the entries that are
    exactly zero (the diagonal arms when U^{xy} = 0).
    """
    split = grid.cached(_operator_split)
    data = stencil_weights(grid, U)
    n = grid.n_interior
    return (_on_pattern(sp.csr_matrix, data[split.interior], split.a_indptr,
                        split.a_indices, (n, n)),
            _on_pattern(sp.csr_matrix, data[~split.interior], split.b_indptr,
                        split.b_indices, (n, grid.n_boundary)))


def apply_operator(grid: Grid, U: MatrixField, v) -> np.ndarray:
    """U^{ij} v_{ij} at interior nodes, from node values v, with no matrix.

    `apply_weights` with the `stencil_weights` of U: for finite v, equal up
    to rounding to A @ v[:n] + B @ v[n:] with (A, B) from
    `assemble_operator`.
    """
    return apply_weights(grid, stencil_weights(grid, U), v)


def apply_weights(grid: Grid, weights, v) -> np.ndarray:
    """The operator with the given `stencil_weights`, applied to node values v.

    One sum per row of the weighted stencil values: up to rounding, the
    sparse product with the matrices that `assemble_operator` fills with
    these weights.
    """
    return np.einsum("nk,nk->n", weights, np.asarray(v)[grid.second_ops.cols])


class _CoupledPattern(NamedTuple):
    """The CSC pattern of a grid's coupled Jacobian, in factor order.

    `order` is the grid's nested-dissection order with each node's two
    unknowns side by side: position 2k holds u and 2k + 1 holds log w at
    interior node `nd_order[k]`.  (indptr, indices) is the CSC pattern of
    J[order][:, order], with sorted row indices, and `take` gathers its
    stored values, in that CSC order, from the flat concatenation
    (u-weights, d, c-weights, u-weights times w) of the four blocks' data.
    """

    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray
    order: np.ndarray


def _coupled_pattern(grid: Grid) -> _CoupledPattern:
    """[[A, diag(d)], [C, A diag(w)]] on the interior pattern of A, permuted
    to factor order, as CSC.

    2-d grids only.  Built from A's pattern alone: A's entries are sorted
    once by (column, row) in nested-dissection positions.  An entry (i, j)
    of A puts rows 2i and 2i + 1 (from A and C) in column 2j, and row
    2i + 1 (from A diag(w)) in column 2j + 1; the one entry of diag(d) in
    column 2j + 1 is row 2j, just before A's diagonal entry.
    """
    split = grid.cached(_operator_split)
    n = grid.n_interior
    size = split.interior.size  # the length of one flattened weights array
    p = grid.nd_order
    pos = np.empty(n, dtype=np.int64)
    pos[p] = np.arange(n)
    # A's entries in nested-dissection positions, sorted by (column, row)
    rows = pos[np.repeat(np.arange(n), np.diff(split.a_indptr))]
    cols = pos[split.a_indices]
    e = np.argsort(cols * n + rows)
    rows, cols = rows[e], cols[e]
    at = np.flatnonzero(split.interior)[e]
    count = np.bincount(cols, minlength=n)  # entries per column of A
    above = np.bincount(cols[rows < cols], minlength=n)  # above its diagonal
    indptr = np.zeros(2 * n + 1, dtype=np.int64)
    indptr[1::2] = 2 * count
    indptr[2::2] = count + 1
    np.cumsum(indptr, out=indptr)
    # each entry's rank within its column of A
    rank = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    u_at = indptr[2 * cols] + 2 * rank         # column 2j: rows 2i, 2i + 1
    w_at = indptr[2 * cols + 1] + rank + (rank >= above[cols])
    d_at = indptr[1:-1:2] + above              # column 2j + 1: row 2j
    indices = np.empty(indptr[-1], dtype=np.int32)
    take = np.empty(indptr[-1], dtype=np.int64)
    indices[u_at], take[u_at] = 2 * rows, at
    indices[u_at + 1], take[u_at + 1] = 2 * rows + 1, size + n + at
    indices[w_at], take[w_at] = 2 * rows + 1, 2 * size + n + at
    indices[d_at], take[d_at] = 2 * np.arange(n), size + p
    pattern = _CoupledPattern(indptr.astype(np.int32), indices, take,
                              np.column_stack([p, p + n]).ravel())
    for arr in pattern:
        arr.setflags(write=False)  # shared by every Jacobian on the grid
    return pattern


def _coupled_jacobian(grid: Grid, a_weights, d, c_weights, w):
    """[[A, diag(d)], [C, A diag(w)]] in factor order and CSC form.

    A and C are the interior blocks of the operators with the
    `stencil_weights` a_weights and c_weights, and w holds node values: the
    lower-right block is A with each column scaled by w at its node, the
    u-weights times w on the stencil columns.  One gather fills the grid's
    cached pattern, so the matrix is J[order][:, order] for the pattern's
    `order`, as it is factorized, and scipy drops the exact zeros, as in
    `assemble_operator`; d = Theta/(1 - theta) > 0 has none.  The matrix
    owns copies of its index arrays.
    """
    pattern = grid.cached(_coupled_pattern)
    n = grid.n_interior
    values = np.concatenate([
        a_weights.ravel(), d, c_weights.ravel(),
        (a_weights * np.asarray(w)[grid.second_ops.cols]).ravel()])
    return _on_pattern(sp.csc_matrix, values[pattern.take], pattern.indptr,
                       pattern.indices, (2 * n, 2 * n))


def factorize_coupled(grid: Grid, a_weights, d, c_weights, w):
    """The checked solve of the coupled Jacobian of `_coupled_jacobian`.

    A and C are the operators with the `stencil_weights` a_weights and
    c_weights, and w holds node values (`_coupled_jacobian`).  The matrix
    fills the grid's cached CSC pattern, which is already in factor order
    (the nested-dissection order with each node's two unknowns side by
    side), so it goes to SuperLU with no permutation.  solve(rhs) takes
    and returns vectors in the natural order, u then log w.
    """
    return _factorize_ordered(
        _coupled_jacobian(grid, a_weights, d, c_weights, w),
        grid.cached(_coupled_pattern).order)


def factorize(A, order=None):
    """Sparse LU of A; returns solve(rhs), which checks every solution.

    With `order` (a permutation, such as `Grid.nd_order`) the LU is of the
    symmetrically permuted A[order][:, order]; without it, of A in its own
    order.  SuperLU reorders no columns (no COLAMD), and its pivots are
    static: every nonzero diagonal entry is the pivot of its column, and a
    row is exchanged only where the diagonal is exactly zero.  Either way
    solve(rhs) answers for A itself: a solution must be finite with
    residual within LINEAR_TOL of max|rhs|, which it meets in the permuted
    order, where the max norm is the same.  A solution that fails the
    residual check takes up to _REFINEMENT_STEPS steps of iterative
    refinement, x <- x + LU^{-1}(rhs - A x), each checked in turn; one
    that passes the first check is returned untouched.  So a small pivot
    gives a refined or a refused solution, never an unchecked one.  A
    check that no step passes, a non-finite solution, or a failed
    factorization raises SingularSystemError.  The LU, and the permuted
    matrix the checks use, live as long as the returned function.
    """
    P = A.tocsc() if order is None else A.tocsc()[order][:, order]
    return _factorize_ordered(P, order)


def _factorize_ordered(P, order):
    """`factorize` from P = A[order][:, order], already permuted (P = A
    when `order` is None); solve(rhs) takes and returns A's order."""
    try:
        lu = spla.splu(P, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse factorization failed: {exc}") from exc

    def solve(rhs):
        b = rhs if order is None else rhs[order]
        x = lu.solve(b)
        scale = float(np.max(np.abs(b))) if b.size else 0.0
        for refined in range(_REFINEMENT_STEPS + 1):
            if not np.all(np.isfinite(x)):
                raise SingularSystemError(
                    "singular system: solution contains non-finite entries")
            if scale == 0.0:
                break
            defect = b - P @ x
            resid = float(np.max(np.abs(defect)))
            if resid <= LINEAR_TOL * scale:
                break
            if refined < _REFINEMENT_STEPS:
                x = x + lu.solve(defect)
        else:
            raise SingularSystemError(
                f"relative residual {resid / scale:.3e} exceeds linear_tol")
        if order is None:
            return x
        out = np.empty_like(x)
        out[order] = x
        return out
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
    r = apply_operator(grid, U, w.values) - f.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
