"""Nondivergence-form elliptic solves: a^{ij} w_{ij} = f with Dirichlet data.

The coefficient field is a symmetric positive definite MatrixField (in
practice the cofactor matrix of a convex iterate).  The discretization is
central differences, with the mixed derivative taken from the two diagonal
directional second derivatives; the resulting nonsymmetric sparse system is
solved by a direct sparse factorization.

`stencil_weights` is the one place the coefficients meet the stencil.
`apply_weights` sums the weighted stencil values without building a
matrix.  Every sparsity pattern on the stencil lives here and is built
once per grid, on first use (`Grid.cached`): `assemble_operator` fills the
interior and boundary CSR patterns, and `factorize_coupled` the CSC pattern
of the coupled (u, log w) Newton Jacobian on a 2-d grid.  The matrices own
copies of those index arrays; exact zeros are dropped only where present.

`factorize` is the package's one SuperLU call: the Newton solves reuse its
LU across a line search and across chord steps, and every solve through it
is checked for a finite solution and a relative residual within
LINEAR_TOL, one constant for every caller.  On
a 2-d grid every caller passes the grid's nested-dissection order
(`Grid.nd_order`, interleaved per node for the coupled system), which
leaves 30-50 % less LU fill than COLAMD, SuperLU's default, on the 9-point
stencil; intervals keep COLAMD on their tridiagonal systems.
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
    c = U.data.reshape(n, -1) @ ops.to_hessian.T
    w = ops.weights
    data = np.empty(ops.cols.shape)
    data[:, 0] = np.einsum("na,na->n", c, w[..., 0])
    np.multiply(c, w[..., 1], out=data[:, 1::2])
    np.multiply(c, w[..., 2], out=data[:, 2::2])
    return data


def _on_pattern(matrix, data, indptr, indices, shape, keep):
    """matrix((data, indices, indptr)) on a shared pattern, for matrix
    sp.csr_matrix or sp.csc_matrix, owning copies of its index arrays.

    The entries where `keep` is False are left out, and only then is the
    pattern compacted.
    """
    if keep.all():
        indptr, indices = indptr.copy(), indices.copy()
    else:
        at = np.zeros(keep.size + 1, dtype=indptr.dtype)
        np.cumsum(keep, out=at[1:])
        indptr, indices, data = at[indptr], indices[keep], data[keep]
    return matrix((data, indices, indptr), shape=shape)


def assemble_operator(grid: Grid, U: MatrixField):
    """Sparse form of w |-> U^{ij} w_{ij} at interior nodes.

    Returns (A, B) with the operator equal to A @ w_interior + B @ w_boundary.
    Also the exact Jacobian of u |-> det of the discrete Hessian, since
    delta(det H) = U^{ij} delta H_{ij}.  The `stencil_weights` fill the
    grid's interior and boundary CSR patterns, which are split from
    `second_ops.cols` once per grid (`Grid.cached`).  Each matrix owns
    copies of its index arrays, so scipy may sort or compact it in place
    without touching the shared patterns.  Entries that are exactly zero
    (the diagonal arms when U^{xy} = 0) are dropped, and the patterns are
    compacted only when one is present.
    """
    split = grid.cached(_operator_split)
    data = stencil_weights(grid, U)
    n = grid.n_interior
    a, b = data[split.interior], data[~split.interior]
    return (_on_pattern(sp.csr_matrix, a, split.a_indptr, split.a_indices,
                        (n, n), a != 0.0),
            _on_pattern(sp.csr_matrix, b, split.b_indptr, split.b_indices,
                        (n, grid.n_boundary), b != 0.0))


def apply_operator(grid: Grid, U: MatrixField, v) -> np.ndarray:
    """U^{ij} v_{ij} at interior nodes, from node values v, with no matrix.

    `apply_weights` with the `stencil_weights` of U: for finite v, bitwise
    equal to A @ v[:n] + B @ v[n:] with (A, B) from `assemble_operator`.
    """
    return apply_weights(grid, stencil_weights(grid, U), v)


def apply_weights(grid: Grid, weights, v) -> np.ndarray:
    """The operator with the given `stencil_weights`, applied to node values v.

    Each row's interior products are summed in stencil order, then its
    boundary products, and the two sums added: the same operations as the
    sparse product with the matrices that `assemble_operator` fills with
    these weights.
    """
    split = grid.cached(_operator_split)
    terms = weights * np.asarray(v)[grid.second_ops.cols]
    sums = []
    for part in (np.where(split.interior, terms, 0.0),
                 np.where(split.interior, 0.0, terms)):
        total = np.zeros(grid.n_interior)
        for column in part.T:
            total += column
        sums.append(total)
    return sums[0] + sums[1]


class _CoupledPattern(NamedTuple):
    """The CSC pattern of a grid's coupled Jacobian, built once.

    `take` gathers the stored values, in CSC order, from the flat
    concatenation (u-weights, d, c-weights, u-weights times w) of the
    four blocks' data; `order` is the grid's nested-dissection order with
    each node's two unknowns side by side.
    """

    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray
    order: np.ndarray


def _coupled_pattern(grid: Grid) -> _CoupledPattern:
    """[[A, diag(d)], [C, A diag(w)]] on the interior pattern of A, as CSC.

    2-d grids only.  Each block holds, as its values, the positions of its
    entries in the concatenated data plus 1, so that no position is an
    explicit zero; one `sp.bmat` lays the blocks out in CSC, and its
    values less 1 are `take`.
    """
    split = grid.cached(_operator_split)
    n = grid.n_interior
    size = split.interior.size  # the length of one flattened weights array
    at = np.flatnonzero(split.interior) + 1
    rows = np.arange(n)

    def block(values, indices=split.a_indices, indptr=split.a_indptr):
        return sp.csr_matrix((values, indices, indptr), shape=(n, n))

    J = sp.bmat([[block(at), block(size + 1 + rows, rows, np.arange(n + 1))],
                 [block(size + n + at), block(2 * size + n + at)]],
                format="csc")
    p = grid.nd_order
    pattern = _CoupledPattern(J.indptr.astype(np.int32),
                              J.indices.astype(np.int32), J.data - 1,
                              np.column_stack([p, p + n]).ravel())
    for arr in pattern:
        arr.setflags(write=False)  # shared by every Jacobian on the grid
    return pattern


def _coupled_jacobian(grid: Grid, a_weights, d, c_weights, w):
    """[[A, diag(d)], [C, A diag(w)]] in CSC form, for the factorization.

    A and C are the interior blocks of the operators with the
    `stencil_weights` a_weights and c_weights, and w holds node values: the
    lower-right block is A with each column scaled by w at its node, the
    u-weights times w on the stencil columns.  One gather fills the grid's
    cached pattern.  Entries of the three stencil blocks that are exactly
    zero are dropped, as `assemble_operator` drops them, and the pattern
    is compacted only when one is present; d is stored as given.  The
    matrix owns copies of its index arrays.
    """
    pattern = grid.cached(_coupled_pattern)
    n = grid.n_interior
    values = np.concatenate([
        a_weights.ravel(), d, c_weights.ravel(),
        (a_weights * np.asarray(w)[grid.second_ops.cols]).ravel()])
    keep = values != 0.0
    keep[a_weights.size:a_weights.size + n] = True  # d is stored as given
    return _on_pattern(sp.csc_matrix, values[pattern.take], pattern.indptr,
                       pattern.indices, (2 * n, 2 * n), keep[pattern.take])


def factorize_coupled(grid: Grid, a_weights, d, c_weights, w):
    """The checked solve of the coupled Jacobian of `_coupled_jacobian`.

    A and C are the operators with the `stencil_weights` a_weights and
    c_weights, and w holds node values (`_coupled_jacobian`).  The matrix
    fills the grid's cached CSC pattern and is factorized in its cached
    order, the nested-dissection order with each node's two unknowns side
    by side.
    """
    return factorize(_coupled_jacobian(grid, a_weights, d, c_weights, w),
                     grid.cached(_coupled_pattern).order)


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
    r = apply_operator(grid, U, w.values) - f.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
