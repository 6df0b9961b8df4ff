"""Nondivergence-form elliptic solves: a^{ij} w_{ij} = f with Dirichlet data.

The coefficient field is a symmetric positive definite MatrixField (in
practice the cofactor matrix of a convex iterate).  The discretization is
central differences, with the mixed derivative taken from the two diagonal
directional second derivatives; the resulting nonsymmetric sparse system is
solved by a direct sparse factorization.

`stencil_weights` is the one place the coefficients meet the stencil.
`apply_weights` sums the weighted stencil values without building a
matrix; it also carries the boundary columns, so no matrix holds them.
Every sparsity pattern on the stencil lives here and is built once per
grid, on first use (`Grid.cached`), in the order it is factorized in: the
CSC pattern of the interior operator A permuted by `Grid.nd_order`, which
`assemble_operator` fills, and, derived from it, that of the coupled
(u, log w) Newton Jacobian on a 2-d grid, which `factorize_coupled`
fills.  Each is listed entry by entry in factor positions and compressed
to CSC by scipy.  The matrices own copies of those index arrays, and
scipy's `eliminate_zeros` drops their exact zeros.

`factorize` is the package's one SuperLU call, and every matrix reaches
it already permuted: the Newton solves reuse its LU across a line search
and across chord steps, and every solve through it is checked for a
finite solution and a relative residual within LINEAR_TOL, one constant
for every caller; a solve that fails the residual check takes a few steps
of iterative refinement with the same LU before it raises.  Every LU keeps
the factor order its pattern was built in, with no column ordering of
SuperLU's own: on a 2-d grid the grid's nested-dissection order
(`Grid.nd_order`, interleaved per node for the coupled system), which
leaves 30-50 % less LU fill than COLAMD, SuperLU's default, on the
9-point stencil; on an interval `nd_order` is the lattice order, which is
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


class _Pattern(NamedTuple):
    """The CSC pattern of a sparse matrix on a grid, in factor order.

    (indptr, indices) is the CSC pattern of M[order][:, order], with
    sorted row indices, and `take` gathers its stored values, in that CSC
    order, from the flat data the matrix is filled from.  Built by
    `_compressed` from a list of entries.
    """

    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray
    order: np.ndarray


def _compressed(rows, cols, take, order) -> _Pattern:
    """The read-only pattern of the entries (rows[e], cols[e]) in factor
    positions, entry e gathered from the flat data at take[e].  scipy's
    COO-to-CSC conversion sorts them by (column, row) and would sum two in
    one position, so none share one; int32 inputs keep int32 arrays."""
    size = order.size
    m = sp.csc_matrix((take, (rows, cols)), shape=(size, size))
    pattern = _Pattern(m.indptr, m.indices, m.data, order)
    for arr in pattern:
        arr.setflags(write=False)  # shared by every matrix on the grid
    return pattern


def _operator_pattern(grid: Grid) -> _Pattern:
    """The pattern of the interior operator A, with order = `Grid.nd_order`:
    every stencil entry on an interior column, listed in factor
    positions and gathered from the flattened `stencil_weights`."""
    cols = grid.second_ops.cols
    n = grid.n_interior
    pos = np.empty(n, dtype=np.int32)
    pos[grid.nd_order] = np.arange(n, dtype=np.int32)
    at = np.flatnonzero(cols < n).astype(np.int32)  # interior entries, flat
    return _compressed(pos[at // cols.shape[1]], pos[cols.ravel()[at]], at,
                       grid.nd_order)


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


def _on_pattern(data, pattern, size):
    """The size x size CSC matrix with `data` on a shared pattern, owning
    copies of its index arrays and with its exact zeros dropped by scipy's
    `eliminate_zeros`."""
    out = sp.csc_matrix((data, pattern.indices.copy(), pattern.indptr.copy()),
                        shape=(size, size))
    out.eliminate_zeros()
    return out


def assemble_operator(grid: Grid, weights):
    """Sparse form of w |-> U^{ij} w_{ij} at interior nodes, in factor order.

    `weights` are the `stencil_weights` of U.  Returns the interior matrix
    A as it is factorized: A[order][:, order] in CSC form, for order =
    `Grid.nd_order`.  The boundary columns are left to `apply_weights`:
    the operator at interior nodes is A @ w_interior plus
    apply_weights(grid, weights, [0; w_boundary]).  A is also the exact
    Jacobian of u |-> det of the discrete Hessian, since
    delta(det H) = U^{ij} delta H_{ij}.  One gather of the weights fills
    the grid's cached pattern (`Grid.cached`).  The matrix owns copies of
    its index arrays, so scipy may sort or compact it in place without
    touching the shared pattern; scipy drops the entries that are exactly
    zero (the diagonal arms when U^{xy} = 0).
    """
    pattern = grid.cached(_operator_pattern)
    return _on_pattern(weights.ravel()[pattern.take], pattern,
                       grid.n_interior)


def apply_operator(grid: Grid, U: MatrixField, v) -> np.ndarray:
    """U^{ij} v_{ij} at interior nodes, from node values v, with no matrix.

    `apply_weights` with the `stencil_weights` of U.
    """
    return apply_weights(grid, stencil_weights(grid, U), v)


def apply_weights(grid: Grid, weights, v) -> np.ndarray:
    """The operator with the given `stencil_weights`, applied to node values v.

    One sum per row of the weighted stencil values.  For finite v with zero
    boundary values it equals, up to rounding and the permutation to
    factor order, the product of the matrix that `assemble_operator` fills
    with these weights and the interior values.
    """
    return np.einsum("nk,nk->n", weights, np.asarray(v)[grid.second_ops.cols])


def _coupled_pattern(grid: Grid) -> _Pattern:
    """The pattern of [[A, diag(d)], [C, A diag(w)]] on the pattern of A.

    2-d grids only.  `order` is the grid's nested-dissection order with
    each node's two unknowns side by side: position 2k holds u and 2k + 1
    holds log w at interior node `nd_order[k]`.  `take` gathers from the
    flat concatenation (u-weights, d, c-weights, u-weights times w) of the
    four blocks' data.  An entry (i, j) of A, in nested-dissection
    positions, lists the entries (2i, 2j) of A, (2i + 1, 2j) of C and
    (2i + 1, 2j + 1) of A diag(w); diag(d) adds (2k, 2k + 1), and
    `_compressed` compresses the list.
    """
    a = grid.cached(_operator_pattern)
    n = grid.n_interior
    size = grid.second_ops.cols.size  # the length of one flat weights array
    p = grid.nd_order
    k = np.arange(n, dtype=np.int32)
    rows = 2 * a.indices
    cols = 2 * np.repeat(k, np.diff(a.indptr))
    return _compressed(
        np.concatenate([rows, rows + 1, rows + 1, 2 * k]),
        np.concatenate([cols, cols, cols + 1, 2 * k + 1]),
        np.concatenate([a.take, size + n + a.take, 2 * size + n + a.take,
                        (size + p).astype(np.int32)]),
        np.column_stack([p, p + n]).ravel())


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
    values = np.concatenate([
        a_weights.ravel(), d, c_weights.ravel(),
        (a_weights * np.asarray(w)[grid.second_ops.cols]).ravel()])
    return _on_pattern(values[pattern.take], pattern, 2 * grid.n_interior)


def factorize_coupled(grid: Grid, a_weights, d, c_weights, w):
    """The checked solve of the coupled Jacobian of `_coupled_jacobian`.

    A and C are the operators with the `stencil_weights` a_weights and
    c_weights, and w holds node values (`_coupled_jacobian`).  The matrix
    fills the grid's cached CSC pattern, in factor order (the
    nested-dissection order with each node's two unknowns side by side).
    solve(rhs) takes and returns vectors in the natural order, u then
    log w.
    """
    return factorize(_coupled_jacobian(grid, a_weights, d, c_weights, w),
                     grid.cached(_coupled_pattern).order)


def factorize(P, order):
    """Sparse LU of P = A[order][:, order]; returns solve(rhs), which solves
    A x = rhs and checks every solution.

    P is a CSC matrix already in factor order, as `assemble_operator` and
    `_coupled_jacobian` build it, and `order` the permutation it was built
    with (`Grid.nd_order`, or the coupled pattern's `order`); solve(rhs)
    takes and returns vectors in A's own order.  SuperLU reorders no
    columns (no COLAMD), and its pivots are static: every nonzero diagonal
    entry is the pivot of its column, and a row is exchanged only where
    the diagonal is exactly zero.  A solution must be finite with residual
    within LINEAR_TOL of max|rhs|, which it meets in factor order, where
    the max norm is the same.  A solution that fails the residual check
    takes up to _REFINEMENT_STEPS steps of iterative refinement,
    x <- x + LU^{-1}(rhs - A x), each checked in turn; one that passes
    the first check is returned untouched.  So a small pivot gives a
    refined or a refused solution, never an unchecked one.  A check that
    no step passes, a non-finite solution, or a failed factorization
    raises SingularSystemError.  The LU, and P, which the checks use,
    live as long as the returned function.
    """
    try:
        lu = spla.splu(P, permc_spec="NATURAL", diag_pivot_thresh=0.0)
    except RuntimeError as exc:
        raise SingularSystemError(
            f"sparse factorization failed: {exc}") from exc

    def solve(rhs):
        b = rhs[order]
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
        out = np.empty_like(x)
        out[order] = x
        return out
    return solve


def solve_system(P, rhs, order):
    """Solve the assembled interior system once, with residual verification:
    `factorize(P, order)(rhs)`."""
    return factorize(P, order)(rhs)


def solve_linearized(grid: Grid, U: MatrixField, f: ScalarField,
                     w_b) -> ScalarField:
    """Solve U^{ij} w_{ij} = f on the interior with w = w_b on the boundary."""
    if not np.all(is_positive_definite(U)):
        raise EllipticityError("coefficient matrix not positive definite "
                               "at every interior node")
    w_b = np.asarray(w_b, dtype=float) * np.ones(grid.n_boundary)
    a = stencil_weights(grid, U)
    rhs = f.interior - apply_weights(
        grid, a, np.concatenate([np.zeros(grid.n_interior), w_b]))
    w_int = solve_system(assemble_operator(grid, a), rhs, grid.nd_order)
    return ScalarField(grid, np.concatenate([w_int, w_b]))


def linearized_residual(grid: Grid, U: MatrixField, w: ScalarField,
                        f: ScalarField) -> ScalarField:
    """Pointwise U^{ij} w_{ij} - f at interior nodes (boundary rows zero)."""
    r = apply_operator(grid, U, w.values) - f.interior
    return ScalarField(grid, np.concatenate([r, np.zeros(grid.n_boundary)]))
