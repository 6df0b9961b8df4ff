from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from abreu_bvp import (
    DomainSpec,
    MatrixField,
    ScalarField,
    apply_operator,
    assemble_operator,
    build_grid,
    cofactor,
    hessian,
    linearized_residual,
    solve_linearized,
)
from abreu_bvp import lin_ma
from abreu_bvp.exceptions import EllipticityError, SingularSystemError
from abreu_bvp.lin_ma import apply_weights, factorize, stencil_weights


def identity_coeffs(grid):
    data = np.tile(np.eye(grid.dim), (grid.n_interior, 1, 1))
    return MatrixField(grid, data)


def test_laplace_quadratic_exact(disk32):
    # U = I turns the operator into the Laplacian; w = x^2 - y^2 is harmonic
    g = disk32
    pts = g.points
    w_exact = pts[:, 0]**2 - pts[:, 1]**2
    w = solve_linearized(g, identity_coeffs(g), ScalarField.constant(g, 0.0),
                         w_exact[g.n_interior:])
    assert np.max(np.abs(w.values - w_exact)) < 1e-9


def test_poisson_quadratic_exact(disk32):
    # Lap w = 4 with w = r^2 boundary data -> w = x^2 + y^2
    g = disk32
    pts = g.points
    w_exact = pts[:, 0]**2 + pts[:, 1]**2
    w = solve_linearized(g, identity_coeffs(g), ScalarField.constant(g, 4.0),
                         w_exact[g.n_interior:])
    assert np.max(np.abs(w.values - w_exact)) < 1e-9


def test_variable_coefficients_quadratic(disk32):
    # U from the cofactor of a true convex potential; trace identity
    # U^{ij} w_{ij} for quadratic w is exact on the fitted stencils.
    g = disk32
    pts = g.points
    pot = ScalarField(g, np.exp(0.5 * (pts[:, 0]**2 + pts[:, 1]**2)))
    U = cofactor(hessian(pot, g), g)
    w_vals = 1.0 + 0.3 * pts[:, 0]**2 + 0.1 * pts[:, 0] * pts[:, 1] + 0.2 * pts[:, 1]**2
    w_field = ScalarField(g, w_vals)
    # manufactured rhs: U^{ij} w_{ij} with exact constant Hessian of w
    Hw = np.array([[0.6, 0.1], [0.1, 0.4]])
    rhs_vals = np.einsum("nij,ij->n", U.data, Hw)
    rhs = ScalarField(g, np.concatenate([rhs_vals, np.zeros(g.n_boundary)]))
    res = linearized_residual(g, U, w_field, rhs)
    assert np.max(np.abs(res.values)) < 1e-8
    solved = solve_linearized(g, U, rhs, w_vals[g.n_interior:])
    assert np.max(np.abs(solved.values - w_vals)) < 1e-7


def test_linearity_in_data(disk32, rng):
    g = disk32
    U = identity_coeffs(g)
    f1 = ScalarField(g, rng.normal(size=g.n_nodes))
    f2 = ScalarField(g, rng.normal(size=g.n_nodes))
    b1 = rng.normal(size=g.n_boundary)
    b2 = rng.normal(size=g.n_boundary)
    wa = solve_linearized(g, U, f1, b1)
    wb = solve_linearized(g, U, f2, b2)
    combo = solve_linearized(
        g, U, ScalarField(g, 2.0 * f1.values - 3.0 * f2.values),
        2.0 * b1 - 3.0 * b2)
    assert np.max(np.abs(combo.values - (2 * wa.values - 3 * wb.values))) < 1e-8


def test_discrete_maximum_principle(disk64):
    # zero rhs: solution bounded by its boundary data
    g = disk64
    bvals = g.boundary_values(lambda x, y: np.sin(3 * x) + np.cos(2 * y))
    w = solve_linearized(g, identity_coeffs(g), ScalarField.constant(g, 0.0), bvals)
    assert np.max(w.interior) <= np.max(bvals) + 1e-12
    assert np.min(w.interior) >= np.min(bvals) - 1e-12


def test_interval_operator(interval64):
    # 1-d cofactor is the constant 1: operator reduces to w''
    g = interval64
    U = identity_coeffs(g)
    x = g.points[:, 0]
    w = solve_linearized(g, U, ScalarField.constant(g, 2.0), [0.0, 0.0])
    assert np.max(np.abs(w.values - x * (x - 1.0))) < 1e-12


def test_rejects_indefinite_coefficients(disk32):
    g = disk32
    data = np.tile(np.diag([1.0, -1.0]), (g.n_interior, 1, 1))
    with pytest.raises(EllipticityError):
        solve_linearized(g, MatrixField(g, data),
                         ScalarField.constant(g, 0.0), 0.0)


def test_assemble_operator_row_action(interval64, disk32, rng):
    # matrix action, with the boundary columns through apply_weights,
    # agrees with U^{ij} w_{ij} from the pointwise Hessian
    ellipse = build_grid(DomainSpec.ellipse(1.5, 0.75), 32)
    for g in (interval64, disk32, ellipse):
        pts = g.points
        pot = ScalarField(g, pts[:, 0]**2 + 0.5 * pts[:, 1]**2
                          + 0.1 * np.exp(pts[:, 0] + pts[:, 1]))
        U = cofactor(hessian(pot, g), g)
        a = stencil_weights(g, U)
        A = assemble_operator(g, a)
        assert A.shape == (g.n_interior, g.n_interior)
        w = ScalarField(g, rng.normal(size=g.n_nodes))
        pointwise = np.einsum("nij,nij->n", U.data, hessian(w, g).data)
        p = g.nd_order
        direct = apply_weights(g, a, np.concatenate(
            [np.zeros(g.n_interior), w.boundary]))
        direct[p] += A @ w.interior[p]
        assert (np.max(np.abs(direct - pointwise))
                < 1e-12 * np.max(np.abs(pointwise)))


def test_the_stencil_enters_matmul_c_ordered(ellipse32):
    # numpy's matmul of a long C-ordered array by an F-ordered one (such as
    # a transposed view) can leave its fast path: on the 51,040 rows of
    # the 256 ellipse it has taken 2 to 150 times as long as with
    # C-ordered operands, depending on the host.  So every operand
    # that stencil_weights and hessian hand to matmul is C-ordered; the
    # fields' data is wrapped in an array type that records them.
    seen = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kw):
            inputs = [np.asarray(x) for x in inputs]
            if ufunc is np.matmul:
                seen.append(inputs)
            if out is not None:
                kw["out"] = tuple(np.asarray(x) for x in out)
            return getattr(ufunc, method)(*inputs, **kw).view(Recording)

    g = ellipse32
    pot = g.field(lambda x, y: x**2 + 2.0 * y**2 + 0.1 * np.exp(x * y))
    U = cofactor(hessian(pot, g), g)
    stencil_weights(g, SimpleNamespace(data=U.data.view(Recording)))
    hessian(SimpleNamespace(values=pot.values.view(Recording)), g)
    assert len(seen) == 2
    for operands in seen:
        assert [x.flags.c_contiguous for x in operands] == [True, True]


def test_assembled_operator_stores_no_zeros(interval64, disk32):
    # identity coefficients leave the diagonal arms at zero; they must not
    # be stored, or the factorizations fill in for nothing
    ellipse = build_grid(DomainSpec.ellipse(1.5, 0.75), 32)
    for g in (interval64, disk32, ellipse):
        A = assemble_operator(g, stencil_weights(g, identity_coeffs(g)))
        assert np.all(A.data != 0.0)
        axis_arms = g.second_ops.cols[:, 1:1 + 2 * g.dim]
        assert A.nnz == g.n_interior + np.count_nonzero(
            axis_arms < g.n_interior)


def csr_from_scratch(g, weights):
    # the whole stencil in one CSR matrix in the natural order, zeros
    # dropped, split by column into its interior and boundary blocks
    ops, n = g.second_ops, g.n_interior
    k = ops.cols.shape[1]
    M = sp.csr_matrix((weights.ravel(), ops.cols.ravel(),
                       np.arange(0, n * k + 1, k)), shape=(n, g.n_nodes),
                      copy=True)
    M.eliminate_zeros()
    return M[:, :n], M[:, n:]


def in_factor_order(g, weights):
    # the interior block of the reference, permuted by nd_order, as CSC
    # with sorted row indices
    p = g.nd_order
    R = csr_from_scratch(g, weights)[0][p][:, p].tocsc()
    R.sort_indices()
    return R


def same_sparse(M, R):
    return (M.shape == R.shape and M.format == R.format
            and all(np.array_equal(getattr(M, k), getattr(R, k))
                    and getattr(M, k).dtype == getattr(R, k).dtype
                    for k in ("data", "indices", "indptr")))


def convex_cofactor(g):
    x, y = g.points[:, 0], g.points[:, 1]
    u = ScalarField(g, 0.5 * (x**2 + y**2) + 0.1 * x**4 + 0.05 * x * y**3)
    return cofactor(hessian(u, g), g)


def test_in_place_edits_leave_the_shared_patterns_whole():
    # scipy sorts and compacts index arrays in place: the assembled
    # matrices must own theirs, or the grid's next operator is corrupted.
    # Fresh grids, so that a failure here cannot spread to other tests.
    for domain in (DomainSpec.interval(0.0, 1.0), DomainSpec.disk(1.0),
                   DomainSpec.ellipse(1.5, 0.75)):
        g = build_grid(domain, 32)
        pattern = g.cached(lin_ma._operator_pattern)
        generic = stencil_weights(g, convex_cofactor(g))
        for a in (stencil_weights(g, identity_coeffs(g)), generic):
            M = assemble_operator(g, a)
            for arr in (M.indices, M.indptr):
                assert not any(np.shares_memory(arr, shared)
                               for shared in pattern)
            M.tolil()
            M.sum_duplicates()
            M.indices[:] = 0
            assert same_sparse(assemble_operator(g, generic),
                               in_factor_order(g, generic))
        assert all(arr.flags.writeable is False for arr in pattern)
        assert {arr.dtype for arr in pattern[:3]} == {np.dtype(np.int32)}


def test_assembly_equals_the_whole_stencil_split_by_column(interval64,
                                                           disk32, ellipse32):
    # bitwise: the cached pattern fills the same arrays as one CSR matrix
    # of the whole stencil, zeros dropped, split by column slicing and
    # permuted by nd_order
    disk33 = build_grid(DomainSpec.disk(1.0), 33)
    for g in (interval64, disk32, disk33, ellipse32):
        for U in (identity_coeffs(g), convex_cofactor(g)):
            a = stencil_weights(g, U)
            assert same_sparse(assemble_operator(g, a), in_factor_order(g, a))


def positions(g, offset=1):
    # every stencil entry's flat position plus offset, as weights: no
    # entry is zero, so the reference drops none
    cols = g.second_ops.cols
    return np.arange(offset, offset + cols.size,
                     dtype=float).reshape(cols.shape)


@pytest.mark.parametrize("grid_name",
                         ["interval64", "disk32", "disk33", "ellipse64"])
def test_the_operator_pattern_is_the_permuted_reference(grid_name, request):
    # entry for entry: the pattern, and the flat position each stored
    # value is gathered from, are those of the natural-order reference
    # permuted by nd_order
    g = request.getfixturevalue(grid_name)
    pattern = lin_ma._operator_pattern(g)
    ref = in_factor_order(g, positions(g))
    assert np.array_equal(pattern.indptr, ref.indptr)
    assert np.array_equal(pattern.indices, ref.indices)
    assert np.array_equal(pattern.take, ref.data - 1)


def is_the_assembled_action(g, U, v):
    """Whether apply_operator(g, U, v) is A v_I + B v_B up to rounding, for
    A from assemble_operator and the boundary block B of the reference.

    Two sums of the same k <= 10 products, in any order, differ by at most
    2 gamma_10 sum |a_k v_k| per row, gamma_10 = 10u / (1 - 10u) with the
    unit roundoff u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3).
    """
    n, p = g.n_interior, g.nd_order
    a = stencil_weights(g, U)
    A = assemble_operator(g, a)
    B = csr_from_scratch(g, a)[1]
    interior, size = np.empty(n), np.empty(n)
    interior[p] = A @ v[:n][p]
    size[p] = abs(A) @ np.abs(v[:n][p])
    gap = np.abs(apply_operator(g, U, v) - (interior + B @ v[n:]))
    u = 2.0 ** -53
    gamma = 10 * u / (1 - 10 * u)
    bound = 2 * gamma * (size + abs(B) @ np.abs(v[n:]))
    return bool(np.all(gap <= bound))


def test_apply_operator_is_the_assembled_action(interval64, disk32,
                                                ellipse32, rng):
    # disk33: at an odd resolution three arms end at the seam node (-R, 0).
    # No disk or ellipse grid of resolution 8 to 96 has a row with two arms
    # ending at one boundary node.
    disk33 = build_grid(DomainSpec.disk(1.0), 33)
    for g in (interval64, disk32, ellipse32, disk33):
        for U in (identity_coeffs(g), convex_cofactor(g)):
            # node values from 1e-3 to 1e3 in size, of either sign
            v = rng.normal(size=g.n_nodes) * 10.0 ** rng.uniform(
                -3, 3, size=g.n_nodes)
            assert is_the_assembled_action(g, U, v)


def test_linearized_residual_is_the_operator_action(disk32, rng):
    g = disk32
    U = convex_cofactor(g)
    w = ScalarField(g, rng.normal(size=g.n_nodes))
    f = ScalarField(g, rng.normal(size=g.n_nodes))
    r = linearized_residual(g, U, w, f)
    assert np.array_equal(r.interior,
                          apply_operator(g, U, w.values) - f.interior)
    assert not r.boundary.any()


def ma_weights(g):
    # the stencil weights of the Monge-Ampere Jacobian at a convex,
    # non-quadratic potential
    x, y = g.points[:, 0], g.points[:, 1]
    u = ScalarField(g, 0.5 * (x**2 + y**2) + 0.1 * x**4 + 0.05 * x * y**3)
    return stencil_weights(g, cofactor(hessian(u, g), g))


def ma_jacobian(g):
    # that Jacobian in factor order, as it is factorized
    return assemble_operator(g, ma_weights(g))


def test_ordered_factorization_solves_the_unpermuted_system(disk32,
                                                            ellipse32, rng):
    # factorize takes the permuted matrix and solves the unpermuted system:
    # a dense solve of the natural-order reference gives the same solution
    for g in (disk32, ellipse32):
        A = csr_from_scratch(g, ma_weights(g))[0]
        rhs = rng.normal(size=g.n_interior)
        x = np.linalg.solve(A.toarray(), rhs)
        x_nd = factorize(ma_jacobian(g), g.nd_order)(rhs)
        assert np.max(np.abs(x_nd - x)) <= 1e-12 * np.max(np.abs(x))
        # the coupled step's order, each node's two unknowns side by side
        p = g.nd_order
        pairs = np.column_stack([p, p + g.n_interior]).ravel()
        J = sp.bmat([[A, sp.eye(g.n_interior)], [None, A]], format="csc")
        rhs2 = rng.normal(size=2 * g.n_interior)
        y = np.linalg.solve(J.toarray(), rhs2)
        y_nd = factorize(J[pairs][:, pairs].tocsc(), pairs)(rhs2)
        assert np.max(np.abs(y_nd - y)) <= 1e-12 * np.max(np.abs(y))


def test_ordered_factorization_keeps_its_checks(disk32, monkeypatch):
    A = ma_jacobian(disk32).tolil()
    A[5, :] = 0.0
    with pytest.raises(SingularSystemError):
        factorize(A.tocsc(), disk32.nd_order)
    # no solve meets a tolerance this strict, so the residual check must fire
    monkeypatch.setattr(lin_ma, "LINEAR_TOL", 1e-300)
    solve = factorize(ma_jacobian(disk32), disk32.nd_order)
    with pytest.raises(SingularSystemError, match="relative residual"):
        solve(np.ones(disk32.n_interior))


def test_nested_dissection_cuts_the_fill(ellipse128, monkeypatch):
    # Guards against a silent fall-back to COLAMD: on the ellipse-128 MA
    # Jacobian the nested-dissection LU has at most 3/4 of COLAMD's fill.
    made = []
    real_splu = spla.splu

    def splu(A, *args, **kwargs):
        made.append((args, kwargs, real_splu(A, *args, **kwargs)))
        return made[-1][2]

    a = ma_weights(ellipse128)
    # SuperLU's default order, from the natural order
    colamd = real_splu(csr_from_scratch(ellipse128, a)[0].tocsc())
    monkeypatch.setattr(spla, "splu", splu)
    factorize(assemble_operator(ellipse128, a), ellipse128.nd_order)
    (_, kw1, nd), = made
    assert kw1 == {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0}
    assert nd.L.nnz + nd.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)


@pytest.mark.parametrize("grid_name",
                         ["disk32", "disk33", "ellipse64", "ellipse128"])
def test_the_coupled_pattern_is_the_permuted_bmat(grid_name, request):
    # The pattern built in factor order equals, entry for entry, the
    # sp.bmat layout of [[A, diag(d)], [C, A diag(w)]] permuted by `order`:
    # each block holds the positions of its values in the concatenated data
    # (u-weights, d, c-weights, u-weights times w), plus 1.  Entry for
    # entry, so scipy's summing of duplicates merged no two entries.
    g = request.getfixturevalue(grid_name)
    n = g.n_interior
    size = g.second_ops.cols.size

    def block(offset):
        return csr_from_scratch(g, positions(g, offset))[0].astype(np.int64)

    d = sp.diags(size + 1 + np.arange(n), dtype=np.int64)
    J = sp.bmat([[block(1), d], [block(size + n + 1),
                                 block(2 * size + n + 1)]], format="csc")
    pattern = lin_ma._coupled_pattern(g)
    p = g.nd_order
    assert np.array_equal(pattern.order, np.column_stack([p, p + n]).ravel())
    ref = J[pattern.order][:, pattern.order].tocsc()
    ref.sort_indices()
    assert np.array_equal(pattern.indptr, ref.indptr)
    assert np.array_equal(pattern.indices, ref.indices)
    assert np.array_equal(pattern.take, ref.data - 1)
    assert all(arr.flags.writeable is False for arr in pattern)
    assert {arr.dtype for arr in pattern[:3]} == {np.dtype(np.int32)}


def test_a_zero_diagonal_still_solves(rng, monkeypatch):
    # Static pivoting keeps every nonzero diagonal pivot; where a diagonal
    # entry is exactly zero SuperLU still exchanges rows, and the solve
    # meets LINEAR_TOL, in the lattice order or another.
    made = []
    real_splu = spla.splu

    def splu(A, **kwargs):
        made.append(real_splu(A, **kwargs))
        return made[-1]

    monkeypatch.setattr(spla, "splu", splu)
    A = sp.csr_matrix(np.array([[0.0, 2.0, 0.0, 1.0],
                                [3.0, 1.0, 0.0, 0.0],
                                [0.0, 1.0, 4.0, 0.0],
                                [1.0, 0.0, 1.0, 5.0]]))
    rhs = rng.normal(size=4)
    for order in (np.arange(4), np.array([2, 0, 3, 1])):
        x = factorize(A[order][:, order].tocsc(), order)(rhs)
        assert not np.array_equal(made[-1].perm_r, np.arange(4))
        assert np.max(np.abs(A @ x - rhs)) <= (lin_ma.LINEAR_TOL
                                               * np.max(np.abs(rhs)))


@pytest.mark.parametrize("pivot", [1e-20, 1e-14, 1e-8])
def test_a_tiny_pivot_is_refined_or_refused(pivot, monkeypatch):
    # The tiny diagonal entry stays the first pivot, so the LU has growth
    # 1/pivot (at 1e-20 its last pivot is lost to cancellation).  The solve
    # must meet LINEAR_TOL, with or without refinement, or raise
    # SingularSystemError; it never returns an unchecked solution.
    made = []
    real_splu = spla.splu

    def splu(A, **kwargs):
        made.append(real_splu(A, **kwargs))
        return made[-1]

    monkeypatch.setattr(spla, "splu", splu)
    A = sp.csc_matrix(np.array([[pivot, 1.0, 1.0],
                                [1.0, 1.0, 0.0],
                                [1.0, 0.0, 1.0]]))
    rhs = np.array([1.0, 2.0, 3.0])
    solve = factorize(A, np.arange(3))
    lu, = made
    assert np.array_equal(lu.perm_r, np.arange(3))  # no row was exchanged
    try:
        x = solve(rhs)
    except SingularSystemError:
        return
    assert np.max(np.abs(A @ x - rhs)) <= (lin_ma.LINEAR_TOL
                                           * np.max(np.abs(rhs)))


class _InexactLU:
    # A SuperLU stand-in whose every solve is off by a relative error.
    def __init__(self, lu, error, solves):
        self.lu, self.error, self.solves = lu, error, solves

    def solve(self, rhs):
        self.solves.append(rhs)
        return (1.0 + self.error) * self.lu.solve(rhs)


@pytest.mark.parametrize("error, solves", [(0.0, 1), (1e-7, 2), (0.5, 4)])
def test_a_failed_check_refines_before_it_raises(disk32, rng, monkeypatch,
                                                 error, solves):
    # A solution within LINEAR_TOL is returned as solved.  One off by 1e-7
    # fails the check and passes after one step of refinement with the
    # live LU; one off by 0.5 still fails after the three steps allowed,
    # and raises as before.
    made = []
    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **kw: _InexactLU(
        real_splu(A, **kw), error, made))
    A = ma_jacobian(disk32)
    p = disk32.nd_order
    rhs = rng.normal(size=disk32.n_interior)
    solve = factorize(A, p)
    if error < 0.5:
        x = solve(rhs)
        assert np.max(np.abs(A @ x[p] - rhs[p])) <= (lin_ma.LINEAR_TOL
                                                     * np.max(np.abs(rhs)))
    else:
        with pytest.raises(SingularSystemError,
                           match="relative residual .* exceeds linear_tol"):
            solve(rhs)
    assert len(made) == solves
