import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from abreu_bvp import (
    DomainSpec,
    MatrixField,
    ScalarField,
    assemble_operator,
    build_grid,
    cofactor,
    hessian,
    linearized_residual,
    solve_linearized,
)
from abreu_bvp import lin_ma
from abreu_bvp.exceptions import EllipticityError, SingularSystemError
from abreu_bvp.lin_ma import factorize


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
    # matrix action agrees with U^{ij} w_{ij} from the pointwise Hessian
    ellipse = build_grid(DomainSpec.ellipse(1.5, 0.75), 32)
    for g in (interval64, disk32, ellipse):
        pts = g.points
        pot = ScalarField(g, pts[:, 0]**2 + 0.5 * pts[:, 1]**2
                          + 0.1 * np.exp(pts[:, 0] + pts[:, 1]))
        U = cofactor(hessian(pot, g), g)
        A, B = assemble_operator(g, U)
        assert A.shape == (g.n_interior, g.n_interior)
        assert B.shape == (g.n_interior, g.n_boundary)
        w = ScalarField(g, rng.normal(size=g.n_nodes))
        pointwise = np.einsum("nij,nij->n", U.data, hessian(w, g).data)
        direct = A @ w.interior + B @ w.boundary
        assert (np.max(np.abs(direct - pointwise))
                < 1e-12 * np.max(np.abs(pointwise)))


def test_assembled_operator_stores_no_zeros(interval64, disk32):
    # identity coefficients leave the diagonal arms at zero; they must not
    # be stored, or the factorizations fill in for nothing
    ellipse = build_grid(DomainSpec.ellipse(1.5, 0.75), 32)
    for g in (interval64, disk32, ellipse):
        A, B = assemble_operator(g, identity_coeffs(g))
        assert np.all(A.data != 0.0) and np.all(B.data != 0.0)
        axis_arms = g.arm_kind[:, :2 * g.dim]
        assert A.nnz == g.n_interior + np.count_nonzero(axis_arms == 0)
        assert B.nnz == np.count_nonzero(axis_arms == 1)


def ma_jacobian(g):
    # the Monge-Ampere Jacobian at a convex, non-quadratic potential
    x, y = g.points[:, 0], g.points[:, 1]
    u = ScalarField(g, 0.5 * (x**2 + y**2) + 0.1 * x**4 + 0.05 * x * y**3)
    return assemble_operator(g, cofactor(hessian(u, g), g))[0]


def test_ordered_factorization_solves_the_unpermuted_system(disk32,
                                                            ellipse32, rng):
    for g in (disk32, ellipse32):
        A = ma_jacobian(g)
        rhs = rng.normal(size=g.n_interior)
        x = factorize(A)(rhs)
        x_nd = factorize(A, g.nd_order)(rhs)
        assert np.max(np.abs(x_nd - x)) <= 1e-12 * np.max(np.abs(x))
        # the coupled step's order, each node's two unknowns side by side
        p = g.nd_order
        pairs = np.column_stack([p, p + g.n_interior]).ravel()
        J = sp.bmat([[A, sp.eye(g.n_interior)], [None, A]], format="csc")
        rhs2 = rng.normal(size=2 * g.n_interior)
        y = factorize(J)(rhs2)
        y_nd = factorize(J, pairs)(rhs2)
        assert np.max(np.abs(y_nd - y)) <= 1e-12 * np.max(np.abs(y))


def test_ordered_factorization_keeps_its_checks(disk32, monkeypatch):
    A = ma_jacobian(disk32).tolil()
    A[5, :] = 0.0
    with pytest.raises(SingularSystemError):
        factorize(A.tocsr(), disk32.nd_order)
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

    monkeypatch.setattr(spla, "splu", splu)
    A = ma_jacobian(ellipse128)
    factorize(A)
    factorize(A, ellipse128.nd_order)
    (args0, kw0, colamd), (_, kw1, nd) = made
    assert args0 == () and kw0 == {}  # unordered: SuperLU's default call
    assert kw1 == {"permc_spec": "NATURAL"}
    assert nd.L.nnz + nd.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)
