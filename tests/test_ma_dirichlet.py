import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from abreu_bvp import (
    DomainSpec,
    GSpec,
    MAOptions,
    MatrixField,
    Problem,
    ScalarField,
    assemble_operator,
    build_grid,
    hessian,
    is_positive_definite,
    ma_residual,
    solve_ma,
    solve_second_bvp,
)
from abreu_bvp import continuation, lin_ma, ma_dirichlet
from abreu_bvp.exceptions import NewtonDivergenceError, SingularSystemError
from abreu_bvp.lin_ma import (apply_weights, factorize, solve_system,
                              stencil_weights)
from abreu_bvp.ma_dirichlet import _initial_guess, damped_newton


def test_1d_direct_solve(interval64):
    # u'' = 2, u(0)=u(1)=0  ->  u = x(x-1)
    g = interval64
    u = solve_ma(g, ScalarField.constant(g, 2.0), 0.0)
    x = g.points[:, 0]
    assert np.max(np.abs(u.values - x * (x - 1.0))) < 1e-12


def test_disk_unit_determinant(disk64):
    g = disk64
    u = solve_ma(g, ScalarField.constant(g, 1.0), 0.0)
    pts = g.points
    ref = 0.5 * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0)
    assert np.max(np.abs(u.values - ref)) < 1e-8
    res = ma_residual(g, u, ScalarField.constant(g, 1.0))
    assert np.max(np.abs(res.values)) < 1e-9


def test_boundary_data_honored(disk32):
    g = disk32
    phi = g.boundary_values(lambda x, y: x + 0.2 * y)
    u = solve_ma(g, ScalarField.constant(g, 1.0), phi)
    assert np.array_equal(u.boundary, phi)
    # adding a linear function leaves det D^2 u unchanged
    pts = g.points
    ref = 0.5 * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0) + pts[:, 0] + 0.2 * pts[:, 1]
    assert np.max(np.abs(u.values - ref)) < 1e-8


def test_manufactured_solution_convergence():
    # u = e^{r^2/2} solves det D^2 u = (1 + r^2) e^{r^2}
    errs = []
    for res in (16, 32, 64):
        g = build_grid(DomainSpec.disk(1.0), res)
        pts = g.points
        r2 = pts[:, 0]**2 + pts[:, 1]**2
        gfun = ScalarField(g, (1.0 + r2) * np.exp(r2))
        u = solve_ma(g, gfun, np.exp(0.5))
        errs.append(np.max(np.abs(u.values - np.exp(0.5 * r2))))
    assert errs[0] > errs[1] > errs[2]
    order = np.log2(errs[0] / errs[2]) / 2.0
    assert order > 1.5


def test_solution_is_convex(disk32, rng):
    g = disk32
    pts = g.points
    gv = 1.0 + 0.5 * np.sin(2 * pts[:, 0]) * np.cos(pts[:, 1])
    u = solve_ma(g, ScalarField(g, gv), 0.0)
    assert np.all(is_positive_definite(hessian(u, g)))


def test_comparison_principle(disk32):
    # larger determinant pushes the (negative) solution further down
    g = disk32
    u1 = solve_ma(g, ScalarField.constant(g, 1.0), 0.0)
    u4 = solve_ma(g, ScalarField.constant(g, 4.0), 0.0)
    diff = u1.interior - u4.interior
    assert np.all(diff > 0.0)              # strict ordering
    assert np.max(diff) > 0.3              # wide gap at the deepest point
    # sqrt scaling: det(c*D^2u) = c^2 det D^2 u, so u4 = 2*u1
    assert np.max(np.abs(u4.interior - 2.0 * u1.interior)) < 1e-8


@pytest.fixture
def factorizations(monkeypatch):
    """The number of LUs made so far, by the start's solve or by Newton."""
    made = []
    real = lin_ma.factorize

    def counted(*args, **kwargs):
        made.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(lin_ma, "factorize", counted)
    monkeypatch.setattr(ma_dirichlet, "factorize", counted)
    return made


def test_the_ellipse_start_solves_constant_g(ellipse64, factorizations):
    # M = diag(a/b, b/a) makes M : D^2 u0 = 2 sqrt(g) exact on
    # u = phi + (sqrt(g) ab / 2) level, whose Hessian is a multiple of
    # M^{-1}; the stencils are exact on quadratics, so the start's one LU
    # is the only one.
    g = ellipse64
    a, b = g.domain.semi_axes
    u = solve_ma(g, ScalarField.constant(g, 4.0), 0.3)
    level = g.domain.level(g.points[:, 0], g.points[:, 1])
    level[g.n_interior:] = 0.0
    assert len(factorizations) == 1
    assert np.max(np.abs(u.values - (0.3 + np.sqrt(4.0) * a * b / 2.0
                                     * level))) < 1e-13


@pytest.mark.parametrize("grid, a, b", [("ellipse64", 1.0, 0.5)] + [
    ("ellipse128", a, b) for a in (0.9, 1.1) for b in (0.45, 0.55)])
def test_the_ellipse_starts_lu_is_the_only_lu(grid, a, b, factorizations,
                                              request):
    # Varying g = 1 + a x^2 + b y^2, at 128 on the corners of the ellipse
    # benchmark's draw: the start's LU, its rows scaled by sqrt(g), serves
    # every Newton step as a chord Jacobian; Newton makes no LU of its own.
    g = request.getfixturevalue(grid)
    x, y = g.points[:, 0], g.points[:, 1]
    gv = ScalarField(g, 1.0 + a * x**2 + b * y**2)
    u = solve_ma(g, gv, 0.0)
    assert len(factorizations) == 1
    assert (np.max(np.abs(ma_residual(g, u, gv).values))
            <= MAOptions().newton_tol * np.max(gv.interior))


def test_the_start_chord_contracts_at_once(ellipse64, monkeypatch):
    # Theta_0 of the first chord step is about 0.05; with the start's LU
    # unscaled by sqrt(g) the chord step is refused.
    results = []
    real = ma_dirichlet.damped_newton

    def damped_newton(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ma_dirichlet, "damped_newton", damped_newton)
    g = ellipse64
    x, y = g.points[:, 0], g.points[:, 1]
    solve_ma(g, ScalarField(g, 1.0 + 0.5 * np.exp(x) * (1.0 + y**2)), 0.0)
    (result,) = results
    assert result.factorizations == 0
    assert result.contraction <= 0.1


@pytest.mark.parametrize("domain", [DomainSpec.disk(1.0),
                                    DomainSpec.ellipse(1.5, 0.75)],
                         ids=["disk48", "ellipse48"])
def test_a_zero_source_fine_resolve_makes_only_its_starts_lu(
        domain, factorizations, monkeypatch):
    # f = 0 keeps w = 1, so the fine grid re-solves u on g = Theta(1) = 1,
    # where the start is exact: its one LU is the re-solve's only LU.
    grid = build_grid(domain, 48)
    real_solve_ma = continuation.solve_ma
    made = []

    def solve_ma(g, gv, phi, opts=None):
        before = len(factorizations)
        u = real_solve_ma(g, gv, phi, opts)
        if g is grid:
            made.append(len(factorizations) - before)
        return u

    monkeypatch.setattr(continuation, "solve_ma", solve_ma)
    sol = solve_second_bvp(Problem(grid, GSpec(0.0, 2), 0.0, 0.0, 1.0))
    assert made == [1]
    assert [e["resolution"] for e in sol.iterations][-2:] == [24, 48]


def test_the_disk_start_is_the_poisson_start(disk32):
    # On a disk M = I exactly: the start is the identity-coefficient
    # Poisson solve, bit for bit (convex here, so no bubble is added).
    g = disk32
    pts = g.points
    gv = ScalarField(g, 1.0 + 0.5 * np.sin(2.0 * pts[:, 0])
                     * np.cos(pts[:, 1]))
    phi = g.boundary_values(lambda x, y: 0.1 * x - 0.2 * y)
    eye = MatrixField(g, np.tile(np.eye(2), (g.n_interior, 1, 1)))
    a = stencil_weights(g, eye)
    rhs = 2.0 * np.sqrt(gv.interior) - apply_weights(
        g, a, np.concatenate([np.zeros(g.n_interior), phi]))
    poisson = np.concatenate([solve_system(
        assemble_operator(g, a), rhs, g.nd_order)[0], phi])
    assert np.all(is_positive_definite(hessian(ScalarField(g, poisson), g)))
    assert np.array_equal(_initial_guess(g, gv, phi)[0], poisson)


def test_rejects_nonpositive_g(disk32):
    with pytest.raises(ValueError):
        solve_ma(disk32, ScalarField.constant(disk32, 0.0), 0.0)
    with pytest.raises(ValueError):
        solve_ma(disk32, ScalarField.constant(disk32, -1.0), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_dirichlet_data(disk32, bad):
    # one bad boundary node, or all of them, is refused before any solve
    phi = np.zeros(disk32.n_boundary)
    phi[7] = bad
    for data in (phi, bad):
        with pytest.raises(ValueError, match="phi must be finite"):
            solve_ma(disk32, ScalarField.constant(disk32, 1.0), data)


def test_newton_budget_exhaustion(disk32):
    opts = MAOptions(max_newton_iters=1, newton_tol=1e-14)
    with pytest.raises(NewtonDivergenceError) as ei:
        solve_ma(disk32, ScalarField.constant(disk32, 40.0), 0.0, opts=opts)
    # one entry per iterate: the start and the one step allowed
    trace = ei.value.trace
    assert [e["iter"] for e in trace] == [0, 1]
    assert all(np.isfinite(e["residual"]) for e in trace)
    assert trace[1]["residual"] < trace[0]["residual"]


def test_one_factorization_alive_at_a_time(disk32, monkeypatch):
    # Each Newton iteration drops its LU before making the next one, so a
    # second factorization never has to fit beside the first.  SuperLU
    # objects take no weak references: count references instead.
    made = []
    real_splu = spla.splu
    probe = [object()]
    only_listed = sys.getrefcount(probe[0])  # held by its list alone

    def splu(A, *args, **kwargs):
        alive = [i for i in range(len(made))
                 if sys.getrefcount(made[i]) > only_listed]
        assert not alive, f"factorizations {alive} still referenced"
        made.append(real_splu(A, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(spla, "splu", splu)
    solve_second_bvp(Problem(disk32, GSpec(0.0, 2), 50.0, 0.0, 1.0))
    coupled = len(made)
    pts = disk32.points
    bump = 1.0 + 50.0 * np.exp(-20.0 * (pts[:, 0]**2 + pts[:, 1]**2))
    solve_ma(disk32, ScalarField(disk32, bump), 0.0)
    assert coupled > 10 and len(made) - coupled > 2


@pytest.mark.parametrize("f, most", [(50.0, 45), (2.0, 15)])
def test_chord_steps_save_factorizations(disk32, monkeypatch, f, most):
    # A full step that contracts well hands its simplified step on as a
    # chord step on the live LU.  Without reuse these solves make 60 and
    # 31 factorizations.  The coupled ones are those the trace reports.
    sizes = []
    real_splu = spla.splu

    def splu(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    sol = solve_second_bvp(Problem(disk32, GSpec(0.0, 2), f, 0.0, 1.0))
    assert len(sizes) <= most
    coupled = sum(e["factorizations"] for e in sol.iterations)
    assert coupled == sizes.count(2 * disk32.n_interior)
    assert coupled < sum(e["iterations"] for e in sol.iterations)


def test_failed_chord_step_refactorizes_at_the_same_iterate():
    # F(x) = x^2 - 1 from x = 2: the full step to 1.25 contracts by 0.19,
    # so the next trial, 1.109, is a chord step on the LU made at 2.  A
    # wall (an infinite residual, as for a nonconvex iterate) on
    # (1.05, 1.2) rejects it.  A damped chord step would land in the wall
    # again (1.18 at s = 1/2); Newton must instead refactorize at 1.25.
    jacobians, walled = [], []

    def residual(x):
        if 1.05 < x[0] < 1.2:
            walled.append(x[0])
            return np.inf, x**2 - 1.0, None
        F = x**2 - 1.0
        return float(np.max(np.abs(F))), F, None

    def jacobian(x, state):
        jacobians.append(x[0])
        return factorize(sp.csc_matrix([[2.0 * x[0]]]), np.arange(1))

    result = damped_newton(np.array([2.0]), residual, jacobian, 1e-12, 30)
    assert result.error is None and abs(result.x[0] - 1.0) < 1e-12
    assert walled == [pytest.approx(1.25 - 0.5625 / 4.0)]
    assert jacobians[:2] == [2.0, 1.25]
    assert result.factorizations == len(jacobians) < result.steps


def _square_minus_one(x):
    F = x**2 - 1.0
    return float(np.max(np.abs(F))), F, None


def _square_jacobian(made):
    def jacobian(x, state):
        made.append(x[0])
        return factorize(sp.csc_matrix([[2.0 * x[0]]]), np.arange(1))
    return jacobian


def test_a_good_start_solve_needs_no_factorization():
    # F(x) = x^2 - 1 from x = 1.5 with the Jacobian at the root, 2: every
    # step is a chord step on it, and the error squares (e -> -e^2 / 2).
    made = []
    solve = factorize(sp.csc_matrix([[2.0]]), np.arange(1))
    result = damped_newton(np.array([1.5]), _square_minus_one,
                           _square_jacobian(made), 1e-12, 30, solve=solve)
    assert result.error is None and abs(result.x[0] - 1.0) < 1e-12
    assert made == [] and result.factorizations == 0 and result.steps == 5
    # Theta_0 is the first chord step's: |F(0.875)| / 2 over 0.625
    assert result.contraction == pytest.approx(0.1875)
    assert result.solve is solve


class _FailsAtCall:
    """A checked solve of [[2]] that raises on its n-th call."""

    def __init__(self, n):
        self.n, self.calls = n, 0
        self.solve = factorize(sp.csc_matrix([[2.0]]), np.arange(1))

    def __call__(self, rhs):
        self.calls += 1
        if self.calls == self.n:
            raise SingularSystemError("injected")
        return self.solve(rhs)


@pytest.mark.parametrize("bad", [
    lambda: lambda rhs: 10.0 * rhs / 4.0,
    lambda: _FailsAtCall(1), lambda: _FailsAtCall(2)],
    ids=["scaled-by-10", "raises-at-the-step", "raises-at-the-test"])
def test_a_refused_start_solve_leaves_newton_as_it_was(bad):
    # From x = 2 a start solve ten times too long is refused by the
    # monotonicity test, and one whose check fails counts as refused: then
    # Newton factorizes at x = 2 and runs as it does with no start solve.
    plain, started = [], []
    ref = damped_newton(np.array([2.0]), _square_minus_one,
                        _square_jacobian(plain), 1e-12, 30)
    result = damped_newton(np.array([2.0]), _square_minus_one,
                           _square_jacobian(started), 1e-12, 30,
                           solve=bad())
    assert result.error is None and ref.error is None
    assert np.array_equal(result.x, ref.x) and result.r == ref.r
    assert (result.steps, result.factorizations) == (ref.steps,
                                                     ref.factorizations)
    assert started == plain and started[0] == 2.0


def test_options_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            MAOptions(newton_tol=bad)
    with pytest.raises(ValueError):
        MAOptions(max_newton_iters=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5])
def test_the_newton_iteration_count_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="max_newton_iters must be an integer"):
        MAOptions(max_newton_iters=bad)
