import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from abreu_bvp import (
    DomainSpec,
    GSpec,
    MAOptions,
    Problem,
    ScalarField,
    build_grid,
    hessian,
    is_positive_definite,
    ma_residual,
    solve_ma,
    solve_second_bvp,
)
from abreu_bvp.exceptions import NewtonDivergenceError
from abreu_bvp.lin_ma import factorize
from abreu_bvp.ma_dirichlet import damped_newton


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


def test_warm_start_agrees_with_cold_start(disk32):
    g = disk32
    gfun = ScalarField.constant(g, 2.0)
    cold = solve_ma(g, gfun, 0.0)
    bent = ScalarField(g, cold.values + 1e-3 * (g.points[:, 0]**2))
    warm = solve_ma(g, gfun, 0.0, initial=bent)
    assert np.max(np.abs(warm.values - cold.values)) < 1e-7


def test_rejects_nonpositive_g(disk32):
    with pytest.raises(ValueError):
        solve_ma(disk32, ScalarField.constant(disk32, 0.0), 0.0)
    with pytest.raises(ValueError):
        solve_ma(disk32, ScalarField.constant(disk32, -1.0), 0.0)


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
        return factorize(sp.csc_matrix([[2.0 * x[0]]]))

    x, *_, steps, factorizations, error = damped_newton(
        np.array([2.0]), residual, jacobian, 1e-12, 30)
    assert error is None and abs(x[0] - 1.0) < 1e-12
    assert walled == [pytest.approx(1.25 - 0.5625 / 4.0)]
    assert jacobians[:2] == [2.0, 1.25]
    assert factorizations == len(jacobians) < steps


def test_options_validation():
    with pytest.raises(ValueError):
        MAOptions(newton_tol=0.0)
    with pytest.raises(ValueError):
        MAOptions(max_newton_iters=0)
