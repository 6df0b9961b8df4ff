import sys

import numpy as np
import pytest
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


def test_options_validation():
    with pytest.raises(ValueError):
        MAOptions(newton_tol=0.0)
    with pytest.raises(ValueError):
        MAOptions(max_newton_iters=0)
