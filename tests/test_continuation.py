import numpy as np
import pytest
from scipy import sparse

from abreu_bvp import (
    ContinuationOptions,
    DomainSpec,
    GSpec,
    OneDProblem,
    Problem,
    ScalarField,
    build_grid,
    phi_map,
    solve_exact_1d,
    solve_second_bvp,
)
from abreu_bvp import continuation
from abreu_bvp.continuation import _coupled_jacobian
from abreu_bvp.exceptions import (ContinuationError, SingularSystemError,
                                  WFloorError)
from abreu_bvp.lin_ma import assemble_operator
from abreu_bvp.mesh import cofactor, hessian


def trivial_problem(grid):
    return Problem(grid, GSpec(0.0, grid.dim), 0.0, 0.0, 1.0)


def test_t0_map_sends_everything_to_one(disk32):
    # at t = 0 the target data is f = 0, w = 1: the map is constant
    g = disk32
    prob = trivial_problem(g)
    for scale in (0.5, 1.0, 3.0):
        w0 = ScalarField.constant(g, scale)
        w1, u = phi_map(w0, 0.0, prob)
        assert np.max(np.abs(w1.values - 1.0)) < 1e-9


def test_phi_map_rejects_bad_inputs(disk32):
    prob = trivial_problem(disk32)
    w = ScalarField.constant(disk32, 1.0)
    with pytest.raises(ValueError):
        phi_map(w, -0.1, prob)
    with pytest.raises(ValueError):
        phi_map(w, 1.5, prob)
    with pytest.raises(WFloorError):
        phi_map(ScalarField.constant(disk32, 1e-9), 0.5, prob)


def test_trivial_disk_solution(disk32):
    g = disk32
    sol = solve_second_bvp(trivial_problem(g))
    pts = g.points
    ref = 0.5 * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0)
    assert np.max(np.abs(sol.u.values - ref)) < 1e-8
    assert np.max(np.abs(sol.w.values - 1.0)) < 1e-10
    assert np.max(np.abs(sol.d.values[: g.n_interior] - 1.0)) < 1e-9
    assert len(sol.iterations) == 10
    assert all(e["converged"] for e in sol.iterations)
    assert sol.iterations[-1]["t"] == 1.0


def test_solution_is_a_fixed_point(disk32):
    g = disk32
    prob = Problem(g, GSpec(0.0, 2), 2.0, 0.0, 1.0)
    opts = ContinuationOptions()
    sol = solve_second_bvp(prob, opts)
    w_again, _ = phi_map(sol.w, 1.0, prob, opts, u_init=sol.u)
    gap = np.max(np.abs(w_again.values - sol.w.values))
    assert gap <= 2e-9


def test_1d_solution_matches_oracle():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    prob = Problem(g, GSpec(0.0, 1), 4.0, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    oracle = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 4.0), resolution=4001)
    ref = np.interp(g.points[:, 0], oracle.u.grid.points[:, 0].copy(),
                    oracle.u.values)
    # discretization error only; both sides solve the same problem
    assert np.max(np.abs(sol.u.values - ref)) < 5e-4
    # w has the closed form 1 - 2t x(1-x) at t = 1
    x = g.points[:, 0]
    assert np.max(np.abs(sol.w.values - (1.0 - 2.0 * x * (1.0 - x)))) < 1e-10


def test_1d_negative_source_closed_form():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    prob = Problem(g, GSpec(0.0, 1), -4.0, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    x = g.points[:, 0]
    assert np.max(np.abs(sol.w.values - (1.0 + 2.0 * x * (1.0 - x)))) < 1e-10
    assert np.min(sol.w.values) >= 1.0 - 1e-12


def test_nonexistence_exits_through_the_floor():
    # beyond the 1-d existence threshold the iterates drive w negative
    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    prob = Problem(g, GSpec(0.0, 1), 20.0, 0.0, 1.0)
    with pytest.raises(WFloorError) as ei:
        solve_second_bvp(prob)
    err = ei.value
    assert 0.0 < err.last_good_t < 1.0
    assert err.trace  # partial trace is preserved for post-mortems
    assert any(e["floor_hit"] for e in err.trace if not e["converged"])


def test_strong_source_converges_without_halving(disk32):
    # near-singular w (min w ~ 1e-4) still takes the plain ten-step schedule
    g = disk32
    prob = Problem(g, GSpec(0.0, 2), 50.0, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    assert len(sol.iterations) == 10
    assert all(e["converged"] and e["dt"] == 0.1 for e in sol.iterations)
    assert not any(e["floor_hit"] for e in sol.iterations)
    assert sol.el_residual_norm <= 1e-4 * 50.0
    assert np.min(sol.w.values) > 0.0
    assert np.min(sol.d.interior) > 0.0


def test_threshold_verdicts_bracket_the_discrete_threshold(interval64):
    # constant f on [0, 1]: the discrete w is exact, so the last good t f
    # lies below f*_h = 8 / (1 - h^2) and, with the default schedule, close
    # to f* = 8
    f_star_h = 8.0 / (1.0 - interval64.hx**2)
    for c in (9.0, 14.0, 24.0):
        prob = Problem(interval64, GSpec(0.0, 1), c, 0.0, 1.0)
        with pytest.raises(WFloorError) as ei:
            solve_second_bvp(prob)
        assert 0.95 * 8.0 <= ei.value.last_good_t * c <= f_star_h


def test_singular_coupled_system_ends_only_its_step(disk32, monkeypatch):
    # A failed linear solve inside a coupled step becomes that step's trace
    # entry; the continuation halves the step and goes on.
    n = disk32.n_interior
    real_factorize = continuation.factorize
    coupled_calls = []

    def factorize(A, order=None):
        if A.shape[0] == 2 * n:
            coupled_calls.append(A.shape)
            if len(coupled_calls) == 1:
                raise SingularSystemError("injected singular Jacobian")
        return real_factorize(A, order)

    monkeypatch.setattr(continuation, "factorize", factorize)
    sol = solve_second_bvp(Problem(disk32, GSpec(0.0, 2), 2.0, 0.0, 1.0))
    failed, halved = sol.iterations[:2]
    assert not failed["converged"] and not failed["floor_hit"]
    assert "injected singular Jacobian" in failed["error"]
    assert failed["iterations"] == 0
    assert halved["converged"] and halved["dt"] == failed["dt"] / 2
    assert halved["t"] == pytest.approx(failed["t"] / 2)
    assert sol.iterations[-1]["t"] == 1.0


def test_negative_source_never_reports_nonexistence(disk32):
    # f <= 0 keeps the w-equation's solution above its boundary data, so a
    # step too long for Newton may end as a solver failure, but never as a
    # nonexistence verdict
    prob = Problem(disk32, GSpec(0.0, 2), -30.0, 0.0, 1.0)
    opts = ContinuationOptions(t_steps=1, max_step_halvings=2)
    try:
        solve_second_bvp(prob, opts)
    except ContinuationError:
        pass


def test_custom_initial_iterate(disk32):
    g = disk32
    prob = trivial_problem(g)
    w0 = ScalarField.constant(g, 2.0)
    sol = solve_second_bvp(prob, w0=w0)
    assert np.max(np.abs(sol.w.values - 1.0)) < 1e-9
    with pytest.raises(ValueError):
        solve_second_bvp(prob, w0=ScalarField.constant(g, 1e-12))


def test_coupled_jacobian_matches_bmat(disk32, interval64, rng):
    # [[A, diag(d)], [C, A]], with C = None a zero block, filled directly
    for grid in (disk32, interval64):
        n = grid.n_interior
        pts = grid.points
        blocks = []
        for _ in range(2 if grid.dim == 2 else 1):
            bump = rng.uniform(0.0, 0.1, len(pts))
            v = ScalarField(grid, (pts**2).sum(axis=1) + bump)
            blocks.append(assemble_operator(
                grid, cofactor(hessian(v, grid), grid))[0])
        A, C = blocks[0], blocks[1] if len(blocks) == 2 else None
        d = -rng.uniform(0.5, 2.0, n)
        J = _coupled_jacobian(A, d, C)
        ref = sparse.bmat([[A, sparse.diags(d)], [C, A]], format="csr")
        assert J.shape == ref.shape and J.nnz == ref.nnz
        assert abs(J - ref).max() == 0.0


def test_options_validation():
    with pytest.raises(ValueError):
        ContinuationOptions(t_steps=0)
    with pytest.raises(ValueError):
        ContinuationOptions(w_floor=0.0)
    with pytest.raises(ValueError):
        ContinuationOptions(max_step_halvings=-1)
