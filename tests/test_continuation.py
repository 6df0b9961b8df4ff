import numpy as np
import pytest
from scipy import sparse

from abreu_bvp import (
    ContinuationOptions,
    DomainSpec,
    GSpec,
    MatrixField,
    OneDProblem,
    Problem,
    ScalarField,
    build_grid,
    phi_map,
    solve_exact_1d,
    solve_second_bvp,
)
from abreu_bvp import continuation
from abreu_bvp.exceptions import (ContinuationError, GridResolutionError,
                                  SingularSystemError, WFloorError)
from abreu_bvp.functionals import el_residual
from abreu_bvp.lin_ma import (_coupled_jacobian, assemble_operator,
                              stencil_weights)
from abreu_bvp.mesh import cofactor, det_field, hessian


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
    # beyond the 1-d existence threshold w at t = 1 falls below the floor
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


ENTRY_KEYS = {"t", "dt", "resolution", "iterations", "factorizations",
              "residual", "w_min", "converged", "floor_hit"}


def closed_form_w1(grid, c):
    # constant f = c, psi = 1: the discrete w at t = 1 is exact at the nodes
    x = grid.points[:, 0]
    return 1.0 - 0.5 * c * x * (1.0 - x)


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("c", [9.1287, 9.0322, 8.9690])
def test_verdicts_just_above_the_threshold(interval64, c, theta):
    # Sources a little above f* = 8, where halved steps once ended next to
    # the discrete threshold and Newton stalled: the verdict is exit 4.
    opts = ContinuationOptions()
    with pytest.raises(WFloorError) as ei:
        solve_second_bvp(Problem(interval64, GSpec(theta, 1), c, 0.0, 1.0),
                         opts)
    err = ei.value
    f_star_h = 8.0 / (1.0 - interval64.hx**2)
    assert 0.95 * 8.0 <= err.last_good_t * c <= f_star_h
    # w_min is that of w at last_good_t, where w just reaches the floor
    assert err.w_min == pytest.approx(opts.w_floor, rel=1e-6)
    [entry] = err.trace
    assert set(entry) == ENTRY_KEYS | {"error"}
    assert not entry["converged"] and entry["floor_hit"]
    assert all(np.isfinite(v) for k, v in entry.items() if k != "error")
    assert entry["w_min"] == pytest.approx(
        float(np.min(closed_form_w1(interval64, c))), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_interval_exits_4_exactly_when_w1_crosses_the_floor(interval64,
                                                           theta):
    opts = ContinuationOptions()
    f_star_h = 8.0 / (1.0 - interval64.hx**2)
    edge = f_star_h * (1.0 - opts.w_floor)  # min w_1 = w_floor here
    sources = list(np.linspace(7.9, 8.1, 11)) + [edge * (1.0 - 1e-9),
                                                 edge * (1.0 + 1e-9)]
    for c in sources:
        w1 = closed_form_w1(interval64, c)
        prob = Problem(interval64, GSpec(theta, 1), c, 0.0, 1.0)
        if np.min(w1) < opts.w_floor:
            with pytest.raises(WFloorError):
                solve_second_bvp(prob, opts)
            continue
        sol = solve_second_bvp(prob, opts)
        assert np.max(np.abs(sol.w.values - w1)) <= 1e-12
        [entry] = sol.iterations
        assert set(entry) == ENTRY_KEYS
        assert entry["converged"] and not entry["floor_hit"]
        assert all(np.isfinite(v) for v in entry.values())


def sine_source(x, y):
    return 2.0 + 2.0 * np.sin(3.0 * x)


@pytest.mark.parametrize("source, theta, phi, psi", [
    (4.0, 0.0, 0.0, 1.0), (7.0, 0.0, 0.0, 1.0), (-30.0, 0.0, 0.0, 1.0),
    (sine_source, 0.3, [0.2, -0.1], [0.7, 1.4])])
def test_interval_solution_is_a_fixed_point(interval64, source, theta, phi,
                                            psi):
    prob = Problem(interval64, GSpec(theta, 1), source, phi, psi)
    sol = solve_second_bvp(prob)
    w_again, u_again = phi_map(sol.w, 1.0, prob, u_init=sol.u)
    assert np.max(np.abs(w_again.values - sol.w.values)) <= 1e-10
    assert np.max(np.abs(u_again.values - sol.u.values)) <= 1e-10


def test_interval_takes_no_newton_step(interval64, monkeypatch):
    # The interval's system is linear and triangular: no coupled Newton,
    # no coupled Jacobian.  The step schedule and w0 change nothing there.
    def refuse(*args, **kwargs):
        raise AssertionError("coupled Newton on an interval")

    prob = Problem(interval64, GSpec(0.0, 1), 4.0, 0.0, 1.0)
    plain = solve_second_bvp(prob)
    monkeypatch.setattr(continuation, "_newton_step", refuse)
    monkeypatch.setattr(continuation, "factorize_coupled", refuse)
    opts = ContinuationOptions(t_steps=1, max_step_halvings=0)
    sol = solve_second_bvp(prob, opts,
                           w0=ScalarField.constant(interval64, 2.0))
    assert np.array_equal(sol.u.values, plain.u.values)
    assert np.array_equal(sol.w.values, plain.w.values)
    with pytest.raises(WFloorError):
        solve_second_bvp(Problem(interval64, GSpec(0.0, 1), 20.0, 0.0, 1.0))
    # w0 is still validated
    with pytest.raises(ValueError):
        solve_second_bvp(prob, w0=ScalarField.constant(interval64, 1e-12))


def test_singular_coupled_system_ends_only_its_step(disk32, monkeypatch):
    # A failed linear solve inside a coupled step becomes that step's trace
    # entry; the continuation halves the step and goes on.
    real_factorize = continuation.factorize_coupled
    coupled_calls = []

    def factorize_coupled(*args):
        coupled_calls.append(args)
        if len(coupled_calls) == 1:
            raise SingularSystemError("injected singular Jacobian")
        return real_factorize(*args)

    monkeypatch.setattr(continuation, "factorize_coupled", factorize_coupled)
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


def coupled_jacobian(grid, U, d, W, w):
    # the Jacobian from the coefficient fields rather than their weights
    return _coupled_jacobian(grid, stencil_weights(grid, U), d,
                             stencil_weights(grid, W), w)


def coupled_reference(grid, U, d, W, w):
    A = assemble_operator(grid, U)[0]
    C = assemble_operator(grid, W)[0]
    return sparse.bmat([[A, sparse.diags(d)],
                        [C, A @ sparse.diags(w[:grid.n_interior])]],
                       format="csr")


def convex_cofactor(grid, rng):
    pts = grid.points
    v = ScalarField(grid, (pts**2).sum(axis=1)
                    + rng.uniform(0.0, 0.1, len(pts)))
    return cofactor(hessian(v, grid), grid)


def test_coupled_jacobian_matches_bmat(disk32, rng):
    # [[A, diag(d)], [C, A diag(w)]], filled directly
    n = disk32.n_interior
    U, W = convex_cofactor(disk32, rng), convex_cofactor(disk32, rng)
    d = -rng.uniform(0.5, 2.0, n)
    w = rng.uniform(1e-6, 2.0, disk32.n_nodes)
    J = coupled_jacobian(disk32, U, d, W, w)
    ref = coupled_reference(disk32, U, d, W, w)
    assert J.shape == ref.shape and J.nnz == ref.nnz
    assert abs(J - ref).max() == 0.0


def test_coupled_jacobian_drops_the_zeros_it_finds(disk32, rng):
    # Zero coefficients (the cofactor of a linear w) make C all zero;
    # identity coefficients leave the diagonal arms of A, C and A diag(w)
    # at zero.
    n = disk32.n_interior
    U = convex_cofactor(disk32, rng)
    identity = MatrixField(disk32, np.tile(np.eye(2), (n, 1, 1)))
    zero = MatrixField(disk32, np.zeros((n, 2, 2)))
    w = rng.uniform(1e-6, 2.0, disk32.n_nodes)
    for U_case, W_case in [(identity, identity), (U, zero)]:
        d = -rng.uniform(0.5, 2.0, n)
        J = coupled_jacobian(disk32, U_case, d, W_case, w)
        ref = coupled_reference(disk32, U_case, d, W_case, w)
        assert J.shape == ref.shape and J.nnz == ref.nnz
        assert abs(J - ref).max() == 0.0
        assert np.all(J.data != 0.0)
    # a pattern compacted for one call leaves the next one whole
    J = coupled_jacobian(disk32, U, d, U, w)
    assert J.nnz == coupled_reference(disk32, U, d, U, w).nnz


class _Captured(Exception):
    pass


def newton_closures(problem, uv, wv, t, monkeypatch):
    # The residual and the Jacobian of `_newton_step` at (uv, wv), with
    # `factorize_coupled` returning its matrix rather than its solve.
    captured = {}

    def damped_newton(x, residual, jacobian, tol, max_iters):
        captured.update(x=x, residual=residual, jacobian=jacobian)
        raise _Captured

    monkeypatch.setattr(continuation, "damped_newton", damped_newton)
    monkeypatch.setattr(continuation, "factorize_coupled", _coupled_jacobian)
    with pytest.raises(_Captured):
        continuation._newton_step(uv, wv, t, problem,
                                  ContinuationOptions())
    return captured["x"], captured["residual"], captured["jacobian"]


@pytest.mark.parametrize("theta", [0.0, 0.25])
def test_coupled_jacobian_is_the_derivative_in_log_w(disk32, rng, theta,
                                                      monkeypatch):
    # J v against the central difference of the residual in (u, log w),
    # (F(x + eps v) - F(x - eps v)) / (2 eps), at an iterate where w is far
    # from 1 and from constant, so a wrong diagonal block d or a wrong
    # column scaling of the lower-right block shows.
    n = disk32.n_interior
    pts = disk32.points
    r2 = (pts**2).sum(axis=1)
    prob = Problem(disk32, GSpec(theta, 2), 30.0 * (1.0 + pts[:, 0]), 0.0,
                   1.0)
    uv = 0.5 * (r2 - 1.0) + 0.05 * np.sin(3.0 * pts[:, 0]) * (1.0 - r2)
    wv = np.exp(-4.0 * (1.0 - r2) + 0.3 * pts[:, 1])  # boundary: from psi
    x, residual, jacobian = newton_closures(prob, uv, wv, 0.5, monkeypatch)
    _, _, state = residual(x)
    J = jacobian(x, state)
    eps = 1e-6
    for _ in range(3):
        v = rng.standard_normal(x.size)
        Jv = J @ v
        diff = (residual(x + eps * v)[1] - residual(x - eps * v)[1]) / (
            2.0 * eps)
        for rows in (slice(None, n), slice(n, None)):  # each equation
            err = np.max(np.abs(diff[rows] - Jv[rows]))
            assert err <= 1e-6 * np.max(np.abs(Jv[rows]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jump", [1e6, -1e6, -720.0])
def test_a_trial_out_of_range_in_log_w_is_rejected(disk32, jump,
                                                   monkeypatch):
    # The first Newton step is made huge in log w.  Every trial's e^s
    # overflows, or underflows to 0, or (at -720) is subnormal, so that
    # Theta(e^s) = e^-s overflows.  Each trial gets residual inf and is
    # rejected, with no RuntimeWarning, and the halved step goes on.
    n = disk32.n_interior
    real_factorize = continuation.factorize_coupled
    calls = []

    def factorize_coupled(*args):
        solve = real_factorize(*args)
        calls.append(args)
        if len(calls) > 1:
            return solve

        def huge(rhs):
            step = solve(rhs)
            step[n:] += jump
            return step
        return huge

    monkeypatch.setattr(continuation, "factorize_coupled", factorize_coupled)
    sol = solve_second_bvp(Problem(disk32, GSpec(0.0, 2), 2.0, 0.0, 1.0))
    failed, halved = sol.iterations[:2]
    assert not failed["converged"] and not failed["floor_hit"]
    # one Newton step, whose every trial was rejected: Newton stopped at
    # its start
    assert (failed["iterations"], failed["factorizations"]) == (1, 1)
    assert "stalled" in failed["error"]
    assert halved["converged"] and halved["dt"] == failed["dt"] / 2
    assert sol.iterations[-1]["t"] == 1.0
    assert np.all(np.isfinite(sol.w.values)) and np.min(sol.w.values) > 0.0


@pytest.mark.parametrize("grid_name, source", [
    ("disk32", 600.0), ("disk32", 1000.0), ("disk32", 3000.0),
    ("disk64", 418.0), ("disk64", 1000.0), ("disk128", 200.0)])
def test_no_nonexistence_verdict_on_a_2d_grid(grid_name, source, request):
    # In two dimensions there is a solution for every f.  Each of these
    # sources once ended in a false exit-4 verdict; each solves, and passes
    # criterion 4's gates recomputed from u.
    grid = request.getfixturevalue(grid_name)
    prob = Problem(grid, GSpec(0.0, 2), source, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    el = np.max(np.abs(el_residual(sol.u, prob).interior))
    assert el <= 1e-4 * source
    assert np.min(sol.w.values) > 0.0
    assert np.min(det_field(hessian(sol.u, grid), grid).interior) > 0.0
    assert all(not e["floor_hit"] for e in sol.iterations)


def plain_continuation(problem, monkeypatch):
    # no grid is finer than the coarsest, so the grid runs the continuation
    with monkeypatch.context() as m:
        m.setattr(continuation, "_COARSEST_RESOLUTION", 10**9)
        return solve_second_bvp(problem)


@pytest.mark.parametrize("grid_name, source", [("disk64", 50.0),
                                               ("ellipse64", 5.0)])
def test_sequenced_solve_equals_the_continuation(grid_name, source, request,
                                                 monkeypatch):
    grid = request.getfixturevalue(grid_name)
    prob = Problem(grid, GSpec(0.0, 2), source, 0.0, 1.0)
    seq = solve_second_bvp(prob)
    plain = plain_continuation(prob, monkeypatch)
    assert np.max(np.abs(seq.u.values - plain.u.values)) <= 1e-10
    assert np.max(np.abs(seq.w.values - plain.w.values)) <= 1e-10
    # t is driven on the coarse grid; the fine grid takes one step at t = 1
    assert {e["resolution"] for e in plain.iterations} == {64}
    assert [e["resolution"] for e in seq.iterations] == [32] * 10 + [64]
    last = seq.iterations[-1]
    assert (last["t"], last["dt"], last["converged"]) == (1.0, 1.0, True)


def test_each_level_of_the_sequence_is_in_the_trace(interval64):
    disk65 = build_grid(DomainSpec.disk(1.0), 65)
    trace = solve_second_bvp(trivial_problem(disk65)).iterations
    assert [e["resolution"] for e in trace] == [17] * 10 + [33, 65]
    assert all(e["converged"] for e in trace)
    assert [(e["t"], e["dt"]) for e in trace[-2:]] == [(1.0, 1.0)] * 2
    # an interval takes the exact path: one entry, at t = 1
    trace = solve_second_bvp(trivial_problem(interval64)).iterations
    assert [e["resolution"] for e in trace] == [64]


def disk48_problem():
    return Problem(build_grid(DomainSpec.disk(1.0), 48), GSpec(0.0, 2), 2.0,
                   0.0, 1.0)


def test_failed_fine_step_falls_back_to_the_continuation(monkeypatch):
    prob = disk48_problem()
    plain = plain_continuation(prob, monkeypatch)
    real_step = continuation._newton_step
    fine_steps = []

    def newton_step(uv, wv, t, problem, opts):
        uv, wv, outcome = real_step(uv, wv, t, problem, opts)
        if problem.grid is prob.grid and not fine_steps:
            fine_steps.append(t)
            outcome = {**outcome, "converged": False, "error": "injected"}
        return uv, wv, outcome

    monkeypatch.setattr(continuation, "_newton_step", newton_step)
    sol = solve_second_bvp(prob)
    assert fine_steps == [1.0]
    assert np.array_equal(sol.u.values, plain.u.values)
    assert np.array_equal(sol.w.values, plain.w.values)
    coarse = [e for e in sol.iterations if e["resolution"] == 24]
    failed = sol.iterations[len(coarse)]
    assert (failed["t"], failed["dt"], failed["resolution"]) == (1.0, 1.0, 48)
    assert not failed["converged"] and failed["error"] == "injected"
    assert sol.iterations[len(coarse) + 1:] == plain.iterations


@pytest.mark.parametrize("failure", ["grid", "continuation"])
def test_coarse_solver_error_falls_back_to_the_continuation(failure,
                                                            monkeypatch):
    prob = disk48_problem()
    plain = plain_continuation(prob, monkeypatch)
    if failure == "grid":
        def build_grid(domain, resolution):
            raise GridResolutionError("injected")
        monkeypatch.setattr(continuation, "build_grid", build_grid)
    else:
        real_step = continuation._newton_step

        def newton_step(uv, wv, t, problem, opts):
            if problem.grid is prob.grid:
                return real_step(uv, wv, t, problem, opts)
            return uv, wv, {"iterations": 0, "factorizations": 0,
                            "residual": 1.0, "w_min": 1.0, "converged": False,
                            "floor_hit": False, "error": "injected"}
        monkeypatch.setattr(continuation, "_newton_step", newton_step)
    sol = solve_second_bvp(prob)
    assert np.array_equal(sol.u.values, plain.u.values)
    assert np.array_equal(sol.w.values, plain.w.values)
    # the coarse grid's failed steps, if any, then the plain continuation
    failed = (0 if failure == "grid"
              else ContinuationOptions().max_step_halvings + 1)
    assert [e["resolution"] for e in sol.iterations[:failed]] == [24] * failed
    assert not any(e["converged"] for e in sol.iterations[:failed])
    assert sol.iterations[failed:] == plain.iterations


def test_options_validation():
    with pytest.raises(ValueError):
        ContinuationOptions(t_steps=0)
    with pytest.raises(ValueError):
        ContinuationOptions(w_floor=0.0)
    with pytest.raises(ValueError):
        ContinuationOptions(max_step_halvings=-1)
