import numpy as np
import pytest
import scipy.sparse.linalg as spla
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
                                  NewtonDivergenceError, SingularSystemError,
                                  WFloorError)
from abreu_bvp.functionals import el_residual
from abreu_bvp.gfamily import invert_w
from abreu_bvp.lin_ma import (_coupled_jacobian, _coupled_pattern,
                              assemble_operator, stencil_weights)
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
    # every step is cheap (no factorization at all), so dt doubles each time
    assert [(e["t"], e["dt"]) for e in sol.iterations] == [
        (0.1, 0.1), (0.1 + 0.2, 0.2), (0.1 + 0.2 + 0.4, 0.4), (1.0, 0.8)]
    assert all(e["converged"] for e in sol.iterations)


def test_solution_is_a_fixed_point(disk32):
    g = disk32
    prob = Problem(g, GSpec(0.0, 2), 2.0, 0.0, 1.0)
    opts = ContinuationOptions()
    sol = solve_second_bvp(prob, opts)
    w_again, _ = phi_map(sol.w, 1.0, prob, opts)
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
    # near-singular w (min w ~ 1e-4): no step fails, and dt never shrinks
    g = disk32
    prob = Problem(g, GSpec(0.0, 2), 50.0, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    trace = sol.iterations
    assert [e["factorizations"] for e in trace] == [2, 4, 3, 3, 1, 1]
    assert [e["dt"] for e in trace] == [0.1, 0.2, 0.2, 0.2, 0.2, 0.4]
    assert all(e["converged"] for e in trace)
    assert all(a["dt"] <= b["dt"] for a, b in zip(trace, trace[1:]))
    assert trace[-1]["t"] == 1.0
    assert not any(e["floor_hit"] for e in sol.iterations)
    assert sol.el_residual_norm <= 1e-4 * 50.0
    assert np.min(sol.w.values) > 0.0
    assert np.min(sol.d.interior) > 0.0


def scripted_steps(monkeypatch, outcomes):
    # Replaces the coupled Newton by one that returns its input, no tangent,
    # and the next scripted (converged, factorizations) or (converged,
    # factorizations, contraction); returns the t's it was asked for.
    asked = []
    script = iter(outcomes)

    def newton_step(uv, wv, t, problem, shift=None):
        asked.append(t)
        converged, factorizations, *contraction = next(script)
        outcome = {"iterations": factorizations,
                   "factorizations": factorizations, "residual": 0.0,
                   "w_min": 1.0, "converged": converged, "floor_hit": False,
                   "predicted": False,
                   "contraction": contraction[0] if contraction else None}
        if not converged:
            outcome["error"] = "injected"
        return uv, wv, outcome, None

    monkeypatch.setattr(continuation, "_newton_step", newton_step)
    return asked


def test_the_step_doubles_after_cheap_steps_and_halves_after_failures(
        disk32, monkeypatch):
    prob = trivial_problem(disk32)
    # cheap steps: dt doubles each time, and the last step stops at t = 1
    scripted_steps(monkeypatch, [(True, 2)] * 4)
    trace = solve_second_bvp(prob).iterations
    assert [(e["t"], e["dt"]) for e in trace] == [
        (0.1, 0.1), (0.1 + 0.2, 0.2), (0.1 + 0.2 + 0.4, 0.4), (1.0, 0.8)]
    # three factorizations keep dt, a failure halves it
    scripted_steps(monkeypatch, [(True, 1), (True, 3), (False, 30),
                                 (True, 2), (True, 0), (True, 1)])
    trace = solve_second_bvp(prob).iterations
    assert [e["dt"] for e in trace] == [0.1, 0.2, 0.2, 0.1, 0.2, 0.4]
    assert [e["t"] for e in trace] == [
        0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.2, 0.1 + 0.2 + 0.1,
        0.1 + 0.2 + 0.1 + 0.2, 1.0]
    assert [e["converged"] for e in trace] == [True] * 2 + [False] + [True] * 3


def test_a_fast_contraction_quadruples_the_step(disk32, monkeypatch):
    # One factorization with a first contraction at most THETA_MAX/16:
    # dt grows 4 times, and the last step stops at t = 1.
    prob = trivial_problem(disk32)
    fast = continuation.THETA_MAX / 16.0
    asked = scripted_steps(monkeypatch, [(True, 1, 1e-3), (True, 1, fast),
                                         (True, 1, 1e-3)])
    trace = solve_second_bvp(prob).iterations
    assert [(e["t"], e["dt"]) for e in trace] == [
        (0.1, 0.1), (0.1 + 0.4, 0.4), (1.0, 1.6)]
    assert asked == [0.1, 0.1 + 0.4, 1.0]
    # a slower contraction, two factorizations, or no trial at all: twice
    scripted_steps(monkeypatch, [(True, 1, 2.0 * fast), (True, 2, 1e-3),
                                 (True, 1, None), (True, 1, 0.1)])
    trace = solve_second_bvp(prob).iterations
    assert [e["dt"] for e in trace] == [0.1, 0.2, 0.4, 0.8]
    assert [e["t"] for e in trace] == [0.1, 0.1 + 0.2, 0.1 + 0.2 + 0.4, 1.0]


def test_a_step_that_fails_at_one_is_not_retried_there(disk32,
                                                       monkeypatch):
    # Cheap steps reach t = 0.7 with dt = 0.8, so the next step is clipped
    # at t = 1.  When it fails, dt halves until the next step ends short of
    # t = 1: 0.4 would end at 1 again, 0.2 ends at 0.9.
    scripted_steps(monkeypatch, [(True, 2)] * 3 + [(False, 30)] * 2
                   + [(True, 3)] * 3)
    trace = solve_second_bvp(trivial_problem(disk32)).iterations
    assert [(e["t"], e["dt"], e["converged"]) for e in trace] == [
        (pytest.approx(0.1), 0.1, True), (pytest.approx(0.3), 0.2, True),
        (pytest.approx(0.7), 0.4, True), (1.0, 0.8, False),
        (pytest.approx(0.9), 0.2, False), (pytest.approx(0.8), 0.1, True),
        (pytest.approx(0.9), 0.1, True), (1.0, 0.1, True)]
    assert not any(a["t"] == b["t"] and not (a["converged"] or b["converged"])
                   for a, b in zip(trace, trace[1:]))


def test_a_failure_at_the_step_floor_ends_the_continuation(disk32,
                                                          monkeypatch):
    opts = ContinuationOptions()
    dt_min = 0.1 / 2**opts.max_step_halvings
    asked = scripted_steps(monkeypatch, [(False, 5)] * 100)
    with pytest.raises(ContinuationError) as ei:
        solve_second_bvp(trivial_problem(disk32), opts)
    trace = ei.value.trace
    assert len(trace) == opts.max_step_halvings + 1 == len(asked)
    assert [e["dt"] for e in trace] == [
        0.1 / 2**k for k in range(opts.max_step_halvings + 1)]
    assert trace[-1]["dt"] == dt_min
    assert ei.value.last_good_t == 0.0


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
              "residual", "w_min", "converged", "floor_hit", "predicted",
              "contraction"}


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
    # no Newton ran: nothing was predicted, and there is no contraction
    assert not entry["predicted"] and entry["contraction"] is None
    assert all(np.isfinite(v) for k, v in entry.items()
               if k not in ("error", "contraction"))
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
        assert not entry["predicted"] and entry["contraction"] is None
        assert all(np.isfinite(v) for k, v in entry.items()
                   if k != "contraction")


def sine_source(x, y):
    return 2.0 + 2.0 * np.sin(3.0 * x)


@pytest.mark.parametrize("source, theta, phi, psi", [
    (4.0, 0.0, 0.0, 1.0), (7.0, 0.0, 0.0, 1.0), (-30.0, 0.0, 0.0, 1.0),
    (sine_source, 0.3, [0.2, -0.1], [0.7, 1.4])])
def test_interval_solution_is_a_fixed_point(interval64, source, theta, phi,
                                            psi):
    prob = Problem(interval64, GSpec(theta, 1), source, phi, psi)
    sol = solve_second_bvp(prob)
    w_again, u_again = phi_map(sol.w, 1.0, prob)
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


@pytest.mark.parametrize("source, theta", [(7.0, 0.0), (20.0, 0.3)])
def test_an_interval_solve_makes_one_lu(interval64, monkeypatch, source,
                                        theta):
    # w_1 and u are solves with the one unit operator: one LU serves both,
    # in the solve and in the nonexistence verdict alike.
    made = []
    real_splu = spla.splu

    def splu(*args, **kwargs):
        made.append(args)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu)
    prob = Problem(interval64, GSpec(theta, 1), source, 0.0, 1.0)
    try:
        trace = solve_second_bvp(prob).iterations
    except WFloorError as exc:
        trace = exc.trace
    assert len(made) == 1
    (entry,) = trace
    assert entry["factorizations"] == 1


def test_the_fine_coupled_lus_exchange_no_rows(monkeypatch):
    # Static pivoting: on disk48 f = 50 every coupled LU of the fine grid
    # keeps its diagonal pivots, so SuperLU's row permutation is the
    # identity and the nested-dissection fill holds.  SuperLU's default
    # partial pivoting exchanges 933-1122 rows in each of them.
    grid = build_grid(DomainSpec.disk(1.0), 48)
    made = []
    real_splu = spla.splu

    def splu(A, *args, **kwargs):
        made.append(real_splu(A, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(spla, "splu", splu)
    sol = solve_second_bvp(Problem(grid, GSpec(0.0, 2), 50.0, 0.0, 1.0))
    size = 2 * grid.n_interior
    fine = [lu for lu in made if lu.shape == (size, size)]
    assert len(fine) == sum(entry["factorizations"]
                            for entry in sol.iterations
                            if entry["resolution"] == 48) > 0
    for lu in fine:
        assert np.array_equal(lu.perm_r, np.arange(size))


def test_disk128_solves_with_no_fallback(disk128):
    # theta = 0, f = 5(1 + 0.3x - 0.2y): the fine Newton ends at a scaled
    # residual of about 7e-12, just under _NEWTON_TOL, so LUs that lose
    # accuracy (as with partial pivoting) stall it, and the run exits 3.
    # The fine grid takes its one step at t = 1 from the coarser grids'
    # solution, and the solution meets criterion 4's gates.
    f = disk128.field(lambda x, y: 5.0 * (1.0 + 0.3 * x - 0.2 * y))
    sol = solve_second_bvp(Problem(disk128, GSpec(0.0, 2), f, 0.0, 1.0))
    (fine,) = [e for e in sol.iterations if e["resolution"] == 128]
    assert (fine["t"], fine["dt"], fine["converged"]) == (1.0, 1.0, True)
    assert sol.el_residual_norm <= 1e-4 * np.max(np.abs(f.values))
    assert np.min(sol.w.values) > 0.0
    assert np.min(sol.d.interior) > 0.0


def test_a_newton_error_fails_the_step_whatever_its_residual(disk32,
                                                             monkeypatch):
    # A coupled step converges only when damped_newton reports no error:
    # one that reports an error is not converged, even with its residual
    # below _NEWTON_TOL.
    real_newton = continuation.damped_newton
    calls = []

    def damped_newton(*args):
        result = real_newton(*args)
        calls.append(result.error)
        if len(calls) == 1:
            result = result._replace(
                error=NewtonDivergenceError("injected divergence"))
        return result

    monkeypatch.setattr(continuation, "damped_newton", damped_newton)
    sol = solve_second_bvp(Problem(disk32, GSpec(0.0, 2), 2.0, 0.0, 1.0))
    assert calls[0] is None  # the real Newton converged
    failed, halved = sol.iterations[:2]
    assert failed["residual"] <= continuation._NEWTON_TOL
    assert not failed["converged"] and not failed["floor_hit"]
    assert "injected divergence" in failed["error"]
    assert halved["converged"] and halved["dt"] == failed["dt"] / 2
    assert sol.iterations[-1]["t"] == 1.0


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


def path_point(problem, ts):
    # Converged coupled steps from t = 0 through ts; the last one's node
    # values and tangent.
    grid = problem.grid
    wv = np.ones(grid.n_nodes)
    uv = continuation.solve_ma(
        grid, ScalarField(grid, invert_w(problem.gspec, wv)),
        problem.phi).values
    for t in ts:
        uv, wv, outcome, tangent = continuation._newton_step(uv, wv, t,
                                                             problem)
        assert outcome["converged"]
    return uv, wv, tangent


@pytest.mark.parametrize("tilt", [0.0, 0.5])
def test_the_tangent_is_the_derivative_of_the_path(disk32, tilt):
    # dx/dt from the step's live LU against the central difference of
    # converged solutions at t +- delta, in the interior (u, log w).  The
    # LU is that of the last Newton iteration, not of the solution, so the
    # tangent is off by about 1 % (measured: 2.9e-3 in u, 8.4e-3 in log w,
    # for either psi); the difference's own error is below 1e-6 at this
    # delta.  psi = 1 + 0.5 x on the boundary moves w's boundary values
    # with t, a term of dF/dt that psi = 1 leaves out.
    n = disk32.n_interior
    psi = 1.0 + tilt * disk32.boundary_points[:, 0]
    prob = Problem(disk32, GSpec(0.25, 2),
                   lambda x, y: -30.0 * (1.0 + 0.3 * x - 0.2 * y), 0.0, psi)
    uv, wv, tangent = path_point(prob, [0.1, 0.2, 0.3, 0.4, 0.5])
    delta = 1e-3
    ends = []
    for t in (0.5 + delta, 0.5 - delta):
        u_t, w_t, outcome, _ = continuation._newton_step(uv, wv, t, prob)
        assert outcome["converged"]
        ends.append(np.concatenate([u_t[:n], np.log(w_t[:n])]))
    diff = (ends[0] - ends[1]) / (2.0 * delta)
    for rows in (slice(None, n), slice(n, None)):
        err = np.max(np.abs(tangent[rows] - diff[rows]))
        assert err <= 2e-2 * np.max(np.abs(diff[rows]))
    # no tangent at t = 1, where the continuation ends
    assert continuation._newton_step(uv, wv, 1.0, prob)[3] is None


def test_the_guard_refuses_a_tangent_of_the_wrong_sign(disk32, monkeypatch):
    # disk32 f = 2 starts its second and third steps from the predictor.
    # With the tangent's sign flipped the predicted start has the larger
    # residual, so every step starts from the last solution and converges.
    prob = Problem(disk32, GSpec(0.0, 2), 2.0, 0.0, 1.0)
    plain = solve_second_bvp(prob)
    assert [e["predicted"] for e in plain.iterations] == [False, True, True]
    real_step = continuation._newton_step

    def newton_step(uv, wv, t, problem, shift=None):
        uv, wv, outcome, tangent = real_step(uv, wv, t, problem, shift)
        return uv, wv, outcome, None if tangent is None else -tangent

    monkeypatch.setattr(continuation, "_newton_step", newton_step)
    sol = solve_second_bvp(prob)
    assert [(e["t"], e["converged"], e["predicted"])
            for e in sol.iterations] == [(0.1, True, False),
                                         (0.5, True, False),
                                         (1.0, True, False)]
    assert np.max(np.abs(sol.w.values - plain.w.values)) <= 1e-10


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("grid_name", ["disk32", "interval64"])
def test_a_non_finite_initial_iterate_is_rejected(grid_name, bad, request):
    grid = request.getfixturevalue(grid_name)
    w0 = np.ones(grid.n_nodes)
    w0[grid.n_interior // 2] = bad
    with pytest.raises(ValueError, match="w0 must be finite"):
        solve_second_bvp(trivial_problem(grid), w0=ScalarField(grid, w0))


def coupled_jacobian(grid, U, d, W, w):
    # the Jacobian from the coefficient fields rather than their weights
    return _coupled_jacobian(grid, stencil_weights(grid, U), d,
                             stencil_weights(grid, W), w)


def factor_order(grid):
    # each interior node's u and log w side by side, in nested dissection
    return grid.cached(_coupled_pattern).order


def natural_operator(grid, U):
    # the interior operator in the natural order: assemble_operator's
    # matrix permuted back from nested dissection
    back = np.argsort(grid.nd_order)
    return assemble_operator(grid, stencil_weights(grid, U))[back][:, back]


def coupled_reference(grid, U, d, W, w):
    # the coupled Jacobian in factor order, as `_coupled_jacobian` holds it
    A = natural_operator(grid, U)
    C = natural_operator(grid, W)
    order = factor_order(grid)
    return sparse.bmat([[A, sparse.diags(d)],
                        [C, A @ sparse.diags(w[:grid.n_interior])]],
                       format="csr")[order][:, order]


def convex_cofactor(grid, rng):
    pts = grid.points
    v = ScalarField(grid, (pts**2).sum(axis=1)
                    + rng.uniform(0.0, 0.1, len(pts)))
    return cofactor(hessian(v, grid), grid)


def test_coupled_jacobian_matches_bmat(disk32, rng):
    # [[A, diag(d)], [C, A diag(w)]] in factor order, filled directly
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

    def damped_newton(x, residual, jacobian, tol, max_iters, start=None):
        captured.update(x=x, residual=residual, jacobian=jacobian)
        raise _Captured

    monkeypatch.setattr(continuation, "damped_newton", damped_newton)
    monkeypatch.setattr(continuation, "factorize_coupled", _coupled_jacobian)
    with pytest.raises(_Captured):
        continuation._newton_step(uv, wv, t, problem)
    return captured["x"], captured["residual"], captured["jacobian"]


@pytest.mark.parametrize("theta", [0.0, 0.25])
def test_coupled_jacobian_is_the_derivative_in_log_w(disk32, rng, theta,
                                                      monkeypatch):
    # J v against the central difference of the residual in (u, log w),
    # (F(x + eps v) - F(x - eps v)) / (2 eps), at an iterate where w is far
    # from 1 and from constant, so a wrong diagonal block d or a wrong
    # column scaling of the lower-right block shows.  J is in factor order,
    # where the u-rows are the even ones and the w-rows the odd ones.
    order = factor_order(disk32)
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
        Jv = J @ v[order]
        diff = (residual(x + eps * v)[1] - residual(x - eps * v)[1])[
            order] / (2.0 * eps)
        for rows in (slice(0, None, 2), slice(1, None, 2)):  # each equation
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
    assert "no damping above" in failed["error"]
    assert halved["converged"] and halved["dt"] == failed["dt"] / 2
    assert sol.iterations[-1]["t"] == 1.0
    assert np.all(np.isfinite(sol.w.values)) and np.min(sol.w.values) > 0.0


def test_a_step_out_of_newton_iterations_says_so(disk32, monkeypatch):
    # A step that runs out of its Newton budget records that reason, not a
    # generic stall.
    monkeypatch.setattr(continuation, "_NEWTON_MAX_ITERS", 1)
    prob = Problem(disk32, GSpec(0.0, 2), 50.0, 0.0, 1.0)
    try:
        trace = solve_second_bvp(prob).iterations
    except ContinuationError as exc:
        trace = exc.trace
    failed = next(entry for entry in trace if not entry["converged"])
    assert "no convergence in 1 Newton iterations" in failed["error"]


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
    coarse_steps = {"disk64": 6, "ellipse64": 3}[grid_name]
    assert ([e["resolution"] for e in seq.iterations]
            == [32] * coarse_steps + [64])
    last = seq.iterations[-1]
    assert (last["t"], last["dt"], last["converged"]) == (1.0, 1.0, True)


def test_each_level_of_the_sequence_is_in_the_trace(interval64):
    disk65 = build_grid(DomainSpec.disk(1.0), 65)
    trace = solve_second_bvp(trivial_problem(disk65)).iterations
    assert [e["resolution"] for e in trace] == [17] * 4 + [33, 65]
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

    def newton_step(uv, wv, t, problem, shift=None):
        uv, wv, outcome, tangent = real_step(uv, wv, t, problem, shift)
        if problem.grid is prob.grid and not fine_steps:
            fine_steps.append(t)
            outcome = {**outcome, "converged": False, "error": "injected"}
        return uv, wv, outcome, tangent

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


def fine_step_that_fails_falls_back(resolution):
    # No failure injected: with f = 1000(1 + 0.3x - 0.2y) on the ellipse
    # the step at t = 1 from the half-resolution solution finds no damping,
    # and the fine grid's own continuation then reaches t = 1.
    grid = build_grid(DomainSpec.ellipse(1.5, 0.75), resolution)
    prob = Problem(grid, GSpec(0.0, 2),
                   lambda x, y: 1000.0 * (1.0 + 0.3 * x - 0.2 * y), 0.0, 1.0)
    sol = solve_second_bvp(prob)
    trace = sol.iterations
    assert ([e["resolution"] for e in trace]
            == [resolution // 2] * 6 + [resolution] * 7)
    failed = trace[6]
    assert (failed["t"], failed["dt"], failed["converged"]) == (1.0, 1.0,
                                                                False)
    # both continuations take the same steps
    steps = [0.1, 0.1, 0.1, 0.2, 0.4, 0.8]
    for path in (trace[:6], trace[7:]):
        assert [e["dt"] for e in path] == steps
        assert all(e["converged"] for e in path)
        assert path[-1]["t"] == 1.0
    # criterion 4's gates, recomputed from u
    el = np.max(np.abs(el_residual(sol.u, prob).interior))
    assert el <= 1e-4 * 1000.0
    assert np.min(sol.w.values) > 0.0
    assert np.min(det_field(hessian(sol.u, grid), grid).interior) > 0.0


def test_a_fine_step_that_fails_falls_back_on_its_own():
    fine_step_that_fails_falls_back(40)


def test_a_fallback_with_a_tight_linear_solve_refines_and_solves():
    # At resolution 64 the fallback continuation's coupled solves leave a
    # relative residual near 1e-9, above LINEAR_TOL, on their first try;
    # without refinement every step failed and the solve ended in
    # ContinuationError.
    fine_step_that_fails_falls_back(64)


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

        def newton_step(uv, wv, t, problem, shift=None):
            if problem.grid is prob.grid:
                return real_step(uv, wv, t, problem, shift)
            return uv, wv, {"iterations": 0, "factorizations": 0,
                            "residual": 1.0, "w_min": 1.0, "converged": False,
                            "floor_hit": False, "predicted": False,
                            "contraction": None, "error": "injected"}, None
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


def test_a_fine_resolve_that_raises_falls_back_to_the_continuation(
        monkeypatch):
    # The fine grid's re-solve of u from the coarse log w is the first
    # solve_ma call on the fine grid; when it raises, the fine grid runs
    # the continuation, and no fine step is taken at t = 1 first.
    prob = disk48_problem()
    plain = plain_continuation(prob, monkeypatch)
    real_solve_ma = continuation.solve_ma
    resolves = []

    def solve_ma(grid, g, phi, opts=None):
        if grid is prob.grid and not resolves:
            resolves.append(grid.resolution)
            raise NewtonDivergenceError(
                "line search found no damping above 0.01")
        return real_solve_ma(grid, g, phi, opts)

    monkeypatch.setattr(continuation, "solve_ma", solve_ma)
    sol = solve_second_bvp(prob)
    assert resolves == [48]
    assert np.array_equal(sol.u.values, plain.u.values)
    assert np.array_equal(sol.w.values, plain.w.values)
    coarse = sol.iterations[:3]
    assert [e["resolution"] for e in coarse] == [24] * 3
    assert all(e["converged"] for e in coarse)
    assert coarse[-1]["t"] == 1.0
    assert sol.iterations[3:] == plain.iterations


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("grid_name", ["disk16", "interval64"])
def test_a_non_finite_source_is_rejected(grid_name, bad, request):
    # One bad node would otherwise reach the solver: on a disk the coupled
    # residual's max() skips a NaN row and reports convergence.
    grid = (build_grid(DomainSpec.disk(1.0), 16) if grid_name == "disk16"
            else request.getfixturevalue(grid_name))
    f = np.full(grid.n_nodes, 2.0)
    f[grid.n_interior // 2] = bad
    with pytest.raises(ValueError, match="f must be finite"):
        Problem(grid, GSpec(0.0, grid.dim), ScalarField(grid, f), 0.0, 1.0)


def test_options_validation():
    with pytest.raises(ValueError):
        ContinuationOptions(t_steps=0)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ContinuationOptions(w_floor=bad)
    with pytest.raises(ValueError):
        ContinuationOptions(max_step_halvings=-1)
    # 1/(t_steps 2^k) underflows to 0: no step floor
    with pytest.raises(ValueError, match="step floor"):
        ContinuationOptions(max_step_halvings=2000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5])
@pytest.mark.parametrize("name", ["t_steps", "max_step_halvings"])
def test_step_counts_must_be_integers(name, bad):
    # A NaN t_steps made every retry a step to t = 1 that never halved
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ContinuationOptions(**{name: bad})


def test_a_deep_step_floor_still_solves(disk32):
    # 2^-1023 is below the least normal double, but the floor is positive
    opts = ContinuationOptions(max_step_halvings=1023)
    sol = solve_second_bvp(Problem(disk32, GSpec(0.0, 2), 2.0, 0.0, 1.0),
                           opts)
    assert sol.iterations[-1]["t"] == 1.0
    assert all(e["converged"] for e in sol.iterations)
