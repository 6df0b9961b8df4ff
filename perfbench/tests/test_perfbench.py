"""Tests of the benchmark itself: tracing, wrapper removal, failure counts."""

import contextlib
import io
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_solver()

import scipy.sparse.linalg as spla  # noqa: E402

import abreu_bvp  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def bindings():
    """Every function bound in the solver's modules and in scipy's solvers."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "abreu_bvp" or name.startswith("abreu_bvp."):
            for attr, obj in vars(module).items():
                if callable(obj):
                    out[name, attr] = obj
    for attr in tracing.SPARSE_ENTRY_POINTS:
        out["scipy.sparse.linalg", attr] = getattr(spla, attr)
    return out


def traced_pass(seed):
    bench = run.Run(workloads.make("interval-threshold", seed))
    tracer = tracing.Tracer()
    with tracer.installed():
        bench.one_pass(tracer)
    return bench, tracer


def test_traced_runs_with_one_seed_repeat_their_call_counts():
    counts = []
    for _ in range(2):
        bench, tracer = traced_pass(seed=11)
        layers = run.layer_metrics(bench, tracer)
        units = {name: unit for name, unit, _ in run.PER_LAYER}
        counts.append((Counter(tracer.names),
                       {k: v for k, v in layers.items()
                        if units[k] == "count"}))
    assert counts[0] == counts[1]
    spans, layers = counts[0]
    assert spans["continuation.solve_second_bvp"] == 5
    assert layers["sparse.factor.calls"] > 0
    assert layers["continuation.picard_iters"] == spans["continuation.phi_map"]


def test_every_binding_site_is_wrapped_and_restored():
    before = bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # from-imports in other modules are wrapped, not only the origin
            for module, attr in (("continuation", "solve_ma"),
                                 ("continuation", "assemble_operator"),
                                 ("ma_dirichlet", "solve_system"),
                                 ("functionals", "assemble_operator"),
                                 ("continuation", "el_residual"),
                                 ("continuation", "standard_diagnostics")):
                bound = getattr(getattr(abreu_bvp, module), attr)
                assert bound is not before["abreu_bvp." + module, attr]
            assert spla.spsolve is not before["scipy.sparse.linalg",
                                              "spsolve"]
            raise RuntimeError("the wrappers must go even on an error")
    assert bindings() == before
    assert not tracer.recording


def test_a_wrong_verdict_counts_as_a_failed_call():
    bench = run.Run(workloads.make("interval-threshold", 3))
    fs = bench.workload.params["f"]

    def wrong_verdicts(sweep):
        # Every case reports nonexistence at a product just under f* = 8:
        # right for the three cases above 8, wrong for the two below it.
        return [workloads.Call(f"f={c}", error=abreu_bvp.WFloorError(
            "injected", last_good_t=7.9 / c)) for c in fs]

    bench.workload.solve = wrong_verdicts
    bench.one_pass()
    bench.between_passes(time.perf_counter())
    metrics = {"setup_s": 1.0, "solve_s": 1.0, "peak_rss_mb": 1.0}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report("interval-threshold", 3, bench, metrics)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert sum(c < workloads.F_STAR for c in fs) == 2
    assert (result["attempted"], result["failed"]) == (5, 2)
    assert result["correct"] is False
    assert "(2 of 5 calls)" in out.getvalue()


def test_a_verdict_beyond_the_discrete_threshold_fails():
    wl = workloads.make("interval-threshold", 3)
    sweep = wl.setup()
    f_star_h = workloads.discrete_threshold(sweep.grid)
    assert 8.0 < f_star_h < 8.0 * (1.0 + 2.0 * sweep.grid.hx**2)
    calls = [workloads.Call(str(c), error=abreu_bvp.WFloorError(
        "injected", last_good_t=(f_star_h + 1e-3) / c)) for c in wl.params["f"]]
    wl.check(sweep, calls)
    assert not any(call.passed for call in calls)


def test_an_early_verdict_fails_and_the_default_schedule_clears_the_floor():
    wl = workloads.make("interval-threshold", 3)
    sweep = wl.setup()
    above = [c for c in wl.params["f"] if c > workloads.F_STAR]
    # The bound derived at VERDICT_FLOOR, for the default step schedule.
    opts = abreu_bvp.ContinuationOptions()
    dt_min = 1.0 / (opts.t_steps * 2**opts.max_step_halvings)
    f_star_h = workloads.discrete_threshold(sweep.grid)
    assert min(f_star_h * (1.0 - opts.w_floor) - c * dt_min
               for c in above) > workloads.VERDICT_FLOOR
    for last_good_t in (0.0, 0.1 / 9.0):
        calls = [workloads.Call(str(c), error=abreu_bvp.WFloorError(
            "injected", last_good_t=last_good_t)) for c in wl.params["f"]]
        wl.check(sweep, calls)
        assert not any(call.passed for call in calls)


def test_the_disk_gate_recomputes_the_residual_from_u():
    wl = workloads.DiskWorkload(12, 2.0, np.random.default_rng(0))
    problem = wl.setup()
    grid = problem.grid
    # u = |x|^2 / 2 has w = 1, so U^ij w_ij - f = -f: far from a solution,
    # though it claims a zero residual.
    u = abreu_bvp.ScalarField(grid, 0.5 * np.sum(grid.points**2, axis=1))
    d = abreu_bvp.det_field(abreu_bvp.hessian(u, grid), grid)
    claim = abreu_bvp.Solution(u=u, w=abreu_bvp.ScalarField.constant(grid, 1.0),
                               d=d, el_residual_norm=0.0, iterations=[],
                               diagnostics=None)
    calls = [workloads.Call("claim", result=claim)]
    wl.check(problem, calls)
    assert not calls[0].passed
    assert calls[0].values["el_residual_rel"] > 0.5


def test_a_failed_call_makes_the_exit_status_nonzero(monkeypatch):
    bench = run.Run(workloads.make("interval-threshold", 3))
    bench.failures.append(("f=9", "injected"))
    bench.attempted = 5
    bench.between_passes(time.perf_counter())
    metrics = {"setup_s": 1.0, "solve_s": 1.0, "peak_rss_mb": 1.0}
    monkeypatch.setattr(run, "measure", lambda *a: (bench, metrics, None))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run.main(["--workload", "interval-threshold"]) == 1


def test_times_and_only_times_are_scaled_by_the_reference_kernel():
    bench, metrics, _ = run.measure("interval-threshold", 0, 0.1, False)
    assert len(bench.solve_s[False]) == 1 and bench.kernel_s
    scale = reference.REFERENCE_S / np.median(bench.kernel_s)
    assert metrics["solve_s"] == pytest.approx(bench.solve_s[False][0] * scale)
    assert metrics["setup_s"] == pytest.approx(np.median(bench.setup_s)
                                               * scale)
    rss = metrics["peak_rss_mb"]
    assert run.scaled({"peak_rss_mb": rss}, 2.0)["peak_rss_mb"] == rss


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        n for n, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
