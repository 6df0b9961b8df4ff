"""Solve benchmark for abreu_bvp, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py                     # every workload, in turn
    python3 perfbench/run.py --workload disk-mild --seed 3 --seconds 30
    python3 perfbench/run.py --workload disk-strong --trace 1

One run of a workload draws its inputs from --seed and repeats passes
(fresh grid, then the solve calls) for --seconds, checking every call of
every pass against its correctness gate.  It starts another pass only
when the last one, repeated, would end within --seconds, so a run of long
passes does not overshoot by most of a pass.  Before each pass and at the
end it also sets up alone, and runs the reference kernel of reference.py,
each until it has taken a twentieth of the run so far, so the set-up
median and the kernel median rest on samples spread over the run.  Every
time reported is scaled to a machine of fixed speed by the kernel's median
(see reference.py); the summary also prints the times as measured.  The
bounds and baseline recorded with the benchmark hold for --seconds equal
to run_seconds in BENCHMARK.json.

With --trace 0 it reports the end-to-end metrics: the median set-up and
solve times and the process's peak RSS.  The first pass warms caches and
is left out of the solve-time median when the run made three or more.
With --trace 1 it spends half the time untraced and half with wrappers
installed around the solver's public functions (see tracer.py), and
reports per-pass layer figures; the spans are written to .perfbench/ when
the run ends.  The last line of standard output is one JSON object.

The solver is imported from src/ next to this directory, with
ABREU_BVP_THREADS=1 set before the import.  The exit status is 0 when
every call passed its gate and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
# Share of a run's time spent setting up alone, outside the passes, and
# again running the reference kernel.
SIDE_SHARE = 0.05
# Gate values printed, where a workload has them, as their range.
GATE_VALUES = (
    ("oracle_err", "sup|u - u_oracle| over the solved cases"),
    ("last_good_tf", "last_good_t f over the exit-4 verdicts; gate "
                     "[0.95 f*, f*_h = 8 / (1 - h^2)]"),
)

# (name, unit, better), as recorded in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("mesh.build_grid.s", "s", "lower"),
    ("mesh.hessian.calls", "count", "lower"),
    ("mesh.hessian.s", "s", "lower"),
    ("lin_ma.assemble_operator.calls", "count", "lower"),
    ("lin_ma.assemble_operator.s", "s", "lower"),
    ("lin_ma.solve_system.calls", "count", "lower"),
    ("lin_ma.solve_system.s", "s", "lower"),
    ("lin_ma.solve_linearized.calls", "count", "lower"),
    ("lin_ma.solve_linearized.s", "s", "lower"),
    ("sparse.factor.calls", "count", "lower"),
    ("sparse.factor.s", "s", "lower"),
    ("sparse.factor.coupled_calls", "count", "lower"),
    ("ma_dirichlet.solve_ma.calls", "count", "lower"),
    ("ma_dirichlet.solve_ma.s", "s", "lower"),
    ("ma_dirichlet.linear_solves", "count", "lower"),
    ("ma_dirichlet.line_search_evals", "count", "lower"),
    ("continuation.t_steps", "count", "lower"),
    ("continuation.halvings", "count", "lower"),
    ("continuation.picard_iters", "count", "lower"),
    ("continuation.rescues", "count", "lower"),
    ("continuation.self_s", "s", "lower"),
    ("continuation.w_min", "1", "higher"),
    ("functionals.el_residual.s", "s", "lower"),
    ("estimates.standard_diagnostics.s", "s", "lower"),
    ("functionals.el_residual_rel", "1", "lower"),
    ("trace.overhead_frac", "1", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def load_solver():
    """Import abreu_bvp from this checkout's src/, single-threaded."""
    if not (SRC / "abreu_bvp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no solver sources under {SRC}")
    os.environ["ABREU_BVP_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import abreu_bvp
    if Path(abreu_bvp.__file__).resolve().parent != SRC / "abreu_bvp":
        raise SystemExit(f"perfbench: imported {abreu_bvp.__file__}, "
                         f"not the solver under {SRC}")


class Run:
    """Timings, gate outcomes and gate values of one workload's run."""

    def __init__(self, workload):
        self.workload = workload
        self.setup_s = []
        self.alone_s = 0.0
        self.kernel_s = []
        self.solve_s = {False: [], True: []}
        self.attempted = 0
        self.failures = []
        self.values = defaultdict(list)
        self.traced_steps = []
        self.n_interior = None

    def between_passes(self, start):
        """Set up alone, and run the reference kernel, each at least once
        and until it has taken SIDE_SHARE of the time since `start`."""
        from reference import kernel

        self.alone_s = fill_share(self.workload.setup, self.setup_s,
                                  self.alone_s, start)
        fill_share(kernel, self.kernel_s, sum(self.kernel_s), start)

    def speed_scale(self):
        """Factor that turns this run's times into times on a machine that
        runs the reference kernel in REFERENCE_S."""
        from reference import REFERENCE_S

        return REFERENCE_S / statistics.median(self.kernel_s)

    def one_pass(self, tracer=None):
        """Set up, solve, then check the calls with tracing paused."""
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        state = self.workload.setup()
        t1 = time.perf_counter()
        calls = self.workload.solve(state)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.recording = False
            self.traced_steps.extend(step for call in calls
                                     for step in call.continuation_steps())
        self.setup_s.append(t1 - t0)
        self.solve_s[tracer is not None].append(t2 - t1)
        self.workload.check(state, calls)
        self.n_interior = state.grid.n_interior
        self.attempted += len(calls)
        for call in calls:
            if not call.passed:
                self.failures.append((call.label, call.note))
            for key, value in call.values.items():
                self.values[key].append(value)


def fill_share(work, samples, spent, start):
    """Run `work`, appending its times to `samples`, at least once and
    until `spent` plus those times reaches SIDE_SHARE of the time since
    `start`; return that sum."""
    while True:
        t0 = time.perf_counter()
        work()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
        if spent >= SIDE_SHARE * (time.perf_counter() - start):
            return spent


def repeat_until(deadline, step):
    """Run `step` at least once, and again while another one as long as the
    last would end by `deadline`."""
    while True:
        t0 = time.perf_counter()
        step()
        gc.collect()
        t1 = time.perf_counter()
        if t1 + (t1 - t0) > deadline:
            return


def warm_median(samples):
    """Median pass time, leaving out the first (warm-up) pass when there
    are three or more."""
    return statistics.median(samples[1:] if len(samples) >= 3 else samples)


def setup_then_pass(run, start, tracer=None):
    run.between_passes(start)
    gc.collect()
    run.one_pass(tracer)


def measure(name, seed, seconds, trace):
    # Imported here: both import numpy or the solver, after load_solver().
    import tracer as tracing
    import workloads

    run = Run(workloads.make(name, seed))
    start = time.perf_counter()
    untraced_end = start + (seconds / 2.0 if trace else seconds)
    repeat_until(untraced_end, lambda: setup_then_pass(run, start))
    run.between_passes(start)
    if not trace:
        metrics = {
            "setup_s": statistics.median(run.setup_s),
            "solve_s": warm_median(run.solve_s[False]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return run, scaled(metrics, run.speed_scale()), None
    tracer = tracing.Tracer()
    with tracer.installed():
        repeat_until(start + seconds,
                     lambda: setup_then_pass(run, start, tracer))
    metrics = layer_metrics(run, tracer)
    metrics["trace.overhead_frac"] = (statistics.median(run.solve_s[True])
                                      / warm_median(run.solve_s[False])
                                      - 1.0)
    metrics = scaled(metrics, run.speed_scale())
    return run, {key: metrics[key] for key, _, _ in PER_LAYER}, tracer


def scaled(metrics, scale):
    """`metrics` with every time multiplied by `scale`."""
    return {k: v * scale if UNITS[k] == "s" else v
            for k, v in metrics.items()}


def layer_metrics(run, spans):
    """Per-pass layer figures from the spans and public outputs of the
    traced passes (every figure but the tracing overhead)."""
    from tracer import busy_seconds, outermost

    kids = defaultdict(list)
    for i, parent in enumerate(spans.parents):
        kids[parent].append(i)

    def named(target):
        return lambda name: name == target

    def span_seconds(i):
        return spans.ends[i] - spans.starts[i]

    out = {}
    for layer in ("mesh.hessian", "lin_ma.assemble_operator",
                  "lin_ma.solve_system", "lin_ma.solve_linearized",
                  "ma_dirichlet.solve_ma"):
        idx = outermost(spans, named(layer))
        out[f"{layer}.calls"] = len(idx)
        out[f"{layer}.s"] = busy_seconds(spans, idx)
    for layer in ("mesh.build_grid", "functionals.el_residual",
                  "estimates.standard_diagnostics"):
        out[f"{layer}.s"] = busy_seconds(spans, outermost(spans,
                                                          named(layer)))

    factor = outermost(spans, lambda name: name.startswith("sparse."))
    out["sparse.factor.calls"] = len(factor)
    out["sparse.factor.s"] = busy_seconds(spans, factor)
    out["sparse.factor.coupled_calls"] = sum(
        spans.sizes[i] == 2 * run.n_interior for i in factor)

    linear = searches = 0
    for i in outermost(spans, named("ma_dirichlet.solve_ma")):
        # Line-search evaluations are the Hessians taken after the first
        # Newton step's cofactor; the ones before it build the start.
        stepped = False
        for k in kids[i]:
            child = spans.names[k]
            linear += child == "lin_ma.solve_system"
            stepped = stepped or child == "mesh.cofactor"
            searches += stepped and child == "mesh.hessian"
    out["ma_dirichlet.linear_solves"] = linear
    out["ma_dirichlet.line_search_evals"] = searches

    steps = run.traced_steps
    out["continuation.t_steps"] = len(steps)
    out["continuation.halvings"] = sum(not e["converged"] for e in steps)
    out["continuation.rescues"] = sum(bool(e.get("rescued")) for e in steps)
    out["continuation.picard_iters"] = spans.names.count(
        "continuation.phi_map")
    out["continuation.self_s"] = sum(
        span_seconds(i) - busy_seconds(spans, kids[i])
        for i in outermost(spans, named("continuation.solve_second_bvp")))

    passes = len(run.solve_s[True])
    out = {k: v / passes for k, v in out.items()}
    w_min = run.values["w_min"]
    el_rel = run.values["el_residual_rel"]
    out["continuation.w_min"] = min(w_min) if w_min else 0.0
    out["functionals.el_residual_rel"] = max(el_rel) if el_rel else 0.0
    return out


def write_spans(path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"names": spans.names, "starts": spans.starts.tolist(),
                   "ends": spans.ends.tolist(),
                   "parents": spans.parents.tolist(),
                   "sizes": spans.sizes.tolist()}, fh,
                  separators=(",", ":"))


def report(name, seed, run, metrics):
    """Print the human-readable summary, then the JSON result line."""
    failed = len(run.failures)
    passes = len(run.solve_s[False]) + len(run.solve_s[True])
    scale = run.speed_scale()
    print(f"workload {name}  seed {seed}  passes {passes}  "
          f"calls {run.attempted}  params {json.dumps(run.workload.params)}")
    print(f"  times scaled by {scale:.4g}: reference kernel median "
          f"{statistics.median(run.kernel_s):.4g} s over "
          f"{len(run.kernel_s)} runs; as measured in brackets")
    for key, value in metrics.items():
        measured = (f" [{value / scale:.6g} s]" if UNITS[key] == "s"
                    else "")
        print(f"  {key:34s} {value:.6g} {UNITS[key]}{measured}")
    print(f"  {'fail_frac':34s} {failed / run.attempted:.6g} 1 "
          f"({failed} of {run.attempted} calls)")
    for key, meaning in GATE_VALUES:
        if run.values[key]:
            print(f"  {key:34s} {min(run.values[key]):.6g} .. "
                  f"{max(run.values[key]):.6g} 1 ({meaning})")
    for label, note in run.failures[:10]:
        print(f"  FAILED {label}: {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()}}))


def run_all(names, args):
    """Run each workload in its own process, so each peak RSS is its own."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {name} exited with "
                             f"{proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_solver()
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    run, metrics, spans = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    if spans is not None:
        write_spans(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                    spans)
    report(args.workload, args.seed, run, metrics)
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
