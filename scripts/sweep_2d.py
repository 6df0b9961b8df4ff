"""Robustness sweep of the 2-d solver: every case should solve.

Run from the repository root:

    python3 scripts/sweep_2d.py

Each case solves f = c (1 + 0.3 x - 0.2 y), phi = 0, psi = 1 with the
default options, on the unit disk or the (1.5, 0.75) ellipse, at
resolutions 40, 48 and 64, for theta in {0, 0.25, 0.45} and c in
{-100, -30, 0, 5, 50, 200, 1000}: 126 cases.  Each of these resolutions
starts from the solution at half its resolution, so a case "falls back"
when its own grid runs the continuation (more than one trace entry at the
case's resolution).  run_case(abreu_bvp, domain, resolution, theta, c)
reruns one case from Python.

One line per case gives the outcome ("solved" or "exit 3", the command
line's code for a solver failure), the seconds taken, the trace entries
per resolution and the coupled (u, log w) factorizations they made, how
many steps started Newton from the tangent predictor ("predicted"), why
the case fell back, and for a solved case criterion 4's gate values: the
Euler-Lagrange residual over max(1, max|f|), min w and min det D^2 u.
The cause is read from the trace alone:

    fallback=no        the fine step at t = 1 converged
    fallback=coarse@T  the half-resolution path ended short; T is its
                       last converged t
    fallback=step      the fine Newton at t = 1, dt = 1 failed; its error
                       ends the line
    fallback=resolve   the half-resolution path reached t = 1, but no fine
                       entry is at t = 1: the re-solve of u raised

A summary line follows, with a count per cause, and the trace entries
(continuation steps), predicted starts and coupled factorizations of all
cases.  The solver is imported from src/ next to this directory,
single-threaded unless ABREU_BVP_THREADS is set.  The exit status is 1
when any case exits 3, else 0.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DOMAINS = ("disk", "ellipse")
RESOLUTIONS = (40, 48, 64)
THETAS = (0.0, 0.25, 0.45)
SOURCES = (-100.0, -30.0, 0.0, 5.0, 50.0, 200.0, 1000.0)


def fallback_cause(trace, resolution):
    """Why a case fell back, from its trace: "coarse@T", "step", "resolve",
    or None when the fine step at t = 1 converged."""
    half = (resolution + 1) // 2
    coarse_t = max((e["t"] for e in trace
                    if e["resolution"] == half and e["converged"]),
                   default=0.0)
    if coarse_t < 1.0:
        return f"coarse@{coarse_t:.3g}"
    fine = [e for e in trace if e["resolution"] == resolution]
    if fine and (fine[0]["t"], fine[0]["dt"]) == (1.0, 1.0):
        return None if fine[0]["converged"] else "step"
    return "resolve"


def per_resolution(counts):
    """"res:count" for each resolution, in increasing order."""
    return " ".join(f"{res}:{n}" for res, n in sorted(counts.items()))


def run_case(bvp, domain, resolution, theta, c):
    """Solve one case; return its printed line, whether it solved, its
    fallback cause (None if it did not fall back), its trace entries, its
    predicted starts and its coupled factorizations."""
    spec = (bvp.DomainSpec.disk(1.0) if domain == "disk"
            else bvp.DomainSpec.ellipse(1.5, 0.75))
    start = time.perf_counter()
    grid = bvp.build_grid(spec, resolution)
    problem = bvp.Problem(grid, bvp.GSpec(theta, 2),
                          lambda x, y: c * (1.0 + 0.3 * x - 0.2 * y),
                          0.0, 1.0)
    try:
        sol = bvp.solve_second_bvp(problem)
        trace, solved = sol.iterations, True
    except bvp.SolverError as exc:
        trace, solved = exc.trace, False
    seconds = time.perf_counter() - start
    entries, factorizations = Counter(), Counter()
    for entry in trace:
        entries[entry["resolution"]] += 1
        factorizations[entry["resolution"]] += entry["factorizations"]
    predicted = sum(entry["predicted"] for entry in trace)
    cause = fallback_cause(trace, resolution)
    line = (f"{domain:7s} {resolution:3d} theta={theta:<4g} c={c:<6g} "
            f"{'solved' if solved else 'exit 3'} {seconds:7.2f} s  "
            f"entries {per_resolution(entries)}  "
            f"factorizations {per_resolution(factorizations)}  "
            f"predicted {predicted}  fallback={cause or 'no'}")
    if solved:
        scale = max(1.0, float(abs(problem.f.interior).max()))
        line += (f"  el/|f|={sol.el_residual_norm / scale:.2e}"
                 f" w_min={sol.w.values.min():.2e}"
                 f" d_min={sol.d.interior.min():.2e}")
    if cause == "step":
        step = next(e for e in trace if e["resolution"] == resolution)
        line += f"  error: {step['error']}"
    return (line, solved, cause, entries.total(), predicted,
            factorizations.total())


def main() -> int:
    os.environ.setdefault("ABREU_BVP_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import abreu_bvp as bvp

    failed = cases = steps = predicted = factorizations = 0
    causes = Counter({"coarse": 0, "step": 0, "resolve": 0})
    start = time.perf_counter()
    for domain, resolution, theta, c in itertools.product(
            DOMAINS, RESOLUTIONS, THETAS, SOURCES):
        line, solved, cause, entries, starts, lus = run_case(
            bvp, domain, resolution, theta, c)
        print(line, flush=True)
        cases += 1
        steps += entries
        predicted += starts
        factorizations += lus
        failed += not solved
        if cause is not None:
            causes[cause.split("@")[0]] += 1
    print(f"{cases} cases, {causes.total()} fallbacks ("
          + ", ".join(f"{n} {cause}" for cause, n in causes.items())
          + f"), {failed} exit 3, {steps} trace entries, {predicted} "
          f"predicted, {factorizations} coupled factorizations, "
          f"{time.perf_counter() - start:.1f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
