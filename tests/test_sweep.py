"""The robustness sweep's fallback classifier and one of its cases."""

import importlib.util
from pathlib import Path

import pytest

import abreu_bvp as bvp

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_2d.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep_2d", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(resolution, t, dt, converged=True):
    return {"resolution": resolution, "t": t, "dt": dt,
            "converged": converged}


COARSE = [entry(20, 0.5, 0.5), entry(20, 1.0, 0.5)]


@pytest.mark.parametrize("trace, cause", [
    (COARSE + [entry(40, 1.0, 1.0)], None),
    (COARSE + [entry(40, 1.0, 1.0, False), entry(40, 0.1, 0.1)], "step"),
    (COARSE + [entry(40, 0.1, 0.1), entry(40, 1.0, 0.9)], "resolve"),
    ([entry(20, 0.5, 0.5), entry(20, 0.75, 0.25, False)], "coarse@0.5"),
    ([entry(20, 0.1, 0.1, False)], "coarse@0"),
], ids=["no", "step", "resolve", "coarse@0.5", "coarse@0"])
def test_fallback_cause_reads_the_trace(sweep, trace, cause):
    assert sweep.fallback_cause(trace, 40) == cause


def test_a_mild_disk_case_solves_without_falling_back(sweep):
    line, solved, cause, entries, predicted, lus = sweep.run_case(
        bvp, "disk", 40, 0.0, 5.0)
    assert solved and cause is None
    assert "solved" in line and "fallback=no" in line
    assert entries >= 2 and lus >= entries
