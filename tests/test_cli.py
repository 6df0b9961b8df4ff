import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abreu_bvp
from abreu_bvp import DomainSpec, build_grid
from abreu_bvp.cli import main
from abreu_bvp.fileio import read_fields, write_node_table

DISK = """\
[domain]
kind = disk
radius = 1.0

[g]
theta = 0.0

[problem]
f = 0
phi = 0
psi = 1

[solver]
resolution = 16
"""

INTERVAL = """\
[domain]
kind = interval
a = 0.0
b = 1.0

[g]
theta = 0.0

[problem]
f = {f}
phi = 0
psi = 1

[solver]
resolution = 64
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_writes_fields_and_report(tmp_path, capsys):
    cfg = write(tmp_path, "disk.cfg", DISK)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "converged" in capsys.readouterr().out
    report = (out / "report.txt").read_text()
    assert "command: solve" in report
    assert "el_residual_norm:" in report
    assert "trace:" in report and "factorizations:" in report
    # f = 0: every step starts at its solution, so no Newton trial runs
    assert "predicted: false" in report and "contraction: n/a" in report
    fields = read_fields(str(out / "fields.txt"))
    r2 = fields["x"]**2 + fields["y"]**2
    assert np.max(np.abs(fields["u"] - 0.5 * (r2 - 1.0))) < 1e-8
    assert np.max(np.abs(fields["w"] - 1.0)) < 1e-10


def test_resolution_flag_overrides(tmp_path):
    cfg = write(tmp_path, "disk.cfg", DISK)
    out = tmp_path / "o32"
    assert main(["solve", "--config", cfg, "--resolution", "32",
                 "--out", str(out)]) == 0
    assert "resolution: 32" in (out / "report.txt").read_text()


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2
    bad = write(tmp_path, "bad.cfg", DISK.replace("theta = 0.0", "theta = 0.6"))
    assert main(["solve", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "line" in err
    floor = write(tmp_path, "floor.cfg",
                  DISK.replace("resolution = 16", "resolution = 2"))
    assert main(["solve", "--config", floor]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", [("ma", "newton_tol"),
                                          ("solve", "w_floor")])
def test_a_non_finite_solver_option_exits_2(tmp_path, capsys, command, key,
                                            value):
    # Neither reaches the solver: a NaN newton_tol would report convergence
    # at any residual, and a NaN w_floor would fail as a bad w.
    text = {"ma": DISK.replace("psi = 1", "psi = 1\ng = 1"),
            "solve": INTERVAL.format(f=20)}[command]
    cfg = write(tmp_path, "opt.cfg", f"{text}{key} = {value}\n")
    assert main([command, "--config", cfg]) == 2
    assert f"invalid solver option: {key}" in capsys.readouterr().err


def test_a_step_floor_below_the_least_double_exits_2(tmp_path, capsys):
    # 1/(10 * 2^2000) is 0 in floating point; 1023 halvings still solve.
    cfg = write(tmp_path, "deep.cfg", f"{DISK}max_step_halvings = 2000\n")
    assert main(["solve", "--config", cfg]) == 2
    assert ("invalid solver option: max_step_halvings"
            in capsys.readouterr().err)
    cfg = write(tmp_path, "ok.cfg", f"{DISK}max_step_halvings = 1023\n")
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0


def test_deeply_nested_expression_exits_2(tmp_path, capsys):
    nested = "(" * 200 + "1" + ")" * 200
    cfg = write(tmp_path, "deep.cfg", DISK.replace("f = 0", f"f = {nested}"))
    assert main(["solve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "nested deeper" in err and "position" in err and "line 9" in err


def test_oracle_existence_and_nonexistence(tmp_path, capsys):
    good = write(tmp_path, "c4.cfg", INTERVAL.format(f=4))
    out_good = tmp_path / "good"
    assert main(["oracle1d", "--config", good, "--out", str(out_good)]) == 0
    fields = read_fields(str(out_good / "fields.txt"))
    x = fields["x"]
    assert np.max(np.abs(fields["w"] - (1.0 + 2.0 * x * (x - 1.0)))) < 1e-10

    bad = write(tmp_path, "c20.cfg", INTERVAL.format(f=20))
    out_bad = tmp_path / "bad"
    assert main(["oracle1d", "--config", bad, "--out", str(out_bad)]) == 4
    assert "no strictly convex solution" in capsys.readouterr().err
    report = (out_bad / "report.txt").read_text()
    assert "verdict: nonexistent" in report
    assert "min_w:" in report


def test_oracle_requires_interval(tmp_path, capsys):
    cfg = write(tmp_path, "disk.cfg", DISK)
    assert main(["oracle1d", "--config", cfg]) == 2
    assert "interval" in capsys.readouterr().err


def test_continuation_nonexistence_exits_4(tmp_path, capsys):
    # an earlier solve's fields do not stay beside the verdict's report
    out = tmp_path / "c20"
    good = write(tmp_path, "c4.cfg", INTERVAL.format(f=4))
    assert main(["solve", "--config", good, "--out", str(out)]) == 0
    assert (out / "fields.txt").exists()
    cfg = write(tmp_path, "c20.cfg", INTERVAL.format(f=20))
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
    assert not (out / "fields.txt").exists()
    assert "floor" in capsys.readouterr().err
    report = (out / "report.txt").read_text()
    assert "command: solve" in report
    assert "verdict: nonexistent" in report
    top = dict(ln.split(": ", 1) for ln in report.splitlines()
               if ln.startswith(("last_good_t:", "w_min:")))
    # the verdict brackets the discrete threshold f*_h = 8 / (1 - h^2)
    tf = float(top["last_good_t"]) * 20.0
    assert 0.95 * 8.0 <= tf <= 8.0 / (1.0 - (1.0 / 63.0) ** 2)
    assert float(top["w_min"]) > 0.0
    assert "trace:" in report and "floor_hit: true" in report


def test_strong_source_on_a_disk_solves(tmp_path):
    # in two dimensions there is a solution for every f: no exit 4
    cfg = write(tmp_path, "f1000.cfg", DISK.replace("f = 0", "f = 1000"))
    out = tmp_path / "f1000"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "command: solve" in report
    assert not any(ln.startswith("verdict:") for ln in report.splitlines())


HARD_MA = (DISK.replace("psi = 1", "psi = 1\ng = exp(8*x)")
           .replace("resolution = 16", "resolution = 16\nmax_newton_iters = 1"))


def test_solver_failure_exits_3(tmp_path, capsys):
    # The failed run's report replaces the one an earlier run left, and
    # the earlier run's fields go with it.
    out = tmp_path / "h"
    disk = write(tmp_path, "disk.cfg", DISK)
    assert main(["solve", "--config", disk, "--out", str(out)]) == 0
    assert (out / "fields.txt").exists()
    cfg = write(tmp_path, "hard.cfg", HARD_MA)
    assert main(["ma", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "fields.txt").exists()
    message = "no convergence in 1 Newton iterations"
    assert message in capsys.readouterr().err
    lines = (out / "report.txt").read_text().splitlines()
    assert "command: ma" in lines and "command: solve" not in lines
    assert "verdict: solver failure" in lines
    assert any(ln.startswith("message: ") and message in ln for ln in lines)
    # Newton's own record: one entry per iteration
    assert "trace:" in lines and "    iter: 1" in lines


def test_continuation_failure_reports_its_trace(tmp_path, capsys):
    text = (DISK.replace("f = 0", "f = -30")
            .replace("resolution = 16", "resolution = 32\nt_steps = 1\n"
                     "max_step_halvings = 2"))
    cfg = write(tmp_path, "fail.cfg", text)
    out = tmp_path / "fail"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "after 2 step halvings" in capsys.readouterr().err
    lines = (out / "report.txt").read_text().splitlines()
    assert "command: solve" in lines and "verdict: solver failure" in lines
    assert any(ln.startswith("message: no convergence at t = 0.25")
               for ln in lines)
    assert "last_good_t: 0.0" in lines
    block = lines[lines.index("continuation:"):]
    assert block[1:3] == ["  steps: 3", "  trace:"]
    entries = [ln.strip() for ln in block[3:] if ln.startswith("      ")]
    assert [e for e in entries if e.startswith("t: ")] == [
        "t: 1.0", "t: 0.5", "t: 0.25"]
    assert "converged: true" not in entries
    errors = [e for e in entries if e.startswith("error: coupled Newton: ")]
    assert len(errors) == 3


def test_a_non_finite_table_source_exits_2(tmp_path, capsys):
    grid = build_grid(DomainSpec.disk(1.0), 16)
    f = np.full(grid.n_nodes, 2.0)
    f[3] = np.nan
    write_node_table(tmp_path / "f.tab", grid.points, f)
    cfg = write(tmp_path, "nan.cfg", DISK.replace("f = 0", "f = @f.tab"))
    out = tmp_path / "nan"
    for command in ("solve", "linma"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "f must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_the_console_entry_point_exits_with_the_run_status(tmp_path):
    # Runs the module as a shell would: each run replaces the report of
    # the one before in the shared output directory.
    src = str(Path(abreu_bvp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "out"
    for command, text, status in (
            ("solve", DISK, 0), ("ma", HARD_MA, 3),
            ("diagnostics", INTERVAL.format(f=20), 4)):
        cfg = write(tmp_path, f"{command}.cfg", text)
        run = subprocess.run(
            [sys.executable, "-m", "abreu_bvp.cli", command, "--config", cfg,
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert run.returncode == status, run.stderr
        lines = (out / "report.txt").read_text().splitlines()
        assert f"command: {command}" in lines


def test_ma_and_linma_subcommands(tmp_path):
    text = DISK.replace("psi = 1", "psi = 1\ng = 1")
    cfg = write(tmp_path, "ma.cfg", text)
    out = tmp_path / "ma"
    assert main(["ma", "--config", cfg, "--out", str(out)]) == 0
    fields = read_fields(str(out / "fields.txt"))
    r2 = fields["x"]**2 + fields["y"]**2
    assert np.max(np.abs(fields["u"] - 0.5 * (r2 - 1.0))) < 1e-8

    # ma without a g expression is a config error
    assert main(["ma", "--config", write(tmp_path, "nog.cfg", DISK)]) == 2

    out2 = tmp_path / "linma"
    assert main(["linma", "--config", cfg, "--out", str(out2)]) == 0
    assert (out2 / "report.txt").exists()


def test_non_finite_dirichlet_data_exits_2(tmp_path, capsys):
    # phi = 1/x is finite at the config's sampled boundary points but
    # infinite at the boundary node (0, 1) of the 33 disk: every command
    # refuses it as a configuration error and writes no report
    text = DISK.replace("phi = 0", "phi = 1/x").replace(
        "psi = 1", "psi = 1\ng = 1").replace("resolution = 16",
                                             "resolution = 33")
    cfg = write(tmp_path, "phi.cfg", text)
    for command in ("solve", "ma", "linma"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "phi must be finite" in capsys.readouterr().err
        assert not (out / "report.txt").exists()


def test_functional_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, "disk.cfg",
                DISK.replace("resolution = 16", "resolution = 64"))
    out = tmp_path / "fn"
    assert main(["functional", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "F =" in text and "L =" in text
    report = (out / "report.txt").read_text()
    line = [ln for ln in report.splitlines() if ln.startswith("  F:")]
    f_val = float(line[0].split(":")[1])
    assert f_val == pytest.approx(-np.pi, abs=1e-2)

    # functionals require phi = 0
    shifted = write(tmp_path, "phi.cfg", DISK.replace("phi = 0", "phi = 1"))
    assert main(["functional", "--config", shifted]) == 2


def test_probe_properness_subcommand(tmp_path, capsys):
    # the probe writes no fields, so an earlier solve's go
    out = tmp_path / "probe"
    good = write(tmp_path, "c4.cfg", INTERVAL.format(f=4))
    assert main(["solve", "--config", good, "--out", str(out)]) == 0
    assert (out / "fields.txt").exists()
    cfg = write(tmp_path, "c20.cfg", INTERVAL.format(f=20))
    assert main(["probe-properness", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "fields.txt").exists()
    assert "not proper" in capsys.readouterr().out
    report = (out / "report.txt").read_text()
    assert "witnesses:" in report

    calm = write(tmp_path, "c0.cfg", INTERVAL.format(f=0))
    assert main(["probe-properness", "--config", calm,
                 "--out", str(tmp_path / "p0")]) == 0
    rep = (tmp_path / "p0" / "report.txt").read_text()
    assert "lambda_hat: 1" in rep


def test_probe_properness_follows_the_dimension(tmp_path, capsys):
    # Just above f* = 8 on the interval the tent is a witness; on the disk
    # no source makes the probe find one.
    cfg = write(tmp_path, "c9.cfg", INTERVAL.format(f=9))
    assert main(["probe-properness", "--config", cfg,
                 "--out", str(tmp_path / "p9")]) == 0
    assert "not proper" in capsys.readouterr().out

    hot = write(tmp_path, "disk.cfg", DISK.replace("f = 0", "f = 1e5"))
    assert main(["probe-properness", "--config", hot,
                 "--out", str(tmp_path / "disk")]) == 0
    assert "no violation found" in capsys.readouterr().out
    rep = (tmp_path / "disk" / "report.txt").read_text()
    assert "lambda_hat: inf" in rep


def test_diagnostics_subcommand(tmp_path):
    cfg = write(tmp_path, "disk.cfg", DISK)
    out = tmp_path / "diag"
    assert main(["diagnostics", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    for name in ("max_principle", "wd_bound", "gradient_lower_bound",
                 "boundary_cofactor", "assumptions"):
        assert name in report
    # the entries in order, each with its fields; no pass flag reads n/a
    lines = report.split("\ndiagnostics:\n")[1].splitlines()[:24]
    assert [line.strip(" :") for line in lines[::6]] == [
        "max_principle", "wd_bound", "gradient_lower_bound",
        "boundary_cofactor"]
    assert [line.split(":")[0].strip() for line in lines
            if line.startswith("    ")] == [
        "measured", "bound", "tolerance", "passed", "details"] * 4
    assert lines[4] == "    passed: true" and lines[22] == "    passed: n/a"
