import numpy as np
import pytest

from abreu_bvp.cli import main
from abreu_bvp.fileio import read_fields

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
    cfg = write(tmp_path, "c20.cfg", INTERVAL.format(f=20))
    out = tmp_path / "c20"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
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


def test_solver_failure_exits_3(tmp_path):
    text = DISK.replace("psi = 1", "psi = 1\ng = exp(8*x)")
    text = text.replace("resolution = 16",
                        "resolution = 16\nmax_newton_iters = 1")
    cfg = write(tmp_path, "hard.cfg", text)
    assert main(["ma", "--config", cfg, "--out", str(tmp_path / "h")]) == 3


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
    cfg = write(tmp_path, "c20.cfg", INTERVAL.format(f=20))
    out = tmp_path / "probe"
    assert main(["probe-properness", "--config", cfg, "--out", str(out)]) == 0
    assert "not proper" in capsys.readouterr().out
    report = (out / "report.txt").read_text()
    assert "witnesses:" in report

    calm = write(tmp_path, "c0.cfg", INTERVAL.format(f=0))
    assert main(["probe-properness", "--config", calm,
                 "--out", str(tmp_path / "p0")]) == 0
    rep = (tmp_path / "p0" / "report.txt").read_text()
    assert "lambda_hat: 1" in rep


def test_diagnostics_subcommand(tmp_path):
    cfg = write(tmp_path, "disk.cfg", DISK)
    out = tmp_path / "diag"
    assert main(["diagnostics", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    for name in ("max_principle", "wd_bound", "gradient_lower_bound",
                 "boundary_cofactor", "assumptions"):
        assert name in report
