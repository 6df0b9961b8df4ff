import numpy as np
import pytest

from abreu_bvp import parse_config
from abreu_bvp.exceptions import ConfigError

MINIMAL = """\
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
resolution = 32
"""


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.domain.kind == "disk"
    assert cfg.gspec.theta == 0.0
    assert cfg.gspec.n == 2
    assert cfg.resolution == 32
    assert cfg.output_dir is None
    grid = cfg.make_grid()
    prob = cfg.make_problem(grid)
    assert np.all(prob.f.values == 0.0)
    assert np.all(prob.psi == 1.0)


def test_full_config_round_trip(tmp_path):
    text = """\
; comments in both styles
[domain]
kind = interval
a = 0.0
b = 2.0

[g]
theta = 0.5   # power family

[problem]
f = sin(pi*x)
phi = 0
psi = 1 + x/4

[solver]
resolution = 48
t_steps = 5
w_floor = 1e-7

[output]
directory = "run1"
"""
    cfg = parse_config(text, base_dir=str(tmp_path))
    assert cfg.domain.bounds == (0.0, 2.0)
    assert cfg.gspec.n == 1
    assert cfg.resolution == 48
    assert cfg.continuation.t_steps == 5
    assert cfg.continuation.w_floor == 1e-7
    assert cfg.output_dir == "run1"
    grid = cfg.make_grid()
    prob = cfg.make_problem(grid)
    x = grid.points[:, 0]
    assert np.allclose(prob.f.values, np.sin(np.pi * x))


def test_error_carries_line_numbers():
    bad_theta = MINIMAL.replace("theta = 0.0", "theta = 0.9")
    with pytest.raises(ConfigError) as ei:
        parse_config(bad_theta)
    assert ei.value.line == 6

    with pytest.raises(ConfigError) as ei:
        parse_config(MINIMAL.replace("radius = 1.0", "radius = banana"))
    assert ei.value.line == 3


def test_unknown_sections_and_keys():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[extmembers]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL + "\n[solver]\nwarp = 9\n")
    # keys of removed options are rejected, not silently ignored
    for key in ("rho", "fixed_point_tol", "max_picard_iters", "init_mode",
                "solver_kind", "max_linear_iters", "damping_min",
                "linear_tol"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'") as ei:
            parse_config(MINIMAL + f"{key} = 1\n")
        assert ei.value.line == len(MINIMAL.splitlines()) + 1
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "\n[problem]\nf = 1\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config("kind = disk\n" + MINIMAL)


def test_domain_parameter_mismatch():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("radius = 1.0", "semi_a = 1.0"))
    # interval parameters on a disk
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "\n[domain2]\n")
    text = MINIMAL.replace("radius = 1.0", "radius = 1.0\na = 0.0")
    with pytest.raises(ConfigError, match="not valid"):
        parse_config(text)


def test_missing_required_keys():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("psi = 1\n", ""))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("[g]\ntheta = 0.0\n\n", ""))


def test_psi_must_be_positive_on_boundary():
    with pytest.raises(ConfigError, match="psi"):
        parse_config(MINIMAL.replace("psi = 1", "psi = x"))  # vanishes/negative


def test_f_must_be_finite():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("f = 0", "f = 1/(x-x)"))


def test_resolution_floor():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("resolution = 32", "resolution = 3"))


def test_node_table_source(tmp_path):
    cfg = parse_config(MINIMAL)
    grid = cfg.make_grid()
    from abreu_bvp.fileio import write_node_table
    path = tmp_path / "f.txt"
    vals = 2.0 + grid.points[:, 0]
    write_node_table(str(path), grid.points, vals)

    text = MINIMAL.replace("f = 0", f"f = @{path.name}")
    cfg2 = parse_config(text, base_dir=str(tmp_path))
    f = cfg2.f_field(grid)
    assert np.max(np.abs(f.values - vals)) < 1e-15

    # a table from a different grid is rejected
    other = parse_config(
        MINIMAL.replace("resolution = 32", "resolution = 16")).make_grid()
    with pytest.raises(ConfigError, match="node"):
        cfg2.f_field(other)


def test_node_table_missing_file(tmp_path):
    text = MINIMAL.replace("f = 0", "f = @absent.txt")
    cfg = parse_config(text, base_dir=str(tmp_path))
    grid = cfg.make_grid()
    with pytest.raises(ConfigError):
        cfg.f_field(grid)
