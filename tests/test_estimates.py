import dataclasses

import numpy as np
import pytest

from abreu_bvp import (
    DomainSpec,
    GSpec,
    Problem,
    ReportEntry,
    ScalarField,
    boundary_cofactor_check,
    build_grid,
    gradient_lower_bound_check,
    max_principle_check,
    solve_second_bvp,
    standard_diagnostics,
    wd_bound_check,
)
from abreu_bvp.mesh import level_bubble


def radial(grid, scale=0.5, offset=-0.5):
    pts = grid.points
    return ScalarField(grid, scale * (pts[:, 0]**2 + pts[:, 1]**2) + offset)


# ----------------------------------------------------- boundary cofactor

def test_boundary_cofactor_exact_radial_cases(disk64, ellipse64):
    # paraboloid: U^nn = 1, K = 1, u_nu = 1
    assert boundary_cofactor_check(radial(disk64), disk64).measured < 1e-8
    # doubled: U^nn = 2, K u_nu = 2
    rep = boundary_cofactor_check(radial(disk64, 1.0, -1.0), disk64)
    assert rep.measured < 1e-8
    # level bubble, radial in the ellipse's scaled coordinates
    u = ScalarField(ellipse64, level_bubble(ellipse64))
    assert boundary_cofactor_check(u, ellipse64).measured < 1e-8


def test_boundary_cofactor_refines(disk32, disk64, disk128):
    # non-radial perturbation with zero boundary trace: the identity holds
    # in the limit but the fitted tangential Hessian is O(h) accurate
    sups = []
    for g in (disk32, disk64, disk128):
        pts = g.points
        r2 = pts[:, 0]**2 + pts[:, 1]**2
        u = ScalarField(g, 0.5 * (r2 - 1.0) + 0.2 * (r2 - 1.0) * pts[:, 0]**2)
        sups.append(boundary_cofactor_check(u, g).measured)
    assert sups[0] > sups[1] > sups[2]
    assert np.log2(sups[0] / sups[2]) / 2.0 > 0.9


def test_boundary_cofactor_rejects_1d(interval64):
    u = ScalarField(interval64, interval64.points[:, 0] ** 2)
    with pytest.raises(ValueError):
        boundary_cofactor_check(u, interval64)


# -------------------------------------------------------- max principle

def test_max_principle_signs(disk64):
    g = disk64
    pts = g.points
    r2 = pts[:, 0]**2 + pts[:, 1]**2
    # f >= 0 with max of w inside -> failure is detected
    w_bad = ScalarField(g, 1.0 + np.maximum(0.0, 0.2 - r2))
    bad = max_principle_check(w_bad, ScalarField.constant(g, 1.0))
    assert bad.passed is False
    assert bad.measured > 0.1
    # constant w attains both extremes everywhere, gap 0
    w_flat = ScalarField.constant(g, 1.0)
    ok = max_principle_check(w_flat, ScalarField.constant(g, 1.0))
    assert ok.passed is True
    assert ok.measured == pytest.approx(0.0, abs=1e-14)


def test_max_principle_mixed_sign_is_informational(disk32):
    g = disk32
    pts = g.points
    f = ScalarField(g, pts[:, 0])  # changes sign
    rep = max_principle_check(ScalarField.constant(g, 1.0), f)
    assert rep.passed is None


# ------------------------------------------------------------- wd bound

def test_wd_bound_for_power_families(disk32):
    g = disk32
    for theta in (0.0, 0.25):
        spec = GSpec(theta, 2)
        d_vals = np.linspace(0.5, 4.0, g.n_nodes)
        d_vals[0] = 1.0  # pin the saturation point into the sample
        from abreu_bvp import g_eval
        w_vals = g_eval(spec, d_vals).w
        rep = wd_bound_check(ScalarField(g, w_vals), ScalarField(g, d_vals), spec)
        assert rep.passed
        # the whole family saturates w * d^(1-1/n) = 1 exactly at d = 1
        assert rep.measured == pytest.approx(1.0, abs=1e-12)


def test_wd_bound_vacuous_when_d_small(disk32):
    rep = wd_bound_check(ScalarField.constant(disk32, 1.0),
                         ScalarField.constant(disk32, 0.5), GSpec(0.0, 2))
    assert rep.passed
    assert "vacuous" in rep.details


def test_wd_bound_flags_violation(disk32):
    rep = wd_bound_check(ScalarField.constant(disk32, 2.0),
                         ScalarField.constant(disk32, 4.0), GSpec(0.0, 2))
    assert rep.passed is False
    assert rep.measured == pytest.approx(4.0)


# ------------------------------------------------------- gradient bound

def test_gradient_lower_bound_paraboloid(disk64):
    # u_nu = 1, (phi - inf u)/diam = 0.5/2 = 0.25: slack 0.75
    # (inf over lattice nodes misses the vertex by O(h^2))
    rep = gradient_lower_bound_check(radial(disk64), disk64, 0.0)
    assert rep.passed
    assert rep.measured == pytest.approx(0.75, abs=1e-3)


def test_gradient_lower_bound_detects_violation(disk64):
    # a concave bump has inward-pointing normal derivative
    pts = disk64.points
    u = ScalarField(disk64, -(pts[:, 0]**2 + pts[:, 1]**2))
    rep = gradient_lower_bound_check(u, disk64, 0.0)
    assert rep.passed is False


# ------------------------------------------------------------- assembly

def test_standard_diagnostics_on_solver_output(disk32):
    prob = Problem(disk32, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    names = ["max_principle", "wd_bound", "gradient_lower_bound",
             "boundary_cofactor"]
    assert list(sol.diagnostics) == names
    assert [e.name for e in sol.diagnostics.values()] == names
    assert all(e.passed in (True, None) for e in sol.diagnostics.values())
    assert sol.diagnostics["max_principle"].passed is True
    assert sol.diagnostics["boundary_cofactor"].passed is None


def test_standard_diagnostics_1d_drops_cofactor(interval64):
    prob = Problem(interval64, GSpec(0.0, 1), 4.0, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    assert list(sol.diagnostics) == ["max_principle", "wd_bound",
                                     "gradient_lower_bound"]


def test_report_is_reproducible(disk32):
    prob = Problem(disk32, GSpec(0.0, 2), 2.0, 0.0, 1.0)
    a = solve_second_bvp(prob)
    b = solve_second_bvp(prob)
    assert a.diagnostics == b.diagnostics
    # the trace too, with its predicted starts and first contractions
    assert a.iterations == b.iterations


def test_report_entry_shape():
    # report.txt writes each entry's fields after its name, in this order
    e = ReportEntry("thing", 1.0, 2.0, 1e-8, True, "why")
    assert dataclasses.asdict(e) == {
        "name": "thing", "measured": 1.0, "bound": 2.0, "tolerance": 1e-8,
        "passed": True, "details": "why"}
    assert list(dataclasses.asdict(e)) == [
        "name", "measured", "bound", "tolerance", "passed", "details"]
