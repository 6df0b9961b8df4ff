"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single summary line with the measured quantities next
to their tolerances, so a verbose run reads as a checklist.  Tolerances
are fixed here on purpose: loosening them is a behavior change, not a
test fix.
"""

import numpy as np
import pytest

from abreu_bvp import (
    ContinuationOptions,
    DomainSpec,
    GSpec,
    NonexistenceCertificate,
    OneDProblem,
    Problem,
    ScalarField,
    boundary_cofactor_check,
    build_grid,
    cofactor,
    cofactor_divergence,
    concavity_probe,
    eval_F,
    eval_L,
    existence_threshold_1d,
    gradient_check,
    hessian,
    properness_probe,
    solve_exact_1d,
    solve_second_bvp,
)
from abreu_bvp.cli import main as cli_main


def report(line):
    print(f"[acceptance] {line}")


def test_criterion_01_trivial_disk_solution(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    sol = solve_second_bvp(prob)
    pts = disk64.points
    ref = 0.5 * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0)
    u_err = float(np.max(np.abs(sol.u.values - ref)))
    w_err = float(np.max(np.abs(sol.w.values - 1.0)))
    report(f"1 trivial disk: sup|u-ref| = {u_err:.3e} (tol 1e-6), "
           f"sup|w-1| = {w_err:.3e} (tol 1e-8)")
    assert u_err <= 1e-6
    assert w_err <= 1e-8


def test_criterion_02_1d_oracle_equivalence():
    # oracle grids chosen so the coarse nodes are a strict subset
    errs = {}
    for res, dense in ((64, 63 * 64 + 1), (128, 127 * 32 + 1)):
        g = build_grid(DomainSpec.interval(0.0, 1.0), res)
        sol = solve_second_bvp(Problem(g, GSpec(0.0, 1), 4.0, 0.0, 1.0))
        oracle = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 4.0),
                                resolution=dense)
        ox = oracle.u.grid.points[:, 0]
        order = np.argsort(ox)
        idx = order[np.searchsorted(ox[order], g.points[:, 0])]
        assert np.max(np.abs(ox[idx] - g.points[:, 0])) < 1e-12
        errs[res] = float(np.max(np.abs(sol.u.values - oracle.u.values[idx])))
    ratio = errs[64] / errs[128]
    report(f"2 oracle equivalence: err64 = {errs[64]:.3e}, "
           f"err128 = {errs[128]:.3e}, ratio = {ratio:.3f} (want [3.5, 4.5])")
    assert 3.5 <= ratio <= 4.5


def test_criterion_03_nonexistence_properness_consistency(tmp_path):
    template = OneDProblem((0.0, 1.0), 0.0, 0.0)
    c_star = existence_threshold_1d(1.0, template, (0.0, 32.0))
    thresh_err = abs(c_star - 8.0)

    exists = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 7.9))
    gone = solve_exact_1d(OneDProblem((0.0, 1.0), 0.0, 8.1))
    sides_ok = (not isinstance(exists, NonexistenceCertificate)
                and isinstance(gone, NonexistenceCertificate))

    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    hot = properness_probe(Problem(g, GSpec(0.0, 1), 20.0, 0.0, 1.0))
    cold = properness_probe(Problem(g, GSpec(0.0, 1), 0.0, 0.0, 1.0))

    cfg = tmp_path / "c20.cfg"
    cfg.write_text("[domain]\nkind = interval\na = 0.0\nb = 1.0\n"
                   "[g]\ntheta = 0.0\n"
                   "[problem]\nf = 20\nphi = 0\npsi = 1\n"
                   "[solver]\nresolution = 64\n")
    exit_code = cli_main(["solve", "--config", str(cfg)])

    report(f"3 threshold/properness: |c*-8| = {thresh_err:.3e} (tol 1e-6), "
           f"7.9/8.1 verdicts ok = {sides_ok}, c=20 probe = "
           f"{hot.verdict!r}, c=0 probe = {cold.verdict!r}, "
           f"solver exit = {exit_code} (want 4)")
    assert thresh_err <= 1e-6
    assert sides_ok
    assert hot.violation_found
    assert not cold.violation_found
    assert exit_code == 4


def test_criterion_04_strong_source_disk(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 50.0, 0.0, 1.0)
    opts = ContinuationOptions()
    sol_a = solve_second_bvp(prob, opts)
    sol_b = solve_second_bvp(prob, opts,
                             w0=ScalarField.constant(disk64, 1.5))
    el_rel = sol_a.el_residual_norm / 50.0
    w_min = float(np.min(sol_a.w.values))
    d_min = float(np.min(sol_a.d.interior))
    agree = float(np.max(np.abs(sol_a.u.values - sol_b.u.values)))
    report(f"4 f=50 disk: el/|f| = {el_rel:.3e} (tol 1e-4), min w = "
           f"{w_min:.3e} > 0, min d = {d_min:.3e} > 0, init agreement = "
           f"{agree:.3e} (tol 1e-5)")
    assert el_rel <= 1e-4
    assert w_min > 0.0
    assert d_min > 0.0
    assert agree <= 1e-5


def test_criterion_05_gradient_check(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    pts = disk64.points
    r2 = pts[:, 0]**2 + pts[:, 1]**2
    u = ScalarField(disk64, 0.5 * (r2 - 1.0))
    eta = ScalarField(disk64, 0.1 * np.maximum(1.0 - 4.0 * r2, 0.0)**2)
    gap2 = gradient_check(u, eta, prob, step=1e-2).relative_gap
    gap3 = gradient_check(u, eta, prob, step=1e-3).relative_gap
    ratio = gap2 / gap3
    report(f"5 gradient check: gap(1e-2) = {gap2:.3e}, gap(1e-3) = "
           f"{gap3:.3e} (tol 1e-5), ratio = {ratio:.1f} (want ~100)")
    assert gap3 <= 1e-5
    assert 10**1.5 <= ratio <= 10**2.5   # order s^2 within half a decade


def test_criterion_06_concavity_of_A(disk64):
    pts = disk64.points
    r2 = pts[:, 0]**2 + pts[:, 1]**2
    u0 = ScalarField(disk64, 0.5 * (r2 - 1.0))
    u1 = ScalarField(disk64, r2 - 1.0)
    worst = {}
    for theta in (0.0, 0.125, 0.25):
        probe = concavity_probe(u0, u1, GSpec(theta, 2), samples=11)
        bound = 1e-8 * abs(probe.values[0])
        worst[theta] = (probe.max_second_difference, bound)
        assert probe.max_second_difference <= bound
        if theta == 0.0:
            log_err = float(np.max(np.abs(
                probe.values - 2.0 * np.pi * np.log1p(probe.ts))))
            assert log_err <= 1e-2
    report("6 concavity: max second differences "
           + ", ".join(f"theta={t:g}: {v[0]:.2e}" for t, v in worst.items())
           + f"; theta=0 vs 2*pi*log(1+t) err = {log_err:.3e} (tol 1e-2)")


def test_criterion_07_boundary_cofactor_identity():
    sups = []
    for res in (32, 64, 128):
        g = build_grid(DomainSpec.disk(1.0), res)
        pts = g.points
        u = ScalarField(g, pts[:, 0]**2 + pts[:, 1]**2 - 1.0)
        sups.append(boundary_cofactor_check(u, g).measured)
    at_floor = all(s <= 1e-10 for s in sups)
    ordered = (not at_floor) and sups[0] > 2.0 * sups[1] > 4.0 * sups[2]

    g64 = build_grid(DomainSpec.disk(1.0), 64)
    pts = g64.points
    parab = ScalarField(g64, 0.5 * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0))
    parab_sup = boundary_cofactor_check(parab, g64).measured
    report(f"7 boundary cofactor: r^2-1 sups = "
           + ", ".join(f"{s:.2e}" for s in sups)
           + f" ({'at rounding floor <= 1e-10' if at_floor else 'order >= 1'})"
           f", paraboloid = {parab_sup:.2e} (tol 1e-8)")
    assert at_floor or ordered
    assert parab_sup <= 1e-8


def test_criterion_08_max_principle_1d():
    gaps = {}
    for c in (-4.0, 4.0):
        g = build_grid(DomainSpec.interval(0.0, 1.0), 128)
        sol = solve_second_bvp(Problem(g, GSpec(0.0, 1), c, 0.0, 1.0))
        w = sol.w.values
        bdy = w[g.n_interior:]
        if c < 0:
            gaps[c] = float(min(bdy) - np.min(w))
        else:
            gaps[c] = float(np.max(w) - max(bdy))
    report(f"8 max principle: f=-4 min-gap = {gaps[-4.0]:.3e}, "
           f"f=+4 max-gap = {gaps[4.0]:.3e} (tol 1e-8)")
    assert gaps[-4.0] <= 1e-8
    assert gaps[4.0] <= 1e-8


def test_criterion_09_cofactor_divergence_order():
    sups = []
    for res in (32, 64, 128):
        g = build_grid(DomainSpec.disk(1.0), res)
        pts = g.points
        u = ScalarField(g, np.exp(0.5 * (pts[:, 0]**2 + pts[:, 1]**2)))
        div, mask = cofactor_divergence(cofactor(hessian(u, g), g), g)
        sups.append(float(np.max(np.abs(div[mask]))))
    slope = float(np.log2(sups[0] / sups[2]) / 2.0)
    report(f"9 cofactor divergence: sups = "
           + ", ".join(f"{s:.2e}" for s in sups)
           + f", overall order = {slope:.2f} (want >= 1.7)")
    assert sups[0] > sups[1] > sups[2]
    assert slope >= 1.7


def test_criterion_10_functional_closed_forms(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    pts = disk64.points
    u = ScalarField(disk64, 0.5 * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0))
    F = eval_F(u, prob)
    L = eval_L(u, prob)
    report(f"10 closed forms: F = {F:.6f} (want -pi +- 1e-2), "
           f"L = {L:.6f} (want pi +- 1e-2)")
    assert F == pytest.approx(-np.pi, abs=1e-2)
    assert L == pytest.approx(np.pi, abs=1e-2)
