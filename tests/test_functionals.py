import numpy as np
import pytest

from abreu_bvp import (
    DomainSpec,
    GSpec,
    Problem,
    ScalarField,
    build_grid,
    concavity_probe,
    el_residual,
    eval_F,
    eval_L,
    gradient_check,
    properness_probe,
)
from abreu_bvp.exceptions import ConvexityLossError


def paraboloid(grid, scale=0.5):
    pts = grid.points
    return ScalarField(grid, scale * (pts[:, 0]**2 + pts[:, 1]**2 - 1.0))


# ------------------------------------------------------------ F and L

def test_disk_closed_forms(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    u = paraboloid(disk64)
    assert eval_F(u, prob) == pytest.approx(-np.pi, abs=1e-2)
    assert eval_L(u, prob) == pytest.approx(np.pi, abs=1e-2)


def test_disk_scaling_closed_form(disk64):
    # u -> 2u doubles u_nu and multiplies d by 4
    prob = Problem(disk64, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    u2 = paraboloid(disk64, scale=1.0)
    want = np.pi * np.log(4.0) - 4.0 * np.pi
    assert eval_F(u2, prob) == pytest.approx(want, abs=2e-2)


def test_disk_with_source(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 1.0, 0.0, 1.0)
    u = paraboloid(disk64)
    # L gains int u f = -pi/4
    assert eval_L(u, prob) == pytest.approx(np.pi - np.pi / 4, abs=1e-2)
    # and F = int G - L keeps the identity
    assert eval_F(u, prob) == pytest.approx(-eval_L(u, prob), abs=1e-12)


def test_interval_closed_form():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    prob = Problem(g, GSpec(0.0, 1), 0.0, 0.0, 1.0)
    x = g.points[:, 0]
    u = ScalarField(g, 0.5 * (x**2 - x))
    assert eval_F(u, prob) == pytest.approx(-1.0, abs=1e-6)
    assert eval_L(u, prob) == pytest.approx(1.0, abs=1e-6)


def test_interval_family_closed_form():
    # v_s = s*x(x-1)/2: L = -c*s/12 + s for f = c
    g = build_grid(DomainSpec.interval(0.0, 1.0), 128)
    c, s = 6.0, 2.5
    prob = Problem(g, GSpec(0.0, 1), c, 0.0, 1.0)
    x = g.points[:, 0]
    v = ScalarField(g, s * x * (x - 1.0) / 2.0)
    # trapezoid error on int v*f is ~(c*s/12) h^2
    assert eval_L(v, prob) == pytest.approx(-c * s / 12.0 + s, abs=1e-4)


def test_functionals_reject_nonzero_phi(disk32):
    prob = Problem(disk32, GSpec(0.0, 2), 0.0, 1.0, 1.0)
    u = paraboloid(disk32)
    with pytest.raises(ValueError):
        eval_F(u, prob)
    with pytest.raises(ValueError):
        eval_L(u, prob)


def test_eval_F_requires_convexity(disk32):
    prob = Problem(disk32, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    pts = disk32.points
    saddle = ScalarField(disk32, pts[:, 0]**2 - pts[:, 1]**2)
    with pytest.raises(ConvexityLossError):
        eval_F(saddle, prob)


# ------------------------------------------------------------ residual

def test_el_residual_trivial_cases(disk64):
    u = paraboloid(disk64)
    prob0 = Problem(disk64, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    r0 = el_residual(u, prob0)
    assert np.max(np.abs(r0.interior)) < 1e-6

    prob1 = Problem(disk64, GSpec(0.0, 2), 1.0, 0.0, 1.0)
    r1 = el_residual(u, prob1)
    assert np.max(np.abs(r1.interior + 1.0)) < 1e-6


def test_el_residual_rejects_concave_fields():
    # D^2 u = -I has det 1 > 0 in two dimensions, but u is concave; the
    # residual is defined for convex fields only, as F is.
    g = build_grid(DomainSpec.disk(1.0), 16)
    prob = Problem(g, GSpec(0.0, 2), 2.0, 0.0, 1.0)
    u = paraboloid(g, scale=-0.5)
    with pytest.raises(ValueError, match="not discretely convex"):
        el_residual(u, prob)
    with pytest.raises(ConvexityLossError):
        eval_F(u, prob)


def test_el_residual_1d_manufactured_order():
    # u'' = 1/(1 + 2x(x-1)): antiderivative of arctan(2x-1) up to affine terms,
    # so w = 1 + 2x(x-1) and the residual w'' - 4 vanishes in the limit.
    # The first ring of nodes mixes the exact psi trace with the h^2-biased
    # discrete w and stalls at O(1); the clean rate lives one layer in.
    errs = []
    for res in (33, 65, 129):
        g = build_grid(DomainSpec.interval(0.0, 1.0), res)
        s = 2.0 * g.points[:, 0] - 1.0
        uv = 0.5 * (s * np.arctan(s) - 0.5 * np.log1p(s**2))
        u = ScalarField(g, uv)
        prob = Problem(g, GSpec(0.0, 1), 4.0, 0.0, 1.0)
        r = el_residual(u, prob)
        errs.append(np.max(np.abs(r.interior[1:-1])))
    assert errs[0] > errs[1] > errs[2]
    assert np.log2(errs[0] / errs[2]) / 2.0 > 1.8


# ------------------------------------------------------- gradient check

def test_gradient_check_second_order(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    u = paraboloid(disk64)
    pts = disk64.points
    r2 = pts[:, 0]**2 + pts[:, 1]**2
    eta = ScalarField(disk64, 0.1 * np.maximum(1.0 - 4.0 * r2, 0.0)**2)
    g2 = gradient_check(u, eta, prob, step=1e-2).relative_gap
    g3 = gradient_check(u, eta, prob, step=1e-3).relative_gap
    assert g3 <= 1e-5
    assert 10.0 < g2 / g3 < 1000.0   # the gap scales like s^2


def test_gradient_check_pairing_matches_source(disk64):
    prob = Problem(disk64, GSpec(0.0, 2), 1.0, 0.0, 1.0)
    u = paraboloid(disk64)
    pts = disk64.points
    r2 = pts[:, 0]**2 + pts[:, 1]**2
    eta_vals = 0.1 * np.maximum(1.0 - 4.0 * r2, 0.0)**2
    eta = ScalarField(disk64, eta_vals)
    gc = gradient_check(u, eta, prob, step=1e-3)
    from abreu_bvp import integrate_interior
    assert gc.pairing == pytest.approx(-integrate_interior(eta_vals, disk64),
                                       rel=1e-10)
    assert abs(gc.fd_derivative - gc.pairing) < 1e-5


def test_gradient_check_zero_eta(disk32):
    prob = Problem(disk32, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    gc = gradient_check(paraboloid(disk32), ScalarField.constant(disk32, 0.0),
                        prob)
    assert gc.fd_derivative == 0.0
    assert gc.pairing == 0.0


def test_gradient_check_rejects_boundary_support(disk32):
    prob = Problem(disk32, GSpec(0.0, 2), 0.0, 0.0, 1.0)
    bad = ScalarField.constant(disk32, 1.0)  # does not vanish near the rim
    with pytest.raises(ValueError):
        gradient_check(paraboloid(disk32), bad, prob)


# ------------------------------------------------------------ concavity

def test_concavity_log_family_closed_form(disk64):
    u0 = paraboloid(disk64)
    u1 = paraboloid(disk64, scale=1.0)
    probe = concavity_probe(u0, u1, GSpec(0.0, 2), samples=11)
    ref = 2.0 * np.pi * np.log1p(probe.ts)
    assert np.max(np.abs(probe.values - ref)) < 1e-2
    assert np.all(probe.second_differences <= 0.0)


@pytest.mark.parametrize("theta", [0.0, 0.125, 0.25])
def test_concavity_for_power_families(theta, disk64):
    u0 = paraboloid(disk64)
    u1 = paraboloid(disk64, scale=1.0)
    probe = concavity_probe(u0, u1, GSpec(theta, 2), samples=9)
    assert probe.max_second_difference <= 1e-8 * max(1.0, abs(probe.values[0]))


def test_concavity_equal_endpoints(disk32):
    u = paraboloid(disk32)
    probe = concavity_probe(u, u, GSpec(0.0, 2), samples=7)
    assert np.max(np.abs(probe.values - probe.values[0])) < 1e-12
    assert np.max(np.abs(probe.second_differences)) < 1e-12


# ------------------------------------------------------------ properness

def test_properness_interval_marginal_case():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    prob = Problem(g, GSpec(0.0, 1), 0.0, 0.0, 1.0)
    res = properness_probe(prob)
    assert res.verdict == "no violation found"
    assert res.lambda_hat == pytest.approx(1.0)
    assert not res.violation_found


def test_properness_interval_violated_beyond_threshold():
    g = build_grid(DomainSpec.interval(0.0, 1.0), 64)
    prob = Problem(g, GSpec(0.0, 1), 20.0, 0.0, 1.0)
    res = properness_probe(prob)
    assert res.violation_found
    assert np.isnan(res.lambda_hat)
    assert res.witnesses  # every lambda produced a witness


def test_properness_disk_strong_source(disk32):
    # in 2-d the boundary term grows quadratically in the scale and wins
    prob = Problem(disk32, GSpec(0.0, 2), 50.0, 0.0, 1.0)
    res = properness_probe(prob)
    assert res.verdict == "no violation found"
    assert res.lambda_hat > 0.0
    assert res.c_hat >= 0.0
