"""Property tests over random domains and random input text.

Examples are derandomized and no example database is written, so every run
checks the same cases.  Hypothesis keeps its other caches in the system's
temporary directory, so a run leaves nothing in the checkout.
"""

import math
import os
import string
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from abreu_bvp import (DomainSpec, ScalarField, build_grid, hessian,
                       parse_config, parse_expression)
from abreu_bvp.exceptions import ConfigError, ExpressionError
from abreu_bvp.mesh import _disk_rect_moments, quadratic_transfer

# Set at import: the pytest plugin fills its caches during collection.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(),
                                     "abreu-bvp-hypothesis"))
FIXED = settings(derandomize=True, database=None, deadline=None)

coefficient = st.floats(-1.0, 1.0)


@settings(FIXED, max_examples=60)
@given(semi_a=st.floats(0.2, 3.0), semi_b=st.floats(0.2, 3.0),
       resolution=st.integers(8, 96),
       quad=st.tuples(*[coefficient] * 6))
def test_every_ellipse_grid_builds_with_a_positive_quadrature(
        semi_a, semi_b, resolution, quad):
    domain = DomainSpec.ellipse(semi_a, semi_b)
    g = build_grid(domain, resolution)

    w = g.quad_weights
    assert np.all(w >= 0.0)
    assert abs(w.sum() - domain.measure) <= 1e-8 * domain.measure

    # Shortley-Weller second differences are exact on quadratics; arms as
    # short as SNAP_FRACTION h amplify only rounding.
    x, y = g.points[:, 0], g.points[:, 1]
    a, b, c, d, e, f0 = quad
    H = hessian(ScalarField(g, a * x**2 + b * x * y + c * y**2
                            + d * x + e * y + f0), g)
    assert np.max(np.abs(H.data - [[2 * a, b], [b, 2 * c]])) < 1e-7

    bx, by = g.boundary_points[:, 0], g.boundary_points[:, 1]
    assert np.max(np.abs(domain.level(bx, by))) <= 1e-10


@settings(FIXED, max_examples=60)
@given(semi_a=st.floats(0.2, 3.0), semi_b=st.floats(0.2, 3.0),
       resolution=st.integers(8, 96),
       quad=st.tuples(*[coefficient] * 6),
       polar=st.lists(st.tuples(st.floats(0.0, 0.999),
                                st.floats(0.0, 2.0 * np.pi)),
                      min_size=1, max_size=20))
def test_grid_transfer_reproduces_quadratic_fields(semi_a, semi_b,
                                                   resolution, quad, polar):
    g = build_grid(DomainSpec.ellipse(semi_a, semi_b), resolution)
    r, angle = np.array(polar).T
    pts = np.column_stack([semi_a * r * np.cos(angle),
                           semi_b * r * np.sin(angle)])

    def field(x, y):
        a, b, c, d, e, f0 = quad
        return a * x**2 + b * x * y + c * y**2 + d * x + e * y + f0

    values = field(g.points[:, 0], g.points[:, 1])
    moved = quadratic_transfer(g, pts)(values)
    scale = max(1.0, float(np.max(np.abs(values))))
    assert np.max(np.abs(moved - field(pts[:, 0], pts[:, 1]))) <= 1e-12 * scale


# A rectangle by two x and two y values in any order, and a fraction at
# which it is split.
rectangle = st.tuples(*[st.floats(-1.3, 1.3)] * 4, st.floats(0.0, 1.0))


def _disk_rect_moments_one_by_one(x0, x1, y0, y1):
    """The moments of one rectangle, piece by piece in scalar arithmetic."""
    lo, hi = max(x0, -1.0), min(x1, 1.0)
    if lo >= hi:
        return 0.0, 0.0, 0.0
    cuts = {lo, hi}
    for yv in (y0, y1):
        if abs(yv) < 1.0:
            xc = math.sqrt(1.0 - yv * yv)
            cuts.update(c for c in (-xc, xc) if lo < c < hi)
    xs = sorted(cuts)

    def F_c(x):
        x = min(1.0, max(-1.0, x))
        return 0.5 * (x * math.sqrt(max(0.0, 1.0 - x * x)) + math.asin(x))

    def F_xc(x):
        return -((max(0.0, 1.0 - x * x)) ** 1.5) / 3.0

    def F_c2(x):
        return x - x**3 / 3.0

    area = mx = my = 0.0
    for p, q in zip(xs[:-1], xs[1:]):
        c = math.sqrt(max(0.0, 1.0 - (0.5 * (p + q)) ** 2))
        yu_cap, yl_cap = y1 >= c, y0 <= -c
        if q - p < 1e-15 or (c if yu_cap else y1) <= (-c if yl_cap else y0):
            continue
        dc, dxc, dc2 = (F(q) - F(p) for F in (F_c, F_xc, F_c2))
        area += ((dc if yu_cap else y1 * (q - p))
                 - (-dc if yl_cap else y0 * (q - p)))
        mx += ((dxc if yu_cap else y1 * 0.5 * (q * q - p * p))
               - (-dxc if yl_cap else y0 * 0.5 * (q * q - p * p)))
        my += 0.5 * ((dc2 if yu_cap else y1 * y1 * (q - p))
                     - (dc2 if yl_cap else y0 * y0 * (q - p)))
    return area, mx, my


@settings(FIXED, max_examples=100)
@given(rects=st.lists(rectangle, min_size=1, max_size=30))
def test_disk_rect_moments_are_exact_additive_symmetric_and_bounded(rects):
    xa, xb, ya, yb, frac = np.array(rects).T
    x0, x1 = np.minimum(xa, xb), np.maximum(xa, xb)
    y0, y1 = np.minimum(ya, yb), np.maximum(ya, yb)
    whole = np.array(_disk_rect_moments(x0, x1, y0, y1))

    one_by_one = np.array([_disk_rect_moments_one_by_one(*r)
                           for r in zip(x0, x1, y0, y1)]).T
    # arcsin and the order of the sums may differ in the last bits: a few
    # ulps of the largest moment, which is below 8
    assert np.max(np.abs(whole - one_by_one)) <= 32 * np.finfo(float).eps

    xm, ym = x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
    for first, second in (((x0, xm, y0, y1), (xm, x1, y0, y1)),
                          ((x0, x1, y0, ym), (x0, x1, ym, y1))):
        parts = (np.array(_disk_rect_moments(*first))
                 + np.array(_disk_rect_moments(*second)))
        assert np.max(np.abs(parts - whole)) <= 1e-14

    area, mx, my = whole
    m_area, m_mx, m_my = _disk_rect_moments(-x1, -x0, y0, y1)
    assert np.max(np.abs(m_area - area)) <= 1e-14
    assert np.max(np.abs(m_mx + mx)) <= 1e-14
    assert np.max(np.abs(m_my - my)) <= 1e-14

    # the area lies in [0, rectangle area], up to roundoff
    assert np.all(area >= 0.0)
    assert np.all(area <= (x1 - x0) * (y1 - y0) + 1e-14)


def test_disk_rect_moments_of_a_covering_square_are_the_disk():
    area, mx, my = _disk_rect_moments(np.array([-2.0]), np.array([2.0]),
                                      np.array([-2.0]), np.array([2.0]))
    assert np.allclose([area[0], mx[0], my[0]], [np.pi, 0.0, 0.0],
                       rtol=0.0, atol=1e-15)


# Random text draws from printable ASCII and a few non-ASCII characters
# that str.isdigit, str.isalpha or str.isspace accept.
ALPHABET = string.printable + "\u00b2\u0663\u03c0\u00e9\u00a0\u2003"
# Tokens of the expression language and a few that are not part of it.
EXPRESSION_PIECES = ["x", "y", "pi", "e", "sin(", "cos(", "exp(", "log(",
                     "(", ")", "+", "-", "*", "/", "^", "1", "2.5", "1e3",
                     ".5", " ", "@", "_", "z", "1e", "sinh("]
expression_text = st.one_of(
    st.text(ALPHABET, max_size=40),
    st.lists(st.sampled_from(EXPRESSION_PIECES), max_size=40).map("".join))


@settings(FIXED, max_examples=300)
@given(text=expression_text)
def test_parse_expression_raises_only_expression_errors(text):
    try:
        expr = parse_expression(text)
    except ExpressionError as exc:
        assert exc.position is None or 0 <= exc.position <= len(text)
        return
    expr(np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 1.0, 5))


CONFIG_LINES = ["[domain]", "[g]", "[problem]", "[solver]", "[output]",
                "[nope]", "kind = disk", "kind = ellipse", "kind = interval",
                "radius = 1", "semi_a = 1.5", "semi_b = -1", "a = 0",
                "b = 1", "theta = 0", "theta = 0.7", "phi = 0", "psi = 1",
                "psi = -1", "resolution = 16", "resolution = 2",
                "t_steps = 0", "w_floor = x", "directory = out", "=", "# c"]
config_line = st.one_of(
    st.sampled_from(CONFIG_LINES),
    st.sampled_from(["f", "phi", "psi", "g"]).flatmap(
        lambda key: expression_text.map(lambda t: f"{key} = {t}")),
    st.text(ALPHABET, max_size=30))


def _disk_config(f, phi, psi, extra):
    return "\n".join(["[domain]", "kind = disk", "radius = 1", "[g]",
                      "theta = 0", "[problem]", f"f = {f}", f"phi = {phi}",
                      f"psi = {psi}", "[solver]", "resolution = 16", *extra])


config_text = st.one_of(
    st.lists(config_line, max_size=16).map("\n".join),
    # a complete config whose expressions and trailing lines are random
    st.builds(_disk_config, expression_text, expression_text,
              expression_text, st.lists(config_line, max_size=3)))


@settings(FIXED, max_examples=150)
@given(text=config_text)
def test_parse_config_raises_only_config_errors(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
