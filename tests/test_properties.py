"""Property tests over random domains and random input text.

Examples are derandomized and no example database is written, so every run
checks the same cases.  Hypothesis keeps its other caches in the system's
temporary directory, so a run leaves nothing in the checkout.
"""

import os
import string
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from abreu_bvp import (DomainSpec, ScalarField, build_grid, hessian,
                       parse_config, parse_expression)
from abreu_bvp.exceptions import ConfigError, ExpressionError
from abreu_bvp.mesh import quadratic_transfer

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
