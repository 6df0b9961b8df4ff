import numpy as np
import pytest

from abreu_bvp import Expression, parse_expression
from abreu_bvp.exceptions import ExpressionError
from abreu_bvp.expressions import MAX_DEPTH


def test_arithmetic_and_precedence():
    assert parse_expression("1 + 2*3")(0.0) == 7.0
    assert parse_expression("(1 + 2)*3")(0.0) == 9.0
    assert parse_expression("2^3^1")(0.0) == 8.0
    assert parse_expression("-2^2")(0.0) == -4.0     # unary minus binds looser
    assert parse_expression("2 - 3 - 4")(0.0) == -5.0  # left assoc
    assert parse_expression("12/4/3")(0.0) == 1.0


def test_variables_and_vectorization():
    e = parse_expression("x^2 + y^2")
    assert e(3.0, 4.0) == 25.0
    x = np.linspace(0, 1, 5)
    y = np.linspace(1, 2, 5)
    assert np.allclose(e(x, y), x**2 + y**2)
    # y defaults to 0 for 1-d use
    assert parse_expression("x + y")(2.0) == 2.0


def test_functions_and_constants():
    assert parse_expression("sin(pi/2)")(0.0) == pytest.approx(1.0)
    assert parse_expression("cos(0)")(0.0) == 1.0
    assert parse_expression("exp(1)")(0.0) == pytest.approx(np.e)
    assert parse_expression("log(e)")(0.0) == pytest.approx(1.0)
    assert parse_expression("exp(x^2/2)")(1.0) == pytest.approx(np.exp(0.5))


def test_scientific_notation():
    assert parse_expression("1e-3")(0.0) == 1e-3
    assert parse_expression("2.5E+2")(0.0) == 250.0
    assert parse_expression("1e3 + 1")(0.0) == 1001.0


def test_error_positions():
    with pytest.raises(ExpressionError) as ei:
        parse_expression("1 + @")
    assert ei.value.position == 4
    with pytest.raises(ExpressionError) as ei:
        parse_expression("sin(x")
    with pytest.raises(ExpressionError) as ei:
        parse_expression("1 2")
    assert ei.value.position == 2
    with pytest.raises(ExpressionError):
        parse_expression("unknown_name(3)")
    with pytest.raises(ExpressionError):
        parse_expression("")


def test_nesting_limit():
    # the outermost term is level 1, each parenthesis one more
    deepest = "(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1)
    assert parse_expression(deepest)(2.0) == 2.0
    for text in ("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
                 "(" * 200 + "x" + ")" * 200, "-" * 5000 + "x",
                 "sin(" * 200 + "x" + ")" * 200, "2^" * 200 + "1"):
        with pytest.raises(ExpressionError) as ei:
            parse_expression(text)
        assert "nested deeper" in str(ei.value)
        assert 0 < ei.value.position < len(text)
    assert parse_expression("-" * 150 + "x")(2.0) == 2.0
    assert parse_expression("(" * 150 + "-x" + ")" * 150)(2.0) == -2.0


def test_long_sums_and_products_evaluate_in_order():
    n = 5000
    assert parse_expression("+".join(["x"] * n))(1.0) == n
    assert parse_expression("*".join(["x"] * n))(1.0) == 1.0
    assert parse_expression("1" + "-x" * n)(1.0) == 1.0 - n
    assert parse_expression("x/2/2/2")(8.0) == 1.0


def test_expression_repr_round_trip():
    e = Expression("x*y + 1")
    assert "x*y + 1" in repr(e)
    assert Expression(e.text)(2.0, 3.0) == e(2.0, 3.0)
