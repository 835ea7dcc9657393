import math

import numpy as np
import pytest

from geogasket.errors import ExpressionError
from geogasket.expressions import compile_expression


def test_arithmetic():
    f = compile_expression("1 + 2*u - v/4")
    assert f(2.0, 4.0) == pytest.approx(4.0)


def test_functions_and_constants():
    f = compile_expression("exp(u) * cos(v) + pi")
    assert f(0.0, 0.0) == pytest.approx(1.0 + math.pi)
    g = compile_expression("pow(u, 2) + sinh(v) - cosh(v)")
    assert g(3.0, 0.7) == pytest.approx(9.0 + math.sinh(0.7) - math.cosh(0.7))


def test_power_operator_right_assoc():
    f = compile_expression("2 ** 3 ** 2")
    assert f(0.0, 0.0) == pytest.approx(512.0)


def test_unary_minus():
    f = compile_expression("-u**2")
    assert f(3.0, 0.0) == pytest.approx(-9.0)


def test_vectorized():
    f = compile_expression("u*u + v")
    u = np.array([1.0, 2.0])
    v = np.array([0.5, 0.5])
    np.testing.assert_allclose(f(u, v), [1.5, 4.5])


def test_constant_broadcasts():
    f = compile_expression("1")
    out = f(np.zeros(5), np.zeros(5))
    assert out.shape == (5,)


def test_parse_error_cites_position():
    with pytest.raises(ExpressionError) as err:
        compile_expression("u + \n  sin(")
    assert err.value.line == 2


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("w + 1")


def test_stray_character():
    with pytest.raises(ExpressionError) as err:
        compile_expression("u + $")
    assert err.value.column == 5


def test_power_is_np_power_bitwise():
    u = np.random.default_rng(0).uniform(0.1, 3.0, 1000)
    expected = np.power(u, 2.0).tobytes()
    assert compile_expression("u**2")(u, 0.0).tobytes() == expected
    assert compile_expression("pow(u, 2)")(u, 0.0).tobytes() == expected


def test_division_by_zero_is_inf():
    with np.errstate(divide="ignore"):
        assert compile_expression("1/0")(0.0, 0.0) == np.inf


@pytest.mark.parametrize("source", ["u +\n v", "  u + v", "u + v  ", "\n\tu + v\n"])
def test_newlines_and_outer_whitespace(source):
    assert compile_expression(source)(1.0, 2.0) == 3.0


REJECTED = [
    "u # comment",
    "u + \\\n v",
    "1_000",
    "0x10",
    "1j",
    "True",
    "'u'",
    "u.real",
    "u[0]",
    "(u, v)",
    "exp(x=u)",
    "+u",
    "u % v",
    "u ^ v",
    "u < v",
    "abs(u)",
    "__import__('os')",
    "exp(u, v)",
    "pow(u)",
    "(" * 1200 + "u" + ")" * 1200,
]


@pytest.mark.parametrize("source", REJECTED, ids=lambda s: s if len(s) < 20 else "1200 parentheses")
def test_rejected_syntax_cites_position_inside_input(source):
    with pytest.raises(ExpressionError) as err:
        compile_expression(source)
    lines = source.split("\n")
    assert 1 <= err.value.line <= len(lines)
    assert 1 <= err.value.column <= len(lines[err.value.line - 1])


def test_position_counts_from_original_source():
    with pytest.raises(ExpressionError) as err:
        compile_expression("\n  u +\n   abs(v)")
    assert (err.value.line, err.value.column) == (3, 4)
