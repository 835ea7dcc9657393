import math

import numpy as np
import pytest

from geogasket.errors import ExpressionError
from geogasket.expressions import _Jets, compile_expression


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


def jet_function(source):
    """``f(u, v) -> (value, d/du, d/dv)`` from the derivative compiler."""
    jets = _Jets()
    y = jets.source(source)
    (fn,) = jets.functions([y, *jets.partials(y)])
    return fn


# every grammar node: each function, pow with a constant and a variable
# exponent, right-associative **, unary minus chains, pi and e, the literal forms
DIFFERENTIATED = [
    "1 + 2*u - v/4",
    "exp(u) * cos(v) + pi",
    "log(u + 2) - sin(v)",
    "sinh(u) / cosh(v) + tanh(u*v)",
    "sqrt(u*u + v*v + 1)",
    "pow(u, 3) + pow(2, v)",
    "u**v + pow(u + 1, v - u)",
    "2 ** u ** 2",
    "u ** 2 ** -1",
    "- - -u * v",
    "-(-u) - -v / -(u + 2)",
    "e ** v - pi * u",
    "007 * u + 0.5 * v - .5 + 1e-3 * u * v + 2.5E+1 / (u + 3) + 4.",
    "u / v / 2",
    "cos(sin(exp(u * v)))",
    "v",
    "3",
]


@pytest.mark.parametrize("source", DIFFERENTIATED)
def test_jets_match_evaluator_and_central_differences(source):
    rng = np.random.default_rng(3)
    u, v = rng.uniform(0.2, 0.9, 500), rng.uniform(0.2, 0.9, 500)
    value, du, dv = jet_function(source)(u, v)
    f = compile_expression(source)
    assert value.tobytes() == f(u, v).tobytes()
    h = 1e-5
    assert du.shape == dv.shape == u.shape
    np.testing.assert_allclose(du, (f(u + h, v) - f(u - h, v)) / (2 * h), rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(dv, (f(u, v + h) - f(u, v - h)) / (2 * h), rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("source", DIFFERENTIATED)
def test_second_partials_match_central_differences(source):
    # a partial is a line of the table, so its partials are the same call
    jets = _Jets()
    y = jets.source(source)
    du, dv = jets.partials(y)
    (fn,) = jets.functions([du, dv, *jets.partials(du), *jets.partials(dv)])
    rng = np.random.default_rng(4)
    u, v = rng.uniform(0.2, 0.9, 500), rng.uniform(0.2, 0.9, 500)
    _, _, duu, duv, dvu, dvv = fn(u, v)
    h = 1e-5
    up, um, vp, vm = fn(u + h, v), fn(u - h, v), fn(u, v + h), fn(u, v - h)
    np.testing.assert_allclose(duu, (up[0] - um[0]) / (2 * h), rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(duv, (vp[0] - vm[0]) / (2 * h), rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(dvv, (vp[1] - vm[1]) / (2 * h), rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(dvu, duv, rtol=1e-12, atol=1e-12)


def test_constant_exponent_takes_no_log():
    # the base is negative, so a log of it would be invalid
    u = np.array([0.5, -1.0])
    with np.errstate(all="raise"):
        value, du, dv = jet_function("(u - 1) ** 3 + pow(u - 1, 2)")(u, u)
    assert value.tolist() == [-0.125 + 0.25, -8.0 + 4.0]
    assert du.tolist() == [3 * 0.25 + 2 * -0.5, 3 * 4.0 + 2 * -2.0]
    assert dv.tolist() == [0.0, 0.0]
