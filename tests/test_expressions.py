import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # the grammar calls a function by its name, never by a parenthesized callee
    "(sin)(u)",
    "((exp))(v)",
    "(pow)(u, 2)",
    # NUMBER has ASCII digits only: an Arabic-Indic or a full-width digit is a name
    "\u0663 * u",
    "\uff13 * u",
]


@pytest.mark.parametrize("source", REJECTED, ids=lambda s: s if len(s) < 20 else "1200 parentheses")
def test_rejected_syntax_cites_position_inside_input(source):
    with pytest.raises(ExpressionError) as err:
        compile_expression(source)
    lines = source.split("\n")
    assert 1 <= err.value.line <= len(lines)
    assert 1 <= err.value.column <= len(lines[err.value.line - 1])


@pytest.mark.parametrize(
    "source, position",
    [("u +", (1, 3)), ("u + ", (1, 3)), ("u +\n\n", (1, 3)), ("pow(u,\n ", (1, 6)), ("  ", (1, 1))],
)
def test_end_of_input_cites_last_nonblank_character(source, position):
    with pytest.raises(ExpressionError, match="unexpected end of input") as err:
        compile_expression(source)
    assert (err.value.line, err.value.column) == position


@pytest.mark.parametrize("source", ["\u0663 * u", "\uff13 * u"], ids=["arabic_indic", "full_width"])
def test_non_ascii_digit_is_unknown_name(source):
    with pytest.raises(ExpressionError, match="unknown name") as err:
        compile_expression(source)
    assert (err.value.line, err.value.column) == (1, 1)


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


# -- properties over the grammar ------------------------------------------

U = np.array([0.3, -0.7, 0.0, 1.5, -2.0, 0.25, 3.0])
V = np.array([0.6, 0.2, 0.0, -1.25, 2.0, -0.5, 0.0])
# every NUMBER form: integer, leading zeros, fraction, trailing and leading point, exponent
NUMBERS = ["2", "007", "0.5", ".5", "4.", "1e-3", "2.5E+1", "3e2"]
LEAVES = [("u", U), ("v", V), ("pi", np.float64(math.pi)), ("e", np.float64(math.e))]
LEAVES += [(x, np.float64(float(x))) for x in NUMBERS]
FUNCS = ["exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt"]
BLANK = st.sampled_from(["", "", " ", "  ", "\n", " \n\t"])


def _reference(ufunc, *values):
    with np.errstate(all="ignore"):
        return ufunc(*values)


# A node is (text, rule, value): rule 0, 1, 2 or 3 is the tightest of expr,
# term, factor and atom that its text parses as, and an operand read by a
# still tighter rule is parenthesized.
def _operand(node, rule, blank):
    text, tightest, _ = node
    return text if tightest >= rule else f"({blank}{text}{blank})"


def _binary(op, ufunc, rule):
    # + - * / read their left operand by their own rule and their right one by
    # the next; ** reads an atom, then a factor (right associative)
    left, right = (3, 2) if op == "**" else (rule, rule + 1)

    def build(args):
        a, b, s1, s2 = args
        return f"{_operand(a, left, s1)}{s1}{op}{s2}{_operand(b, right, s2)}", rule, _reference(ufunc, a[2], b[2])

    return build


def _nodes(child):
    pair = st.tuples(child, child, BLANK, BLANK)
    one = st.tuples(child, BLANK)
    return st.one_of(
        pair.map(_binary("+", np.add, 0)),
        pair.map(_binary("-", np.subtract, 0)),
        pair.map(_binary("*", np.multiply, 1)),
        pair.map(_binary("/", np.divide, 1)),
        pair.map(_binary("**", np.power, 2)),
        one.map(lambda x: (f"-{x[1]}{_operand(x[0], 2, x[1])}", 2, _reference(np.negative, x[0][2]))),
        st.tuples(st.sampled_from(FUNCS), child, BLANK).map(
            lambda x: (f"{x[0]}{x[2]}({x[2]}{x[1][0]}{x[2]})", 3, _reference(getattr(np, x[0]), x[1][2]))
        ),
        pair.map(lambda x: (f"pow({x[2]}{x[0][0]},{x[3]}{x[1][0]})", 3, _reference(np.power, x[0][2], x[1][2]))),
        one.map(lambda x: (f"({x[1]}{x[0][0]}{x[1]})", 3, x[0][2])),
    )


TREES = st.tuples(BLANK, st.recursive(st.sampled_from(LEAVES).map(lambda x: (x[0], 3, x[1])), _nodes), BLANK).map(
    lambda x: (f"{x[0]}{x[1][0]}{x[2]}", x[1][2])
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES)
def test_grammar_tree_matches_numpy_reference(tree):
    text, expected = tree
    with np.errstate(all="ignore"):
        got = compile_expression(text)(U, V)
    assert got.shape == U.shape
    np.testing.assert_allclose(got, np.broadcast_to(expected, U.shape), rtol=1e-12, atol=0, equal_nan=True)


MUTATION_CHARS = st.one_of(st.sampled_from(list("uvpie0123456789.+-*/(),_ \n\tEjx#$")), st.characters())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TREES, st.integers(0, 10**6), st.sampled_from(["replace", "insert", "delete"]), MUTATION_CHARS)
def test_mutated_text_compiles_or_cites_position(tree, at, how, char):
    text = tree[0]
    i = at % (len(text) + (how == "insert"))
    if how == "delete" and len(text) == 1:
        how = "replace"
    mutated = text[:i] + ("" if how == "delete" else char) + text[i + (how != "insert"):]
    try:
        compile_expression(mutated)
    except ExpressionError as err:
        lines = mutated.split("\n")
        assert 1 <= err.line <= len(lines)
        # a column may cite the newline that ends its line
        assert 1 <= err.column <= len(lines[err.line - 1]) + (err.line < len(lines))
