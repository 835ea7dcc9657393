"""Arithmetic expressions for user-supplied metric components.

Accepted syntax (documented in the README):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('**' factor)?      # right associative
    atom    := NUMBER | 'u' | 'v' | 'pi' | 'e' | FUNC '(' expr ')'
             | 'pow' '(' expr ',' expr ')' | '(' expr ')'
    FUNC    := exp | log | sin | cos | sinh | cosh | sqrt | tanh

NUMBER is a decimal literal in ASCII digits (``2``, ``007``, ``0.5``,
``.5``, ``1e-3``) and newlines are whitespace.  :class:`_Parser` reads the
source by recursive descent, one method per rule, and writes each node into
the table as it reads it; numbers become ``np.float64`` and ``**`` and
``pow`` call ``np.power``, so ``1/0`` is ``inf``.  Other input, and nesting
deeper than the interpreter's recursion limit, raises
:class:`ExpressionError` citing a line and column of the source.

:func:`compile_metric` writes a metric's E, F and G into one straight-line
table and differentiates it in forward mode (Griewank & Walther, Evaluating
Derivatives, 2nd ed., ch. 3): one rule per grammar node in ``_RULES`` gives
a line's partials in u and v from its operands', and since each partial is
a line of the same table, the second pass that Gauss's formula needs is the
same rule.  The metric, its six Christoffel symbols, their partials and
its curvature are functions of that table, and :func:`compile_expression`
is its one-output case.
"""

import math
import re

import numpy as np

from .errors import ExpressionError

# one token: a NUMBER, a name, '**' or any other non-blank character
_TOKEN = re.compile(r"\s*(?:((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)|(\w+)|(\*\*|\S))")

_FUNCS = {f: getattr(np, f) for f in ("exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt")}
# the ufunc each operation of the compiled code calls, to fold constants with
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "neg": np.negative,
           "pow": np.power, **_FUNCS}


def _position(source: str, index: int):
    """1-based (line, column) of character ``index`` of ``source``."""
    return source.count("\n", 0, index) + 1, index - source.rfind("\n", 0, index)


def _namespace():
    """Where compiled code runs: no builtins, the grammar's functions and,
    as ``_bind`` adds them, its float64 constants."""
    return {"__builtins__": {}, "pow": np.power, **_FUNCS}


def _bind(namespace, value) -> str:
    """The name of float64 ``value`` in ``namespace``, bound on first use."""
    value = np.float64(value)
    for name, bound in namespace.items():
        if name.startswith("_k") and bound.tobytes() == value.tobytes():
            return name
    name = f"_k{len(namespace)}"
    namespace[name] = value
    return name


class _Parser:
    """The grammar by recursive descent, one method per rule.  Each method
    writes the node it reads into the table ``jets`` and returns its name."""

    def __init__(self, source: str, jets):
        self.source, self.jets, self.at = source, jets, 0
        self.tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex)) for m in _TOKEN.finditer(source)]
        # the end of the input, which errors cite at its last non-blank character
        self.tokens.append((0, "", max(len(source.rstrip()) - 1, 0)))

    def fail(self, message, index=None):
        raise ExpressionError(message, *_position(self.source, self.tokens[self.at][2] if index is None else index))

    def take(self, *texts):
        """The next token's text, consumed, if it is one of ``texts``."""
        if (text := self.tokens[self.at][1]) in texts:
            self.at += 1
            return text

    def close(self, opening, text=")"):
        """Consume ``text``, which closes or splits the parenthesis at index ``opening``."""
        if not self.take(text):
            if not self.tokens[self.at][0]:
                self.fail("'(' was never closed", opening)
            self.fail(f"expected {text!r}")

    def parse(self) -> str:
        """The name of the value of the whole input."""
        try:
            name = self.expr()
        except RecursionError:
            raise ExpressionError("expression nested too deeply", 1, 1) from None
        if self.tokens[self.at][0]:
            self.fail(f"unexpected {self.tokens[self.at][1]!r}")
        return name

    def expr(self) -> str:
        name = self.term()
        while op := self.take("+", "-"):
            name = self.jets.let(op, name, self.term())
        return name

    def term(self) -> str:
        name = self.factor()
        while op := self.take("*", "/"):
            name = self.jets.let(op, name, self.factor())
        return name

    def factor(self) -> str:
        if self.take("-"):
            return self.jets.let("neg", self.factor())
        name = self.atom()
        return self.jets.let("pow", name, self.factor()) if self.take("**") else name

    def atom(self) -> str:
        kind, text, index = self.tokens[self.at]
        self.at += 1
        if kind == 1:
            return _bind(self.jets.namespace, float(text))
        if text in ("u", "v"):
            return text
        if text in ("pi", "e"):
            return _bind(self.jets.namespace, getattr(math, text))
        if text != "(" and text != "pow" and text not in _FUNCS:
            what = f"unknown name {text!r}" if kind == 2 else f"unexpected {text!r}" if kind else "unexpected end of input"
            self.fail(what, index)
        # a parenthesis, or a function name and its parenthesized arguments
        opening = index if text == "(" else self.tokens[self.at][2]
        if text != "(" and not self.take("("):
            self.fail(f"expected '(' after {text!r}")
        args = [self.expr()]
        if text == "pow":
            self.close(opening, ",")
            args.append(self.expr())
        self.close(opening)
        return args[0] if text == "(" else self.jets.let(text, *args)


_FORMATS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}", "neg": "-{}"}


def _code(op, args) -> str:
    """The Python expression applying ``op`` (an operator or a function name) to named operands."""
    return _FORMATS[op].format(*args) if op in _FORMATS else f"{op}({', '.join(args)})"


class _Jets:
    """A straight-line table of expressions and of their partials, to any order.

    Every quantity is a name: ``u``, ``v``, a float64 constant bound in
    ``namespace``, or a local assigned once.  ``source`` parses an
    expression into lines; ``partials`` applies the derivative rule of the line
    that defines a name, so a partial is a name like any other and its own
    partials are the same call.  A partial that is None is a structural
    zero, the partial of a constant, and every term with such a factor is
    dropped, as is every factor 1.  An operation on constants alone is
    evaluated now, as the compiled expression would evaluate it.  Any other
    operation gets one local per operator and operands, so a subtree (or an
    E and G of the same text) is computed once.
    """

    def __init__(self):
        self.namespace = _namespace()
        self.one, self.two = _bind(self.namespace, 1.0), _bind(self.namespace, 2.0)
        self.lines = {}  # (op, *operands) -> its name
        self.defs = {}  # local name -> (op, *operands), in order of assignment
        self.grads = {"u": (self.one, None), "v": (None, self.one)}  # name -> (d/du, d/dv)

    def let(self, op, *args) -> str:
        key = (op, *args)
        if key not in self.lines:
            if all(a in self.namespace for a in args):
                with np.errstate(all="ignore"):
                    self.lines[key] = _bind(self.namespace, _UFUNCS[op](*(self.namespace[a] for a in args)))
            else:
                self.lines[key] = f"_t{len(self.lines)}"
                self.defs[self.lines[key]] = key
        return self.lines[key]

    def add(self, a, b):
        return b if a is None else a if b is None else self.let("+", a, b)

    def sub(self, a, b):
        return a if b is None else self.neg(b) if a is None else self.let("-", a, b)

    def neg(self, a):
        return None if a is None else self.let("neg", a)

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return b if a == self.one else a if b == self.one else self.let("*", a, b)

    def div(self, a, b):
        return None if a is None else a if b == self.one else self.let("/", a, b)

    def pow(self, a, b):
        return a if b == self.one else self.let("pow", a, b)

    def source(self, source: str) -> str:
        """The name of the value of the expression ``source``."""
        return _Parser(source, self).parse()

    def partials(self, name):
        """(d/du, d/dv) of the quantity ``name`` (None, a constant or a local), each a name or None.

        Memoised.  The locals up to ``name`` are differentiated in the order
        they were assigned, so every operand's partials are known and no
        chain of lines, however long, recurses.
        """
        for x, (op, a, *b) in list(self.defs.items()) if name in self.defs else ():
            if x not in self.grads:
                b = b[0] if b else None
                da, db = (self.grads.get(y, (None, None)) for y in (a, b))
                self.grads[x] = tuple(_RULES[op](self, x, a, b, da[k], db[k]) for k in (0, 1))
            if x == name:
                break
        return self.grads.get(name, (None, None))

    def functions(self, *outputs):
        """One ``f(u, v)`` per output, all compiled in one module.

        An output is a name, and its function returns that quantity, or a
        list of names, and its function returns a tuple of them: float
        arrays of the broadcast shape of u and v, None as zeros.  Each runs
        only the lines its names read.
        """
        zero = _bind(self.namespace, 0.0)
        module = []
        for i, names in enumerate(outputs):
            names = [zero if x is None else x for x in (names if isinstance(names, list) else [names])]
            # the assignments the outputs read, found backwards from them
            needed, body = set(names), []
            for name, (op, *args) in reversed(self.defs.items()):
                if name in needed:
                    needed.update(args)
                    body.append(f"    {name} = {_code(op, args)}")
            module += [f"def _f{i}(u, v):", *reversed(body), f"    return ({', '.join(names)},)"]
        exec(compile("\n".join(module), "<expression>", "exec"), self.namespace)
        return tuple(_evaluator(self.namespace.pop(f"_f{i}"), isinstance(x, list)) for i, x in enumerate(outputs))


def _evaluator(fn, many: bool):
    """``fn`` on float arrays u and v, its outputs (a tuple if ``many``, else
    the one) float arrays of their broadcast shape, copied where broadcast."""

    def evaluate(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        shape = u.shape if u.shape == v.shape else np.broadcast_shapes(u.shape, v.shape)
        out = [np.asarray(x, dtype=float) for x in fn(u, v)]
        out = tuple(x if x.shape == shape else np.broadcast_to(x, shape).copy() for x in out)
        return out if many else out[0]

    return evaluate


# The partial of each grammar node in one direction, from the node's value y,
# its operands a and b (b is None for a unary node) and their partials da, db.
_RULES = {
    "+": lambda d, y, a, b, da, db: d.add(da, db),
    "-": lambda d, y, a, b, da, db: d.sub(da, db),
    "*": lambda d, y, a, b, da, db: d.add(d.mul(da, b), d.mul(a, db)),
    "/": lambda d, y, a, b, da, db: d.div(d.sub(da, d.mul(y, db)), b),
    "neg": lambda d, y, a, b, da, db: d.neg(da),
    # b a^(b-1) da + y log(a) db: with a constant exponent, db is None and no log is taken
    "pow": lambda d, y, a, b, da, db: d.add(
        d.mul(d.mul(b, d.pow(a, d.sub(b, d.one))), da), d.mul(d.mul(y, d.let("log", a)), db)
    ),
    "exp": lambda d, y, a, b, da, db: d.mul(y, da),
    "log": lambda d, y, a, b, da, db: d.div(da, a),
    "sin": lambda d, y, a, b, da, db: d.mul(d.let("cos", a), da),
    "cos": lambda d, y, a, b, da, db: d.neg(d.mul(d.let("sin", a), da)),
    "sinh": lambda d, y, a, b, da, db: d.mul(d.let("cosh", a), da),
    "cosh": lambda d, y, a, b, da, db: d.mul(d.let("sinh", a), da),
    "tanh": lambda d, y, a, b, da, db: d.mul(d.sub(d.one, d.mul(y, y)), da),
    "sqrt": lambda d, y, a, b, da, db: d.div(da, d.mul(d.two, y)),
}

# Numerators of G1_11, G1_12, G1_22, G2_11, G2_12, G2_22 over 2 (EG - F^2) as
# signed terms (coefficient, metric entry, partial): the first row reads
# G1_11 = (G E_u - 2 F F_u + F E_v) / (2 (EG - F^2)).
_CHRISTOFFEL_TERMS = (
    ((1, "g", "e_u"), (-2, "f", "f_u"), (1, "f", "e_v")),
    ((1, "g", "e_v"), (-1, "f", "g_u")),
    ((2, "g", "f_v"), (-1, "g", "g_u"), (-1, "f", "g_v")),
    ((2, "e", "f_u"), (-1, "e", "e_v"), (-1, "f", "e_u")),
    ((1, "e", "g_u"), (-1, "f", "e_v")),
    ((1, "e", "g_v"), (-2, "f", "f_v"), (1, "f", "g_u")),
)

# The products of Gauss's formula after its two partials, as (sign, i, j)
# over the symbols above: -E K = (G2_12)_u - (G2_11)_v + G1_12 G2_11
# + G2_12 G2_12 - G2_11 G2_22 - G1_11 G2_12.
_GAUSS_TERMS = ((1, 1, 3), (1, 4, 4), (-1, 3, 5), (-1, 0, 4))


def compile_expression(source: str):
    """Parse ``source`` and return a vectorized callable ``f(u, v)``."""
    jets = _Jets()
    (evaluate,) = jets.functions(jets.source(source))
    return evaluate


def compile_metric(e_source: str, f_source: str, g_source: str):
    """The metric with entries E, F, G, its Christoffel symbols, its
    curvature and the symbols' first partials.

    Returns four functions of (u, v), compiled from one table: ``metric``
    gives (E, F, G), ``christoffels`` gives (G1_11, G1_12, G1_22, G2_11,
    G2_12, G2_22), ``curvature`` gives the Gaussian curvature K and
    ``christoffel_partials`` gives the u-partials of the six symbols, then
    their v-partials, each a float array of the broadcast shape of u and
    v.  K follows from the symbols and their partials by Gauss's formula
    (do Carmo, Differential Geometry of Curves and Surfaces, 4-3).  Where F
    is the constant 0 every F term is dropped.  All arithmetic is
    elementwise, so a row's values do not depend on its batch.  An
    ``ExpressionError`` starts with the entry it is in: ``metric.E``,
    ``metric.F`` or ``metric.G``.
    """
    jets = _Jets()
    names = []
    for entry, source in zip("EFG", (e_source, f_source, g_source)):
        try:
            names.append(jets.source(source))
        except ExpressionError as exc:
            exc.args = (f"metric.{entry}: {exc}",)
            raise
    e, f, g = names
    (e_u, e_v), (f_u, f_v), (g_u, g_v) = (jets.partials(x) for x in (e, f, g))
    f_sym = None if f in jets.namespace and jets.namespace[f] == 0 else f
    entries = dict(e=e, f=f_sym, g=g, e_u=e_u, e_v=e_v, f_u=f_u, f_v=f_v, g_u=g_u, g_v=g_v)
    w2 = jets.mul(jets.two, jets.sub(jets.mul(e, g), jets.mul(f_sym, f_sym)))
    symbols = []
    for terms in _CHRISTOFFEL_TERMS:
        num = None
        for c, x, dx in terms:
            term = jets.mul(jets.mul(jets.two, entries[x]) if abs(c) == 2 else entries[x], entries[dx])
            num = jets.add(num, term) if c > 0 else jets.sub(num, term)
        symbols.append(jets.div(num, w2))
    rhs = jets.sub(jets.partials(symbols[4])[0], jets.partials(symbols[3])[1])
    for sign, i, j in _GAUSS_TERMS:
        term = jets.mul(symbols[i], symbols[j])
        rhs = jets.add(rhs, term) if sign > 0 else jets.sub(rhs, term)
    partials = [jets.partials(x) for x in symbols]
    return jets.functions(
        [e, f, g],
        symbols,
        jets.neg(jets.div(rhs, e)),
        [*(du for du, _ in partials), *(dv for _, dv in partials)],
    )
