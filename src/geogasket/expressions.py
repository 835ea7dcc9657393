"""Arithmetic expressions for user-supplied metric components.

Accepted syntax (documented in the README):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('**' factor)?      # right associative
    atom    := NUMBER | 'u' | 'v' | 'pi' | 'e' | FUNC '(' expr ')'
             | 'pow' '(' expr ',' expr ')' | '(' expr ')'
    FUNC    := exp | log | sin | cos | sinh | cosh | sqrt | tanh

NUMBER is a decimal literal (``2``, ``007``, ``0.5``, ``.5``, ``1e-3``) and
newlines are whitespace.  :func:`ast.parse` reads the source, which compiles
only if every node is in the grammar; numbers become ``np.float64`` and
``**`` and ``pow`` call ``np.power``, so ``1/0`` is ``inf``.  Other input
raises :class:`ExpressionError` citing a line and column of the source.

:func:`compile_christoffels` differentiates the validated trees of a
metric's E, F and G in forward mode (Griewank & Walther, Evaluating
Derivatives, 2nd ed., ch. 3): one rule per grammar node in ``_RULES`` gives
each node's partials in u and v from its operands', and the six
Christoffel symbols follow in the same straight-line function.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

from .errors import ExpressionError

_NUMBER = re.compile(r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?", re.ASCII)
# leading zeros of a decimal integer (007), which Python rejects: blanked
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![\d.][eE][+-])0+(?=[1-9]\d*(?![\w.]))", re.ASCII)

_FUNCS = {f: getattr(np, f) for f in ("exp", "log", "sin", "cos", "sinh", "cosh", "tanh", "sqrt")}
_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub)


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


def _arguments(u, v):
    """``u`` and ``v`` as float arrays, and their broadcast shape."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return u, v, u.shape if u.shape == v.shape else np.broadcast_shapes(u.shape, v.shape)


def _full(x, shape):
    """``x`` as a float array of ``shape``, broadcast and copied if it has another."""
    x = np.asarray(x, dtype=float)
    return x if x.shape == shape else np.broadcast_to(x, shape).copy()


class _Compiler(ast.NodeTransformer):
    """Reject every node outside the grammar; bind numbers to float64 names."""

    def __init__(self, source: str, offset: int, text: str, namespace):
        self.source, self.offset, self.text = source, offset, text
        self.namespace = namespace

    def fail(self, message, node):
        raise ExpressionError(message, *_position(self.source, self.offset + node.col_offset))

    def bind(self, value, node):
        return ast.copy_location(ast.Name(_bind(self.namespace, value), ast.Load()), node)

    def visit_Constant(self, node):
        literal = self.text[node.col_offset:node.end_col_offset]
        if not _NUMBER.fullmatch(literal):
            self.fail(f"unsupported literal {literal!r}", node)
        return self.bind(float(literal), node)

    def visit_Name(self, node):
        if node.id in ("pi", "e"):
            return self.bind(getattr(math, node.id), node)
        if node.id not in ("u", "v"):
            self.fail(f"unknown name {node.id!r}", node)
        return node

    def generic_visit(self, node):
        # operators pass, as do BinOp and UnaryOp nodes using one; all else fails
        if isinstance(node, _OPS):
            return node
        op = getattr(node, "op", None)
        if not isinstance(op, _OPS):
            self.fail(f"unsupported syntax ({type(op or node).__name__})", node)
        node = super().generic_visit(node)
        if isinstance(op, ast.Pow):  # ndarray ** 2 would take numpy's np.square shortcut
            return ast.copy_location(ast.Call(ast.Name("pow", ast.Load()), [node.left, node.right], []), node)
        return node

    def visit_Call(self, node):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        arity = 2 if name == "pow" else 1 if name in _FUNCS else None
        tail = self.text[node.args[-1].end_col_offset:node.end_col_offset] if node.args else ""
        if arity is None or node.keywords or len(node.args) != arity or "," in tail:
            self.fail(f"{name}() takes {arity} argument(s)" if arity else "unknown function", node)
        node.args = [self.visit(arg) for arg in node.args]
        return node


def _parse(source: str, namespace):
    """The validated tree of ``source``, its numbers bound in ``namespace``.

    Its nodes are ``u``, ``v``, constant names, ``+ - * /`` BinOps, unary
    minus and calls of the grammar's functions, ``**`` among them as ``pow``.
    """
    # one character for one, so positions carry over (float() reads any digit)
    text = "".join(" " if c.isspace() else str(int(c)) if c.isdecimal() else c for c in source)
    for i, c in enumerate(text):
        if c in "#\\" or not " " <= c <= "~":
            raise ExpressionError(f"unexpected character {c!r}", *_position(source, i))
    body = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), text).lstrip()
    offset = len(text) - len(body)
    try:
        return _Compiler(source, offset, body, namespace).visit(ast.parse(body, mode="eval").body)
    except SyntaxError as exc:  # offset 0 or None: at the end of the input
        index = offset + (exc.offset or len(body) + 1) - 1
        raise ExpressionError(exc.msg, *_position(source, index)) from None
    except (RecursionError, MemoryError):  # the parser's stack overflows as MemoryError
        raise ExpressionError("expression nested too deeply", 1, 1) from None


def compile_expression(source: str):
    """Parse ``source`` and return a vectorized callable ``f(u, v)``."""
    namespace = _namespace()
    args = ast.arguments([], [ast.arg("u"), ast.arg("v")], None, [], [], None, [])
    lam = ast.Lambda(args, _parse(source, namespace))
    try:
        code = compile(ast.fix_missing_locations(ast.Expression(lam)), "<expression>", "eval")
    except RecursionError:
        raise ExpressionError("expression nested too deeply", 1, 1) from None
    fn = eval(code, namespace)

    def evaluate(u, v):
        u, v, shape = _arguments(u, v)
        return _full(fn(u, v), shape)

    evaluate.source = source
    return evaluate


# the position of every generated node, which compile() requires
_AT = {"lineno": 1, "col_offset": 0}


def _name(name, ctx=ast.Load):
    return ast.Name(name, ctx(), **_AT)


def _node(op, args):
    """The expression applying ``op`` (an operator class or a function name) to named operands."""
    names = [_name(a) for a in args]
    if isinstance(op, str):
        return ast.Call(_name(op), names, [], **_AT)
    if op is ast.USub:
        return ast.UnaryOp(ast.USub(), *names, **_AT)
    return ast.BinOp(names[0], op(), names[1], **_AT)


class _Jets:
    """Straight-line code for the values and first partials of validated trees.

    Every quantity is a name: ``u``, ``v``, a float64 constant bound in
    ``namespace``, or a local assigned once.  A partial that is None is a
    structural zero, the partial of a constant, and every term with such a
    factor is dropped, as is every factor 1.  An operation on constants
    alone is evaluated now, as the compiled expression would evaluate it.
    Any other operation gets one local per operator and operands, so a
    subtree (or an E and G of the same text) is computed once.
    """

    def __init__(self):
        self.namespace = _namespace()
        self.one, self.two = _bind(self.namespace, 1.0), _bind(self.namespace, 2.0)
        self.lines = {}  # (op, *operands) -> its name, in order of first use

    def let(self, op, *args) -> str:
        key = (op, *args)
        if key not in self.lines:
            if all(a in self.namespace for a in args):
                code = compile(ast.Expression(_node(op, args)), "<expression>", "eval")
                with np.errstate(all="ignore"):
                    self.lines[key] = _bind(self.namespace, eval(code, self.namespace))
            else:
                self.lines[key] = f"_t{len(self.lines)}"
        return self.lines[key]

    def add(self, a, b):
        return b if a is None else a if b is None else self.let(ast.Add, a, b)

    def sub(self, a, b):
        return a if b is None else self.neg(b) if a is None else self.let(ast.Sub, a, b)

    def neg(self, a):
        return None if a is None else self.let(ast.USub, a)

    def mul(self, a, b):
        if a is None or b is None:
            return None
        return b if a == self.one else a if b == self.one else self.let(ast.Mult, a, b)

    def div(self, a, b):
        return None if a is None else a if b == self.one else self.let(ast.Div, a, b)

    def pow(self, a, b):
        return a if b == self.one else self.let("pow", a, b)

    def jet(self, node):
        """(value, d/du, d/dv) of the validated tree ``node``."""
        if isinstance(node, ast.Name):
            return node.id, *{"u": (self.one, None), "v": (None, self.one)}.get(node.id, (None, None))
        if isinstance(node, ast.Call):
            op, operands = node.func.id, node.args
        else:
            op = type(node.op)
            operands = [node.operand] if op is ast.USub else [node.left, node.right]
        jets = [self.jet(x) for x in operands]
        y = self.let(op, *(j[0] for j in jets))
        (a, *da), (b, *db) = (*jets, (None, None, None))[:2]
        return (y, *(_RULES[op](self, y, a, b, da[k], db[k]) for k in (0, 1)))

    def source(self, source: str):
        """(value, d/du, d/dv) of the expression ``source``."""
        return self.jet(_parse(source, self.namespace))

    def function(self, outputs):
        """``f(u, v)``: the ``outputs`` as float arrays of the broadcast shape of u and v."""
        outputs = [_bind(self.namespace, 0.0) if x is None else x for x in outputs]
        # the assignments the outputs read, found backwards from them
        needed, body = set(outputs), []
        for (op, *args), name in reversed(self.lines.items()):
            if name in needed and name not in self.namespace:
                needed.update(args)
                body.append(ast.Assign([_name(name, ast.Store)], _node(op, args), **_AT))
        fn = ast.parse("def _jets(u, v): pass").body[0]
        returned = ast.Tuple([_name(x) for x in outputs], ast.Load(), **_AT)
        fn.body = [*reversed(body), ast.Return(returned, **_AT)]
        exec(compile(ast.Module([fn], []), "<expression>", "exec"), self.namespace)
        jets = self.namespace.pop("_jets")

        def evaluate(u, v):
            u, v, shape = _arguments(u, v)
            return tuple(_full(x, shape) for x in jets(u, v))

        return evaluate


# The partial of each grammar node in one direction, from the node's value y,
# its operands a and b (b is None for a unary node) and their partials da, db.
_RULES = {
    ast.Add: lambda d, y, a, b, da, db: d.add(da, db),
    ast.Sub: lambda d, y, a, b, da, db: d.sub(da, db),
    ast.Mult: lambda d, y, a, b, da, db: d.add(d.mul(da, b), d.mul(a, db)),
    ast.Div: lambda d, y, a, b, da, db: d.div(d.sub(da, d.mul(y, db)), b),
    ast.USub: lambda d, y, a, b, da, db: d.neg(da),
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


def compile_christoffels(e_source: str, f_source: str, g_source: str):
    """Exact Christoffel symbols of the metric with entries E, F, G.

    Returns ``f(u, v)`` giving (G1_11, G1_12, G1_22, G2_11, G2_12, G2_22),
    six float arrays of the broadcast shape of u and v, from one compiled
    straight-line function of the expressions and their partials.  Where F
    is the constant 0 every F term is dropped.  All arithmetic is
    elementwise, so a row's symbols do not depend on its batch.
    """
    jets = _Jets()
    (e, e_u, e_v), (f, f_u, f_v), (g, g_u, g_v) = (jets.source(s) for s in (e_source, f_source, g_source))
    if f in jets.namespace and jets.namespace[f] == 0:
        f = None
    entries = {"e": e, "f": f, "g": g, "e_u": e_u, "e_v": e_v, "f_u": f_u, "f_v": f_v, "g_u": g_u, "g_v": g_v}
    w2 = jets.mul(jets.two, jets.sub(jets.mul(e, g), jets.mul(f, f)))
    symbols = []
    for terms in _CHRISTOFFEL_TERMS:
        num = None
        for c, x, dx in terms:
            term = jets.mul(jets.mul(jets.two, entries[x]) if abs(c) == 2 else entries[x], entries[dx])
            num = jets.add(num, term) if c > 0 else jets.sub(num, term)
        symbols.append(jets.div(num, w2))
    return jets.function(symbols)
