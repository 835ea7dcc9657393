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


class _Compiler(ast.NodeTransformer):
    """Reject every node outside the grammar; bind numbers to float64 names."""

    def __init__(self, source: str, offset: int, text: str):
        self.source, self.offset, self.text = source, offset, text
        self.namespace = {"__builtins__": {}, "pow": np.power, **_FUNCS}

    def fail(self, message, node):
        raise ExpressionError(message, *_position(self.source, self.offset + node.col_offset))

    def bind(self, value, node):
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = np.float64(value)
        return ast.copy_location(ast.Name(name, ast.Load()), node)

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


def compile_expression(source: str):
    """Parse ``source`` and return a vectorized callable ``f(u, v)``."""
    # one character for one, so positions carry over (float() reads any digit)
    text = "".join(" " if c.isspace() else str(int(c)) if c.isdecimal() else c for c in source)
    for i, c in enumerate(text):
        if c in "#\\" or not " " <= c <= "~":
            raise ExpressionError(f"unexpected character {c!r}", *_position(source, i))
    body = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), text).lstrip()
    offset = len(text) - len(body)
    compiler = _Compiler(source, offset, body)
    args = ast.arguments([], [ast.arg("u"), ast.arg("v")], None, [], [], None, [])
    try:
        lam = ast.Lambda(args, compiler.visit(ast.parse(body, mode="eval").body))
        code = compile(ast.fix_missing_locations(ast.Expression(lam)), "<expression>", "eval")
    except SyntaxError as exc:  # offset 0 or None: at the end of the input
        index = offset + (exc.offset or len(body) + 1) - 1
        raise ExpressionError(exc.msg, *_position(source, index)) from None
    except RecursionError:
        raise ExpressionError("expression nested too deeply", 1, 1) from None
    fn = eval(code, compiler.namespace)

    def evaluate(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        out = np.asarray(fn(u, v), dtype=float)
        shape = np.broadcast_shapes(u.shape, v.shape)
        return out if out.shape == shape else np.broadcast_to(out, shape).copy()

    evaluate.source = source
    return evaluate
