"""Minimal arithmetic expressions in one variable, compiled to numpy callables.

Grammar: numbers written with ASCII digits (`2`, `007`, `.5`, `1e-3`), `pi`,
the variable name, + - * / with the usual precedence, unary minus,
parentheses, and sin(...). Any whitespace separates tokens. Division by zero
yields +-inf, which downstream code treats as a boundary marker.

The text is read by Python's own parser (`ast.parse`) and only the grammar's
nodes are compiled; any other node is a `ValueError`. Before the parser runs,
a character outside the grammar's alphabet is refused (`,`, `%`, quotes, `#`),
whitespace runs become one space, and the leading zeros of integers are
dropped (Python refuses `01`). A number's own text is read by `float`, so
`1_0`, `0x1`, `1j` and `True` are refused, and so are digits outside ASCII
(`٣`) and an integer literal past Python's limit on integer text (4300
digits by default). Nesting stops at 200 parentheses,
the parser's limit, and an expression nested deeper (in parentheses or in a
long chain of operators) is a `ValueError`. The variable name must be a
Python identifier other than a keyword, `pi` or `sin`.

`parse_symfn` keeps its last `PARSE_CACHE_SIZE` results in a
`functools.lru_cache`: a compactification reads the same generators, rules
and weights again and again, and a `SymFn` is frozen and holds only
closures, so one object serves every caller. A refused text is not kept and
raises on every call.
"""
from __future__ import annotations

import ast
import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["SymFn", "parse_symfn"]


@dataclass(frozen=True)
class SymFn:
    text: str
    var: str
    _fn: Callable

    def __call__(self, x):
        scalar = np.isscalar(x)
        arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = self._fn(arr)
        out = np.broadcast_to(np.asarray(out, dtype=float), arr.shape).copy()
        return float(out) if scalar else out

    def __repr__(self):
        return f"SymFn({self.text!r})"


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
# a character outside the grammar's alphabet: \w is str.isalnum() and `_`,
# \s is str.isspace()
_OUTSIDE = re.compile(r"[^\w\s+\-*/().]")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")
_NUMBER = re.compile(r"[0-9.eE+-]+")
PARSE_CACHE_SIZE = 512  # distinct (text, var) pairs kept by `parse_symfn`


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_symfn(text: str, var: str = "t") -> SymFn:
    if bad := _OUTSIDE.search(text):
        raise ValueError(f"unexpected character {bad.group()!r} in {text!r}")
    src = _LEADING_ZEROS.sub("", " ".join(text.split()))
    raw = src.encode()  # one line; node offsets count its UTF-8 bytes

    def build(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op, a, b = _BINARY[type(node.op)], build(node.left), build(node.right)
            return lambda x: op(a(x), b(x))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = build(node.operand)
            return lambda x: -inner(x)
        seg = raw[node.col_offset:node.end_col_offset].decode()
        # a parenthesized callee, `(sin)(t)`, is not the grammar's `sin(...)`
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sin" and seg.startswith("sin")
                and len(node.args) == 1 and not node.keywords):
            inner = build(node.args[0])
            return lambda x: np.sin(inner(x))
        if seg == "pi" or isinstance(node, ast.Constant) and _NUMBER.fullmatch(seg):
            val = math.pi if seg == "pi" else float(seg)
            return lambda x: np.full_like(np.asarray(x, dtype=float), val)
        if seg == var != "sin":
            return lambda x: np.asarray(x, dtype=float)
        if isinstance(node, ast.Name):
            raise ValueError(f"unknown name {seg!r} (variable is {var!r})")
        raise ValueError(f"unexpected {seg!r} in {text!r}")

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # `1if` warns; the grammar refuses it
            fn = build(ast.parse(src, mode="eval").body)
    except SyntaxError as err:
        raise ValueError(f"cannot read expression: {err.msg}") from None
    except (RecursionError, MemoryError):
        raise ValueError("expression nested too deeply") from None
    return SymFn(text=text, var=var, _fn=fn)
