"""Recursive-descent parser for the config expression language.

Grammar (whitespace ignored between tokens):

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := ('+' | '-') unary | power
    power := atom ('^' unary)?          right-associative
    atom  := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

NAME is one of the variables x, y, the constants pi, e, or the functions
sin, cos, exp, log.  Nesting deeper than MAX_DEPTH levels raises
ExpressionError at the token that opens the level too many.  Evaluation is
vectorized over numpy arrays; domain errors (log of a nonpositive value)
propagate as non-finite values for the caller to reject.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .exceptions import ExpressionError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "y")
_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}

# Deepest nesting the parser accepts.  A level takes at most five frames of
# the recursive descent, so parsing stays inside Python's default recursion
# limit of 1000 with room for the caller's stack.
MAX_DEPTH = 160


def _left_fold(first, rest):
    """One node for `first op1 t1 op2 t2 ...`, evaluated left to right.

    The loop keeps a long sum or product from nesting one call per term.
    """
    if not rest:
        return first

    def fold(x, y):
        acc = first(x, y)
        for op, term in rest:
            acc = op(acc, term(x, y))
        return acc

    return fold


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}",
                                  tok[2])
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected trailing {tok[1]!r}", tok[2])
        return node

    def expr(self):
        first, rest = self.term(), []
        while self.peek()[0] in ("+", "-"):
            rest.append((_BINARY[self.take()[0]], self.term()))
        return _left_fold(first, rest)

    def term(self):
        first, rest = self.unary(), []
        while self.peek()[0] in ("*", "/"):
            rest.append((_BINARY[self.take()[0]], self.unary()))
        return _left_fold(first, rest)

    def unary(self):
        # Every level of nesting (parentheses, calls, signs, exponents)
        # passes through here.
        tok = self.peek()
        if self.depth == MAX_DEPTH:
            raise ExpressionError(
                f"expression nested deeper than {MAX_DEPTH} levels", tok[2])
        self.depth += 1
        if tok[0] in ("+", "-"):
            self.take()
            node = self.unary()
            if tok[0] == "-":
                node = (lambda a: lambda x, y: -a(x, y))(node)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            expo = self.unary()
            return (lambda a, b: lambda x, y:
                    np.power(a(x, y), b(x, y)))(base, expo)
        return base

    def atom(self):
        tok = self.take()
        kind, value, pos = tok
        if kind == "num":
            return (lambda v: lambda x, y: v)(value)
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        if kind == "name":
            if value in _VARIABLES:
                if value == "x":
                    return lambda x, y: x
                return lambda x, y: y
            if value in _CONSTANTS:
                return (lambda v: lambda x, y: v)(_CONSTANTS[value])
            if value in _FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return (lambda fn, a: lambda x, y: fn(a(x, y)))(
                    _FUNCTIONS[value], arg)
            raise ExpressionError(f"unknown name {value!r}", pos)
        raise ExpressionError(f"unexpected {value!r}", pos)


class Expression:
    """A compiled expression over the variables x and y."""

    __slots__ = ("text", "_fn")

    def __init__(self, text: str):
        self.text = str(text)
        self._fn = _Parser(self.text).parse()

    def __call__(self, x, y=0.0):
        with np.errstate(all="ignore"):
            out = self._fn(np.asarray(x, dtype=float),
                           np.asarray(y, dtype=float))
        return out

    def __repr__(self):
        return f"Expression({self.text!r})"


def parse_expression(text: str) -> Expression:
    return Expression(text)
