"""Tiny expression language for test functions given on the command line.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom (('^' | '**') signed-number)?
    atom   := number | 'z' | '(' expr ')'
              | 'exp' '(' expr ')' | 'abs' '(' expr ')'
              | 'const' '(' signed-number ')'
              | 'fab' '(' signed-number ',' signed-number ')'

Exponents are literal numbers, not expressions; that keeps evaluation a
plain composition of numpy operations with no symbolic machinery.  A '+'/'-'
or '*'/'/' chain of any length runs left to right in one loop; factors
(unary signs, parentheses, function calls) nest at most 64 deep.
``fab(a, b)`` is the profile family of ``functionals.extremal_profile``,

    f_{a,b}(z) = a |1 - b z|^(-(n-2)/2),     |b| < 1,

the two-parameter equality family of the critical-exponent inequality
(it needs the evaluation dimension, which is why parsed expressions are
called with both z and n).  Parse errors carry the offending position.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FunctionSpecError
from .functionals import extremal_profile

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>\*\*|[+\-*/^(),])"
    r")"
)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_MAX_DEPTH = 64  # unary signs plus parenthesized or function-call levels


@dataclass(frozen=True)
class FunctionExpr:
    """A parsed expression; call with (z, n) to evaluate."""

    text: str
    fn: Callable

    def __call__(self, z, n: float):
        return self.fn(np.asarray(z, dtype=float), float(n))

    def __repr__(self):
        return f"FunctionExpr({self.text!r})"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                # skip pure whitespace tail; anything else is a bad char
                if text[pos:].strip() == "":
                    break
                bad = len(text) - len(text[pos:].lstrip())
                raise FunctionSpecError(f"unexpected character {text[bad]!r}", bad)
            for kind in ("num", "name", "op"):
                val = m.group(kind)
                if val is not None:
                    self.tokens.append((kind, val, m.start(kind)))
                    break
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise FunctionSpecError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def signed_number(self) -> float:
        sign = 1.0
        kind, val, pos = self.next()
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            kind, val, pos = self.next()
        if kind != "num":
            raise FunctionSpecError(f"expected a number, found {val or 'end of input'!r}", pos)
        return sign * float(val)

    def chain(self, operand: Callable, ops: str) -> Callable:
        """operand (op operand)* for op in ``ops``, evaluated left to right in one loop."""
        first, rest = operand(), []
        kind, val, _ = self.peek()
        while kind == "op" and val in ops:
            self.next()
            rest.append((_BINARY[val], operand()))
            kind, val, _ = self.peek()
        if not rest:
            return first

        def run(z, n):
            acc = first(z, n)
            for op, f in rest:
                acc = op(acc, f(z, n))
            return acc

        return run

    def expr(self) -> Callable:
        return self.chain(self.term, "+-")

    def term(self) -> Callable:
        return self.chain(self.factor, "*/")

    def factor(self) -> Callable:
        kind, val, pos = self.peek()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise FunctionSpecError(f"nesting deeper than {_MAX_DEPTH} levels", pos)
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            out = (lambda z, n: -inner(z, n)) if val == "-" else inner
        else:
            out = self.power()
        self.depth -= 1
        return out

    def power(self) -> Callable:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val in ("^", "**"):
            self.next()
            e = self.signed_number()
            return lambda z, n: base(z, n) ** e
        return base

    def atom(self) -> Callable:
        kind, val, pos = self.next()
        if kind == "num":
            c = float(val)
            return lambda z, n: c + 0.0 * z
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            if val == "z":
                return lambda z, n: z
            if val in ("exp", "abs"):
                self.expect("(")
                inner, ufunc = self.expr(), np.exp if val == "exp" else np.abs
                self.expect(")")
                return lambda z, n: ufunc(inner(z, n))
            if val == "const":
                self.expect("(")
                c = self.signed_number()
                self.expect(")")
                return lambda z, n: c + 0.0 * z
            if val == "fab":
                self.expect("(")
                a = self.signed_number()
                self.expect(",")
                b = self.signed_number()
                self.expect(")")
                if abs(b) >= 1:
                    raise FunctionSpecError(f"fab needs |b| < 1, got b={b}", pos)
                return lambda z, n: extremal_profile(n, b, z, a)
            raise FunctionSpecError(f"unknown function {val!r}", pos)
        raise FunctionSpecError(f"unexpected {val or 'end of input'!r}", pos)


def parse_function(text: str) -> FunctionExpr:
    """Parse ``text`` into a callable (z, n) -> values."""
    if not text or not text.strip():
        raise FunctionSpecError("empty function specification", 0)
    p = _Parser(text)
    fn = p.expr()
    kind, val, pos = p.peek()
    if kind != "end":
        raise FunctionSpecError(f"unexpected trailing input {val!r}", pos)
    return FunctionExpr(text=text, fn=fn)
