"""Recursive-descent parser for polynomial expressions.

Grammar (CAS-style): integer literals, a fixed variable set, binary + - * ^
with the usual precedence, unary minus, parentheses.  Multiplication must be
written explicitly ("s*t", never "st"); exponents are non-negative integer
literals.  The same grammar serves both k[s,u,t,v] and k[T1..T4].
Parentheses and unary minus signs may nest at most MAX_NESTING deep.
"""

from __future__ import annotations

from .poly import BigradedPoly, TPoly, _SparsePoly

# str.isdigit also accepts superscripts and non-ASCII decimal digits
_DIGITS = frozenset("0123456789")

# Deepest nesting of parentheses and unary minus signs accepted.  Each level
# costs the descent a few stack frames, so deeper input would otherwise end
# in RecursionError instead of ParseError.
MAX_NESTING = 100


class ParseError(ValueError):
    """Malformed expression; `position` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """Identifier outside the ring's variable set."""


class _Parser:
    def __init__(self, text: str, poly_cls: type[_SparsePoly], var_names):
        self.text = text
        self.pos = 0
        self.cls = poly_cls
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def _nested(self, parse):
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", self.pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        result = self._expression()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return result

    def _expression(self):
        value = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                value = value + self._term()
            elif ch == "-":
                self.pos += 1
                value = value - self._term()
            else:
                return value

    def _term(self):
        value = self._factor()
        while self._peek() == "*":
            self.pos += 1
            value = value * self._factor()
        return value

    def _factor(self):
        if self._peek() == "-":
            self.pos += 1
            return -self._nested(self._factor)
        return self._power()

    def _power(self):
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._integer("exponent")
            return base**exponent
        return base

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._nested(self._expression)
            self._expect(")")
            return inner
        if ch in _DIGITS:
            return self.cls.constant(self._integer("integer literal"))
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            name = self.text[start : self.pos]
            if name not in self.vars:
                raise UnknownVariableError(
                    f"unknown variable {name!r}", start
                )
            return self.cls.variable(self.vars[name])
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def _integer(self, what: str) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError as err:  # more digits than int() converts
            raise ParseError(
                f"integer literal of {self.pos - start} digits is too long", start
            ) from err


def parse_poly(text: str) -> BigradedPoly:
    """Parse an expression in s, u, t, v."""
    return _Parser(text, BigradedPoly, BigradedPoly._var_names).parse()


def parse_tpoly(text: str) -> TPoly:
    """Parse an expression in T1..T4."""
    return _Parser(text, TPoly, TPoly._var_names).parse()
