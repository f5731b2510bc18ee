"""The character-by-character parser that `biimplicit.parser` replaced,
kept as the reference for tests/test_parser.py's property.

Its descent builds a polynomial for every integer, variable and factor and
multiplies them as polynomials.  The text below the imports is the old
module's unchanged, minus its limits and exception classes, which it takes
from `biimplicit.parser` so that both parsers share them.
"""

from __future__ import annotations

from biimplicit.parser import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_TERM_PRODUCTS,
    ParseError,
    UnknownVariableError,
)
from biimplicit.poly import BigradedPoly, TPoly, _SparsePoly

# str.isdigit also accepts superscripts and non-ASCII decimal digits
_DIGITS = frozenset("0123456789")

_SIGNS = {"+": 1, "-": -1}


class _Parser:
    def __init__(self, text: str, poly_cls: type[_SparsePoly], var_names):
        self.text = text
        self.pos = 0
        self.cls = poly_cls
        self.vars = {name: i for i, name in enumerate(var_names)}
        self.depth = 0
        self.term_products = 0

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
        # one term dict for the whole sum: `a + b` copies a, so a long sum of
        # distinct terms would take quadratic time
        terms = dict(self._term().terms)
        while (sign := _SIGNS.get(self._peek())) is not None:
            self.pos += 1
            for mono, c in self._term().terms.items():
                c = terms.pop(mono, 0) + sign * c
                if c:
                    terms[mono] = c
        return self.cls(terms)

    def _term(self):
        value = self._factor()
        while self._peek() == "*":
            position = self.pos
            self.pos += 1
            value = self._product(value, self._factor(), position)
        return value

    def _product(self, a, b, position: int):
        """a * b, refused before it is expanded when it passes a limit."""
        (da, ba), (db, bb) = _size(a), _size(b)
        _check(da + db, ba + bb, position)
        return self._multiply(a, b, position)

    def _multiply(self, a, b, position: int):
        self.term_products += len(a.terms) * len(b.terms)
        if self.term_products > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"more than {MAX_TERM_PRODUCTS} term products", position
            )
        return a * b

    def _factor(self):
        if self._peek() == "-":
            self.pos += 1
            return -self._nested(self._factor)
        return self._power()

    def _power(self):
        base = self._atom()
        if self._peek() != "^":
            return base
        position = self.pos
        self.pos += 1
        n = self._integer("exponent")
        degree, bits = _size(base)
        _check(n * degree, n * bits, position)
        result = self.cls.constant(1)
        # square and multiply: each intermediate is base^k with k <= n, which
        # the check above covers, and each product is counted
        while n:
            if n & 1:
                result = self._multiply(result, base, position)
            n >>= 1
            if n:
                base = self._multiply(base, base, position)
        return result

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


def _check(degree: int, bits: int, position: int):
    if degree > MAX_DEGREE:
        raise ParseError(f"total degree above {MAX_DEGREE}", position)
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"coefficients above {MAX_COEFF_BITS} bits", position)


def _size(p) -> tuple[int, int]:
    """Total degree and ceil(log2) of the sum of the absolute coefficients.
    Both are subadditive under products, so a power's are at most n times
    its base's."""
    norm = sum(map(abs, p.terms.values()))
    return max(map(sum, p.terms), default=0), max(norm - 1, 0).bit_length()


def parse_poly(text: str) -> BigradedPoly:
    """Parse an expression in s, u, t, v."""
    return _Parser(text, BigradedPoly, BigradedPoly._var_names).parse()


def parse_tpoly(text: str) -> TPoly:
    """Parse an expression in T1..T4."""
    return _Parser(text, TPoly, TPoly._var_names).parse()
