"""Recursive-descent parser for polynomial expressions.

Grammar (CAS-style): integer literals, a fixed variable set, binary + - * ^
with the usual precedence, unary minus, parentheses.  Multiplication must be
written explicitly ("s*t", never "st"); exponents are non-negative integer
literals.  The same grammar serves both k[s,u,t,v] and k[T1..T4].
Parentheses and unary minus signs may nest at most MAX_NESTING deep.

Products and powers are checked before they are expanded: each result's
total degree is at most MAX_DEGREE, the sum of the absolute values of its
coefficients at most 2**MAX_COEFF_BITS, and one parse multiplies at most
MAX_TERM_PRODUCTS pairs of terms.  The three limits together bound the time
of a parse by a second or so plus the time to read the text.
"""

from __future__ import annotations

from .poly import BigradedPoly, InputError, TPoly, _SparsePoly

# str.isdigit also accepts superscripts and non-ASCII decimal digits
_DIGITS = frozenset("0123456789")

# Deepest nesting of parentheses and unary minus signs accepted.  Each level
# costs the descent a few stack frames, so deeper input would otherwise end
# in RecursionError instead of ParseError.
MAX_NESTING = 100

# Largest total degree of a product or a power.  A bidegree-(e1,e2) map has
# degree e1+e2 and an implicit equation of degree at most 2*e1*e2, and
# `koszul_slice` admits its strands in the good region only when e1*e2 <= 21;
# the margin is for strands below the good region.  The time of a parse is
# bounded by MAX_TERM_PRODUCTS, not by this limit.
MAX_DEGREE = 128

# Largest ceil(log2) of the sum of the absolute coefficients of a product or a
# power.  The equations printed for bidegree (3,3) have coefficients of about
# 220 bits; at the limit a product of coefficients costs a few times one of
# small integers.
MAX_COEFF_BITS = 1024

# Most pairs of terms multiplied in one parse, the products inside powers
# included: (s+u+t+v)^28 is the largest power of that form it admits.
MAX_TERM_PRODUCTS = 2**19

_SIGNS = {"+": 1, "-": -1}


class ParseError(InputError):
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
