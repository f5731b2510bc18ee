"""Recursive-descent parser for polynomial expressions.

Grammar (CAS-style): integer literals, a fixed variable set, binary + - * ^
with the usual precedence, unary minus, parentheses.  Multiplication must be
written explicitly ("s*t", never "st"); exponents are non-negative integer
literals.  The same grammar serves both k[s,u,t,v] and k[T1..T4].
Parentheses and unary minus signs may nest at most MAX_NESTING deep.

The text is split into tokens once, and the descent keeps every
intermediate value as a plain term dict; the polynomial is built once, at
the end.  Products and powers are checked before they are expanded: each
result's total degree is at most MAX_DEGREE, the sum of the absolute
values of its coefficients at most 2**MAX_COEFF_BITS, and one parse
multiplies at most MAX_TERM_PRODUCTS pairs of terms.  The three limits
together bound the time of a parse by a second or so plus the time to read
the text.
"""

from __future__ import annotations

import re

from .poly import SOURCE_VARS, TARGET_VARS, BigradedPoly, InputError, Monomial, TPoly

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

# One token per match: a run of ASCII digits, a run of letters and digits
# (a name when it starts with a letter), or any other single character, each
# after optional whitespace; \s is str.isspace and [^\W_] is str.isalnum.
_TOKEN = re.compile(r"\s*([0-9]+|[^\W_]+|\S)")
_DIGITS = frozenset("0123456789")

# A monomial x1^a x2^b x3^c x4^d of total degree g is the key with fields
# g, a, b, c, d of _FIELD bits each, g highest: a product of monomials is
# one integer sum, and the largest key of a term dict has its largest total
# degree.  Every value is checked to total degree at most MAX_DEGREE before
# it is built, so no field carries into the next.
_FIELD = 16
_MASK = (1 << _FIELD) - 1
_ONE = 0


class ParseError(InputError):
    """Malformed expression; `position` is the 0-based offset in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """Identifier outside the ring's variable set."""


class _Parser:
    """The descent over the tokens of one text, ended by "".  A token is
    read by its text alone: an integer starts with a digit, a name with a
    letter, and anything else is compared as it is.  Where a token starts
    in the text is found again only for an error.  Every value is a fresh
    {monomial key: nonzero int} dict that its caller owns."""

    def __init__(self, text: str, var_names):
        self.text = text
        self.tokens = _TOKEN.findall(text) + [""]
        self.i = 0
        self.vars = {
            name: 1 << 4 * _FIELD | 1 << (3 - i) * _FIELD for i, name in enumerate(var_names)
        }
        self.depth = 0
        self.term_products = 0

    def _error(self, message: str, index: int, offset: int = 0, cls=ParseError):
        """The error at `offset` characters into the token at `index`."""
        starts = [match.start(1) for match in _TOKEN.finditer(self.text)]
        position = starts[index] if index < len(starts) else len(self.text)
        return cls(message, position + offset)

    def _nested(self, parse):
        # the token before self.i is the '(' or '-' that opens this level
        if self.depth == MAX_NESTING:
            raise self._error(f"nesting deeper than {MAX_NESTING} levels", self.i - 1, 1)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self) -> dict[Monomial, int]:
        terms = self._expression()
        token = self.tokens[self.i]
        if token:
            raise self._error(f"unexpected character {token[0]!r}", self.i)
        return {
            (k >> 3 * _FIELD & _MASK, k >> 2 * _FIELD & _MASK, k >> _FIELD & _MASK, k & _MASK): c
            for k, c in terms.items()
        }

    def _expression(self) -> dict:
        # one term dict for the whole sum, so a long sum of distinct terms
        # takes linear time
        terms = self._term()
        while (sign := _SIGNS.get(self.tokens[self.i])) is not None:
            self.i += 1
            for mono, c in self._term().items():
                c = terms.pop(mono, 0) + sign * c
                if c:
                    terms[mono] = c
        return terms

    def _term(self) -> dict:
        value = self._factor()
        while self.tokens[self.i] == "*":
            index = self.i
            self.i += 1
            value = self._product(value, self._factor(), index)
        return value

    def _product(self, a: dict, b: dict, index: int) -> dict:
        """a * b, refused before it is expanded when it passes a limit."""
        if len(a) == 1 == len(b):  # a monomial times a monomial
            ((ma, ca),), ((mb, cb),) = a.items(), b.items()
            mono = ma + mb
            bits = (abs(ca) - 1).bit_length() + (abs(cb) - 1).bit_length()
            self._check(mono >> 4 * _FIELD, bits, index)
            self._count(1, index)
            return {mono: ca * cb}
        (da, ba), (db, bb) = _size(a), _size(b)
        self._check(da + db, ba + bb, index)
        return self._multiply(a, b, index)

    def _check(self, degree: int, bits: int, index: int):
        if degree > MAX_DEGREE:
            raise self._error(f"total degree above {MAX_DEGREE}", index)
        if bits > MAX_COEFF_BITS:
            raise self._error(f"coefficients above {MAX_COEFF_BITS} bits", index)

    def _count(self, products: int, index: int):
        self.term_products += products
        if self.term_products > MAX_TERM_PRODUCTS:
            raise self._error(f"more than {MAX_TERM_PRODUCTS} term products", index)

    def _multiply(self, a: dict, b: dict, index: int) -> dict:
        self._count(len(a) * len(b), index)
        out: dict[int, int] = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = m1 + m2
                c = get(mono, 0) + c1 * c2
                if c:
                    out[mono] = c
                else:
                    del out[mono]
        return out

    def _factor(self) -> dict:
        if self.tokens[self.i] == "-":
            self.i += 1
            return {m: -c for m, c in self._nested(self._factor).items()}
        return self._power()

    def _power(self) -> dict:
        base = self._atom()
        if self.tokens[self.i] != "^":
            return base
        index = self.i
        self.i += 1
        n = self._integer("exponent")
        degree, bits = _size(base)
        self._check(n * degree, n * bits, index)
        if len(base) == 1:
            # what the loop below counts: one product of one term by one
            # term per step, and the powers of a nonzero term never vanish
            self._count(n.bit_count() + n.bit_length() - 1 if n else 0, index)
            ((mono, c),) = base.items()
            return {mono * n: c**n}
        result = {_ONE: 1}
        # square and multiply: each intermediate is base^k with k <= n, which
        # the check above covers, and each product is counted
        while n:
            if n & 1:
                result = self._multiply(result, base, index)
            n >>= 1
            if n:
                base = self._multiply(base, base, index)
        return result

    def _atom(self) -> dict:
        token = self.tokens[self.i]
        if token == "(":
            self.i += 1
            inner = self._nested(self._expression)
            if self.tokens[self.i] != ")":
                raise self._error("expected ')'", self.i)
            self.i += 1
            return inner
        if token[:1] in _DIGITS:
            c = self._integer("integer literal")
            return {_ONE: c} if c else {}
        if token[:1].isalpha():
            if token not in self.vars:
                raise self._error(f"unknown variable {token!r}", self.i, cls=UnknownVariableError)
            self.i += 1
            return {self.vars[token]: 1}
        if not token:
            raise self._error("unexpected end of input", self.i)
        raise self._error(f"unexpected character {token[0]!r}", self.i)

    def _integer(self, what: str) -> int:
        token = self.tokens[self.i]
        if token[:1] not in _DIGITS:
            raise self._error(f"expected {what}", self.i)
        try:
            value = int(token)
        except ValueError as err:  # more digits than int() converts
            raise self._error(f"integer literal of {len(token)} digits is too long", self.i) from err
        self.i += 1
        return value


def _size(terms: dict) -> tuple[int, int]:
    """Total degree and ceil(log2) of the sum of the absolute coefficients.
    Both are subadditive under products, so a power's are at most n times
    its base's."""
    norm = sum(map(abs, terms.values()))
    return max(terms, default=0) >> 4 * _FIELD, max(norm - 1, 0).bit_length()


def parse_poly(text: str) -> BigradedPoly:
    """Parse an expression in s, u, t, v."""
    return BigradedPoly._raw(_Parser(text, SOURCE_VARS).parse())


def parse_tpoly(text: str) -> TPoly:
    """Parse an expression in T1..T4."""
    return TPoly._raw(_Parser(text, TARGET_VARS).parse())
