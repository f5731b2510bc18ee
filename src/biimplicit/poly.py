"""The sparse-polynomial engine: the one module that does arithmetic on term
dicts.  Its rings are the source ring k[s,u,t,v], graded by deg(s) = deg(u)
= (1,0) and deg(t) = deg(v) = (0,1), and the target ring k[T1..T4], where
implicit equations live.

Monomials are exponent 4-tuples; coefficients are exact, ints or Fractions,
with integral values kept as ints for the integer fast paths.  The content
and primitive part of a polynomial or an integer row are computed here once
(`rational_content`, `divide_content`, `integer_primitive`), and so is the
gcd over Z (`tpoly_gcd`, see the comment above `exact_div`: homogeneous
inputs lose a variable, and the trial division packs each monomial in an int).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, isqrt, lcm
from operator import lshift
from typing import Iterable, Iterator, Mapping

import numpy as np

# exponent 4-tuples: (a_s, a_u, a_t, a_v) for the source ring,
# (a_T1, a_T2, a_T3, a_T4) for the target ring
Monomial = tuple[int, int, int, int]

SOURCE_VARS = ("s", "u", "t", "v")
TARGET_VARS = ("T1", "T2", "T3", "T4")


class InputError(ValueError):
    """Malformed or oversized input; the command line exits 1 on any of
    them."""


class ZeroPolynomialError(InputError):
    """The zero polynomial has no bidegree."""


class NotBihomogeneousError(InputError):
    """Terms of mixed bidegrees where a single bidegree is required."""


def exact(c):
    """Normalize a coefficient: Fractions with denominator 1 become ints.

    Floats are rejected; everything in this package is exact.
    """
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


def rational_content(coefficients: Iterable) -> Fraction:
    """Positive rational content of exact coefficients: the gcd of their
    numerators over the lcm of their denominators; 0 when all are zero."""
    nums = 0
    dens = 1
    for c in coefficients:
        if isinstance(c, int):
            nums = gcd(nums, c)
        else:
            nums = gcd(nums, c.numerator)
            dens = lcm(dens, c.denominator)
    return Fraction(nums, dens)


def divide_content(c, content: Fraction) -> int:
    """c / content as an int, for a coefficient c of a vector whose rational
    content (of either sign) is `content`."""
    if isinstance(c, int):
        return c * content.denominator // content.numerator
    return c.numerator * (content.denominator // c.denominator) // content.numerator


def integer_primitive(terms: dict) -> tuple[int, dict]:
    """Content and primitive part of a dict of int coefficients; the
    primitive part is `terms` itself when the content is 1."""
    content = gcd(*terms.values())
    if content == 1:
        return 1, terms
    return content, {m: c // content for m, c in terms.items()}


@dataclass(frozen=True)
class Bidegree:
    """A Z^2 degree; addition and scalar multiples componentwise."""

    d1: int
    d2: int

    def __add__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.d1 - other.d1, self.d2 - other.d2)

    def __mul__(self, k: int) -> "Bidegree":
        return Bidegree(self.d1 * k, self.d2 * k)

    __rmul__ = __mul__

    def dominates(self, other: "Bidegree") -> bool:
        """Componentwise >=; this is only a partial order on Z^2."""
        return self.d1 >= other.d1 and self.d2 >= other.d2

    def as_pair(self) -> tuple[int, int]:
        return (self.d1, self.d2)

    def __iter__(self) -> Iterator[int]:
        return iter((self.d1, self.d2))

    def __str__(self) -> str:
        return f"({self.d1},{self.d2})"


def as_bidegree(value) -> Bidegree:
    if isinstance(value, Bidegree):
        return value
    d1, d2 = value
    return Bidegree(int(d1), int(d2))


def mono_bidegree(m: Monomial) -> Bidegree:
    return Bidegree(m[0] + m[1], m[2] + m[3])


def evaluate_many(terms: dict, points) -> list:
    """The values `evaluate` gives at each of many integer points, computed
    over numpy object arrays of Python ints: the terms grouped by (a, b) are
    sums over power tables of the third and fourth coordinates, combined by
    Horner's rule in the second coordinate, then the first."""
    x1, x2, x3, x4 = np.array(points, dtype=object).reshape(-1, 4).T
    if not terms:
        return [0] * len(x1)
    groups: dict[int, dict[int, list]] = {}
    for (a, b, c, d), coeff in terms.items():
        groups.setdefault(a, {}).setdefault(b, []).append((c, d, coeff))
    p3, p4 = [[np.ones(len(x1), dtype=object)] for _ in range(2)]
    for x, table, i in ((x3, p3, 2), (x4, p4, 3)):
        for _ in range(max((m[i] for m in terms), default=0)):
            table.append(table[-1] * x)

    def in_x2(row: dict):
        descending = sorted(row.items(), reverse=True)
        return _horner(((b, sum(k * p3[c] * p4[d] for c, d, k in g)) for b, g in descending), x2)

    rows = ((a, in_x2(row)) for a, row in sorted(groups.items(), reverse=True))
    return [exact(x) for x in _horner(rows, x1)]


def _horner(pairs, x):
    """The sum of v * x**k over (k, v) pairs in descending k, by Horner's
    rule; a gap between exponents, as in a sparse high-degree form, is
    crossed by one power instead of one product per missing exponent."""
    total = last = None
    for k, v in pairs:
        total = v if total is None else total * (x if last - k == 1 else x ** (last - k)) + v
        last = k
    return total * x**last if last else total


class _SparsePoly:
    """Shared dict-of-terms machinery for both rings."""

    __slots__ = ("terms",)
    _var_names: tuple[str, ...] = ()

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean: dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                c = exact(coeff)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def monomial(cls, mono: Monomial, coeff=1):
        return cls({tuple(mono): coeff})

    @classmethod
    def variable(cls, index: int):
        e = [0, 0, 0, 0]
        e[index] = 1
        return cls({tuple(e): 1})

    # -- ring operations -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            val = out.get(mono, 0) + c
            if val:
                out[mono] = val if type(val) is int else exact(val)
            else:
                out.pop(mono, None)
        return self._raw(out)

    def __neg__(self):
        return self._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if isinstance(other, type(self)):
            out: dict[Monomial, object] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                    val = out.get(mono, 0) + c1 * c2
                    if val:
                        out[mono] = val if type(val) is int else exact(val)
                    else:
                        out.pop(mono, None)
            return self._raw(out)
        if isinstance(other, (int, Fraction)):
            k = exact(other)
            if not k:
                return self._raw({})
            return self._raw({m: exact(c * k) for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap a term dict known to be clean (exact coefficients, no zeros)."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    # -- queries ---------------------------------------------------------------

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), 0)

    def evaluate(self, point) -> Fraction | int:
        """The value at a point given by four exact coordinates."""
        x1, x2, x3, x4 = (exact(x) for x in point)
        total = 0
        for (a, b, c, d), coeff in self.terms.items():
            total += coeff * x1**a * x2**b * x3**c * x4**d
        return exact(total)

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators / lcm of denominators."""
        return rational_content(self.terms.values())

    def primitive(self):
        """Divide by the content and normalize the sign so the canonical
        leading term (descending lex on exponents) is positive."""
        if not self.terms:
            return self
        cont = self.content()
        if self.terms[max(self.terms)] < 0:
            cont = -cont
        elif cont == 1:
            return self
        return self._raw({m: divide_content(c, cont) for m, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """Terms in descending lexicographic order on exponent tuples."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __str__(self) -> str:
        """Canonical rendering: descending lex term order, explicit signs,
        '^' for powers, '*' between factors, no implicit multiplication."""
        return _join_terms(
            (c, "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(self._var_names, mono) if e))
            for mono, c in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


def _join_terms(terms) -> str:
    """The text of a sum of (coefficient, factors) terms in print order,
    `factors` the '*'-joined variable powers of the monomial, '' for 1: a
    unit magnitude is left out before factors, and no terms read "0"."""
    chunks: list[str] = []
    for coeff, factors in terms:
        text = str(coeff)
        neg = text[0] == "-"
        mag = text[1:] if neg else text
        body = mag if not factors else factors if mag == "1" else mag + "*" + factors
        chunks.append(((" - " if neg else " + ") if chunks else ("-" if neg else "")) + body)
    return "".join(chunks) or "0"


def linear_form_rows(rows, contents) -> list[list[str]]:
    """str(TPoly) of every entry k_j*(a1*T1 + .. + a4*T4) of a matrix given
    as rows of integer 4-tuples (a1, .., a4), k_j = contents[j] > 0 the
    rational content of column j.  Each coefficient k_j*a_i is printed as
    str(Fraction) prints it, from its numerator and denominator divided by
    their gcd, with no Fraction built."""
    scales = [(k.numerator, k.denominator) for k in contents]
    return [
        [
            _join_terms([(_quotient_str(a * p, q), x) for a, x in zip(e, TARGET_VARS) if a])
            if any(e)
            else "0"
            for e, (p, q) in zip(row, scales)
        ]
        for row in rows
    ]


def _quotient_str(a: int, b: int) -> str:
    """str(Fraction(a, b)) for integers a and b > 0."""
    g = gcd(a, b)
    return str(a // g) if g == b else f"{a // g}/{b // g}"


class BigradedPoly(_SparsePoly):
    """Element of k[s,u,t,v] with the (1,0)/(0,1) bigrading."""

    _var_names = SOURCE_VARS

    def bidegree(self) -> Bidegree:
        """Bidegree of a nonzero bihomogeneous polynomial.

        Raises ZeroPolynomialError on 0 and NotBihomogeneousError when terms
        have mixed bidegrees.
        """
        it = iter(self.terms)
        first = next(it, None)
        if first is None:
            raise ZeroPolynomialError("the zero polynomial has no bidegree")
        deg = mono_bidegree(first)
        for mono in it:
            if mono_bidegree(mono) != deg:
                raise NotBihomogeneousError(
                    f"mixed bidegrees: {deg} and {mono_bidegree(mono)}"
                )
        return deg


class TPoly(_SparsePoly):
    """Element of k[T1,T2,T3,T4]; implicit equations live here."""

    _var_names = TARGET_VARS

    def total_degree(self) -> int:
        """Max exponent sum over terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1


def substitute_T(q: TPoly, values: Iterable[BigradedPoly]) -> BigradedPoly:
    """Expand q(T1..T4) with Ti replaced by the given source-ring polynomials.

    Exact expansion; powers of each substituted polynomial are cached since
    implicit equations reuse the same exponents many times.
    """
    vals = tuple(values)
    if len(vals) != 4:
        raise ValueError("substitute_T needs exactly 4 replacement polynomials")
    one = BigradedPoly.constant(1)
    powers: list[dict[int, BigradedPoly]] = [{0: one} for _ in range(4)]

    def power(i: int, e: int) -> BigradedPoly:
        cache = powers[i]
        if e not in cache:
            top = max(cache)
            acc = cache[top]
            for k in range(top + 1, e + 1):
                acc = acc * vals[i]
                cache[k] = acc
        return cache[e]

    result = BigradedPoly.zero()
    for mono, coeff in q.terms.items():
        term = BigradedPoly.constant(coeff)
        for i, e in enumerate(mono):
            if e:
                term = term * power(i, e)
        result = result + term
    return result


@dataclass(frozen=True)
class Parametrization:
    """Four nonzero polynomials, all bihomogeneous of the same bidegree."""

    polys: tuple[BigradedPoly, BigradedPoly, BigradedPoly, BigradedPoly]
    bidegree: Bidegree

    def __post_init__(self):
        if len(self.polys) != 4:
            raise ValueError("a parametrization needs exactly 4 polynomials")
        for i, p in enumerate(self.polys):
            if p.is_zero():
                raise ZeroPolynomialError(f"polynomial {i + 1} is zero")
            if p.bidegree() != self.bidegree:
                raise NotBihomogeneousError(
                    f"polynomial {i + 1} has bidegree {p.bidegree()}, "
                    f"expected {self.bidegree}"
                )

    @classmethod
    def from_polys(cls, polys) -> "Parametrization":
        polys = tuple(polys)
        if len(polys) != 4:
            raise ValueError("a parametrization needs exactly 4 polynomials")
        return cls(polys, polys[0].bidegree())


# -- gcd over Z ---------------------------------------------------------------
#
# Heuristic gcd, GCDHEU (Char, Geddes and Gonnet, J. Symb. Comp. 1989; Geddes,
# Czapor and Labahn, *Algorithms for Computer Algebra*, section 7.7), on
# integer term dicts with exponent tuples of any (equal) length.  For nonzero
# primitive f, g in Z[x1..xk] the last variable is set to an integer
# xi >= 2*min(|f|, |g|) + 2 (|.| the largest absolute coefficient), and the
# gcd gamma of f(xi), g(xi) in Z[x1..x(k-1)] is found the same way, down to
# the integer gcd.  The xi-adic expansion of gamma with digits in the
# symmetric range is a polynomial h with h(xi) = gamma.  Its primitive part is
# accepted only when it divides both f and g exactly over Z, and by GCL
# Theorem 7.7 that trial division alone proves it is the gcd: the xi bound
# makes any common divisor of f, g that passes it the greatest one.
#
# Otherwise xi grows and the attempt repeats.  This ends: with f = G*u and
# g = G*v for coprime u, v, gamma = G(xi)*E where E = gcd(u(xi), v(xi)).  A
# nonconstant E survives only at the finitely many xi where a nonzero
# resultant of u and v vanishes, and otherwise E is an integer dividing a
# fixed integer of u and v alone (the univariate resultant when k = 1).  Once
# xi also exceeds 2*|E*G|, the expansion of gamma is E*G itself, whose
# primitive part is G.  One gcd of large integers thus replaces the remainder
# sequences of a classical method; the trial division is the only polynomial
# arithmetic left.
#
# For homogeneous f, g (the determinants, in T1..T4) the last variable is
# dropped, not evaluated (which makes inner integers deg + 1 times longer):
# gcd commutes with dehomogenizing for polynomials x_last does not divide.
# The trial division packs each monomial into one int, w-bit fields from the
# first variable down, w - 1 the bit length of the largest exponent, so each
# field's top bit is a guard bit (Monagan and Pearce, CASC 2007) that a
# negative exponent borrows into and that a term leaving a's exponent box
# sets; an exact quotient does neither (supp b + supp q lies in Newt(a)).


def exact_div(a: dict, b: dict) -> dict:
    """Quotient of integer term dicts by trial division in descending lex
    order; raises ArithmeticError when b does not divide a over Z."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    w = max(chain.from_iterable(chain(a, b)), default=0).bit_length() + 1
    shifts = range(w * len(next(iter(b))) - w, -1, -w)
    guard = sum(1 << (s + w - 1) for s in shifts)

    def pack(m):
        return sum(map(lshift, m, shifts))

    rem = {pack(m): c for m, c in a.items()}
    heap = [-m for m in rem]  # a max-heap of rem's keys; stale ones are skipped
    heapify(heap)
    lead_b = max(b)
    lb, top = b[lead_b], pack(lead_b)
    rest = [(pack(m), c) for m, c in b.items() if m != lead_b]
    quo: dict = {}
    while rem:
        lead = -heappop(heap)
        if lead not in rem:
            continue
        mono = lead - top  # a borrow, a negative exponent, sets a guard bit
        c, r = divmod(rem.pop(lead), lb)
        if r or mono & guard:
            raise ArithmeticError("inexact polynomial division")
        quo[mono] = c
        for mb, cb in rest:
            m = mono + mb
            if m & guard:  # outside a's exponent box, so outside Newt(a)
                raise ArithmeticError("inexact polynomial division")
            val = rem.get(m)
            if val is None:
                rem[m] = -c * cb
                heappush(heap, -m)
            elif val := val - c * cb:
                rem[m] = val
            else:
                del rem[m]
    mask = (1 << w) - 1
    return {tuple(m >> s & mask for s in shifts): c for m, c in quo.items()}


def _evaluate_last(p: dict, xi: int, degree: int) -> dict:
    """p with its last variable set to xi, on exponent tuples one shorter."""
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * xi)
    out: dict = {}
    for mono, c in p.items():
        key = mono[:-1]
        out[key] = out.get(key, 0) + c * powers[mono[-1]]
    return {m: c for m, c in out.items() if c}


def _lift(gamma: dict, xi: int) -> dict:
    """The polynomial h in one more variable with h(xi) = gamma, each
    coefficient expanded in base xi with digits in (-xi/2, xi/2]."""
    half = xi // 2
    out: dict = {}
    for mono, c in gamma.items():
        e = 0
        while c:
            c, d = divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                out[mono + (e,)] = d
            e += 1
    return out


def _gcd(f: dict, g: dict) -> dict:
    """A gcd of integer term dicts, not both zero, over Z in the variables
    of their (equal-length) exponent tuples; the sign is not normalized."""
    if not f:
        return g
    if not g:
        return f
    nvars = len(next(iter(f)))
    if nvars == 0:
        return {(): gcd(f[()], g[()])}
    cf, f = integer_primitive(f)
    cg, g = integer_primitive(g)
    content = gcd(cf, cg)
    df = max(m[-1] for m in f)
    dg = max(m[-1] for m in g)
    homogeneous = len(set(map(sum, f))) == len(set(map(sum, g))) == 1
    if df == dg == 0 or homogeneous:
        # the last variable is absent, or follows from the others: drop it,
        # then put back x^(n - |m|), n the top degree plus min(ord f, ord g)
        h = _gcd(
            {m[:-1]: c for m, c in f.items()}, {m[:-1]: c for m, c in g.items()}
        )
        n = max(map(sum, h)) + min(min(m[-1] for m in f), min(m[-1] for m in g))
        return {m + (homogeneous * (n - sum(m)),): c * content for m, c in h.items()}
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    xi = 2 * norm + 2
    while True:
        gamma = _gcd(_evaluate_last(f, xi, df), _evaluate_last(g, xi, dg))
        _, h = integer_primitive(_lift(gamma, xi))
        try:
            if any(map(any, h)):  # a constant h divides f and g
                exact_div(f, h)
                exact_div(g, h)
        except ArithmeticError:
            xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
            continue
        return {m: c * content for m, c in h.items()}


def tpoly_gcd(a: TPoly, b: TPoly) -> TPoly:
    """Primitive, sign-normalized gcd of two target-ring polynomials."""
    if a.is_zero() and b.is_zero():
        return TPoly.zero()
    g = _gcd(a.primitive().terms, b.primitive().terms)
    return TPoly(g).primitive()
