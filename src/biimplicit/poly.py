"""Exact sparse polynomial arithmetic for the two rings of the pipeline.

Source ring: k[s,u,t,v] graded by deg(s) = deg(u) = (1,0), deg(t) = deg(v) = (0,1),
with coefficients in Q.  Target ring: k[T1..T4], where implicit equations live.
Monomials are raw exponent 4-tuples; coefficients are ints or Fractions (ints are
kept as ints so that bulk arithmetic stays on machine/bigint fast paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Rational = Fraction

# exponent 4-tuples: (a_s, a_u, a_t, a_v) for the source ring,
# (a_T1, a_T2, a_T3, a_T4) for the target ring
Monomial = tuple[int, int, int, int]

SOURCE_VARS = ("s", "u", "t", "v")
TARGET_VARS = ("T1", "T2", "T3", "T4")


class ZeroPolynomialError(ValueError):
    """The zero polynomial has no bidegree."""


class NotBihomogeneousError(ValueError):
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


def _format_terms(items, names) -> str:
    """Canonical rendering: descending lex term order, explicit signs,
    '^' for powers, '*' between factors, no implicit multiplication."""
    if not items:
        return "0"
    chunks: list[str] = []
    for mono, coeff in items:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append((" - " if neg else " + ") + body)
    return "".join(chunks)


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
                out[mono] = val
            else:
                out.pop(mono, None)
        return self._raw(out)

    def __neg__(self):
        return self._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            val = out.get(mono, 0) - c
            if val:
                out[mono] = val
            else:
                out.pop(mono, None)
        return self._raw(out)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            out: dict[Monomial, object] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                    val = out.get(mono, 0) + c1 * c2
                    if val:
                        out[mono] = val
                    else:
                        out.pop(mono, None)
            return self._raw(out)
        if isinstance(other, (int, Fraction)):
            k = exact(other)
            if not k:
                return self._raw({})
            return self._raw({m: c * k for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = type(self).constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed:
                base = base * base
        return result

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap a term dict known to be clean (exact coefficients, no zeros)."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    # -- queries ---------------------------------------------------------------

    def coefficient(self, mono: Monomial):
        return self.terms.get(tuple(mono), 0)

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

    # the immutability guard above would break pickle's slot restoration
    def __getstate__(self):
        return self.terms

    def __setstate__(self, state):
        object.__setattr__(self, "terms", state)

    def __str__(self) -> str:
        return _format_terms(self.sorted_terms(), self._var_names)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


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

    def evaluate(self, point) -> Fraction | int:
        s, u, t, v = (exact(x) for x in point)
        total = 0
        for (a, b, c, d), coeff in self.terms.items():
            total += coeff * s**a * u**b * t**c * v**d
        return exact(Fraction(total)) if isinstance(total, Fraction) else total


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

    def evaluate(self, values) -> Fraction | int:
        t1, t2, t3, t4 = (exact(x) for x in values)
        total = 0
        for (a, b, c, d), coeff in self.terms.items():
            total += coeff * t1**a * t2**b * t3**c * t4**d
        return exact(Fraction(total)) if isinstance(total, Fraction) else total

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators / lcm of denominators."""
        if not self.terms:
            return Fraction(0)
        from math import gcd, lcm

        nums = 0
        dens = 1
        for c in self.terms.values():
            f = Fraction(c)
            nums = gcd(nums, abs(f.numerator))
            dens = lcm(dens, f.denominator)
        return Fraction(nums, dens)

    def primitive(self) -> "TPoly":
        """Divide by the content and normalize the sign so the canonical
        leading term (descending lex on T-exponents) is positive."""
        if not self.terms:
            return self
        cont = self.content()
        lead = max(self.terms)
        if self.terms[lead] < 0:
            cont = -cont
        inv = 1 / cont
        return self._raw({m: exact(c * inv) for m, c in self.terms.items()})


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
