import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biimplicit.parser import parse_tpoly
from biimplicit.poly import TPoly, exact_div, tpoly_gcd


def tp(text):
    return parse_tpoly(text)


def random_tpoly(rng, max_deg=2, max_terms=4, bound=5) -> TPoly:
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = [0, 0, 0, 0]
            for _ in range(rng.randint(0, max_deg)):
                mono[rng.randrange(4)] += 1
            terms[tuple(mono)] = rng.randint(-bound, bound)
        p = TPoly(terms)
        if not p.is_zero():
            return p


class TestExactDiv:
    def test_simple(self):
        a = tp("T1^2-T2^2")
        b = tp("T1-T2")
        assert TPoly(exact_div(a.terms, b.terms)) == tp("T1+T2")

    def test_products_divide(self):
        rng = random.Random(2)
        for _ in range(50):
            p = random_tpoly(rng)
            q = random_tpoly(rng)
            prod = p * q
            assert TPoly(exact_div(prod.terms, q.terms)) == p

    def test_inexact_raises(self):
        with pytest.raises(ArithmeticError):
            exact_div(tp("T1^2+T2").terms, tp("T1+T2").terms)

    @pytest.mark.parametrize(
        "a, b", [("3*T1", "2*T1"), ("2*T1+1", "2"), ("2*T1^2+3*T1+1", "4*T1+2")]
    )
    def test_inexact_integer_quotient_raises(self, a, b):
        # each quotient exists over Q but not over Z
        with pytest.raises(ArithmeticError):
            exact_div(tp(a).terms, tp(b).terms)


class TestTPolyGcd:
    def test_known(self):
        a = tp("T1^2-T2^2")
        b = tp("T1^2+2*T1*T2+T2^2")
        assert tpoly_gcd(a, b) == tp("T1+T2")

    def test_with_zero(self):
        q = tp("2*T1*T4-2*T2*T3")
        assert tpoly_gcd(q, TPoly.zero()) == tp("T1*T4-T2*T3")
        assert tpoly_gcd(TPoly.zero(), TPoly.zero()).is_zero()

    def test_coprime(self):
        # an irreducible quadric vs. an independent quadric: gcd is 1
        g = tpoly_gcd(tp("T1*T4-T2*T3"), tp("T1^2+T2^2+T3^2+T4^2"))
        assert g == TPoly.constant(1)

    def test_common_factor_extraction(self):
        rng = random.Random(6)
        for _ in range(30):
            p = random_tpoly(rng)
            q = random_tpoly(rng)
            # r = q + nonzero constant forces gcd(q, r) = 1, so the gcd of
            # (p*q, p*r) is exactly p up to sign and content
            r = q + TPoly.constant(rng.randint(1, 7))
            g = tpoly_gcd(p * q, p * r)
            assert g == p.primitive()

    def test_divides_both(self):
        rng = random.Random(8)
        for _ in range(20):
            a = random_tpoly(rng)
            b = random_tpoly(rng)
            g = tpoly_gcd(a, b)
            assert not g.is_zero()
            exact_div(a.primitive().terms, g.terms)
            exact_div(b.primitive().terms, g.terms)

    def test_sign_normalized(self):
        g = tpoly_gcd(tp("-3*T1-3*T2"), tp("-6*T1-6*T2"))
        assert g == tp("T1+T2")


@st.composite
def gcd_pairs(draw):
    """(a, b) = (c1*G*U, c2*G*V) in the first 1-4 variables, with contents
    and coefficients up to 2^100 of either sign; U or V may be constant, G
    may be 1 (a coprime pair), and b may equal a."""
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 2)] * nvars).map(
        lambda e: e + (0,) * (4 - nvars)
    )
    big = st.integers(-(2**100), 2**100).filter(bool)
    small = st.integers(-9, 9).filter(bool)

    def poly(coeffs, max_size):
        terms = draw(st.dictionaries(exponents, coeffs, min_size=1, max_size=max_size))
        return TPoly(terms)

    G = poly(st.one_of(small, big), 3)
    U = poly(st.one_of(small, big), 3)
    a = G * U * draw(big)
    if draw(st.booleans()):
        return a, a
    return a, G * poly(st.one_of(small, big), 3) * draw(big)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gcd_pairs())
def test_gcd_agrees_with_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    gens = sympy.symbols("T1:5")
    expected = sympy.gcd(
        sympy.Poly.from_dict(a.terms, gens), sympy.Poly.from_dict(b.terms, gens)
    )
    want = TPoly({m: int(c) for m, c in expected.as_dict().items()}).primitive()
    assert tpoly_gcd(a, b) == want


@pytest.mark.parametrize("var", ["T1", "T4"])
@pytest.mark.parametrize(
    "u, v", [("{x}^2+{x}", "{x}^2+{x}+2"), ("{x}^3-{x}", "{x}^3-{x}+6")]
)
def test_cofactor_values_share_a_factor_at_every_point(var, u, v):
    # u and v are coprime, but u(xi) and v(xi) are both even (both divisible
    # by 6 for the cubics) at every integer xi, so the integer gcd of the
    # evaluations always carries that extra factor
    G = tp("3*T1*T4-T2*T3+T2^2-7*T4^2")
    u, v = tp(u.format(x=var)), tp(v.format(x=var))
    assert tpoly_gcd(G * u, G * v) == G


@pytest.mark.parametrize("var", ["T1", "T2", "T4"])
@pytest.mark.parametrize("n", [3, 40, 2**70])
def test_common_factor_that_is_a_unit_below_the_bound(var, n):
    # x - n is 1 at x = n + 1, just below the evaluation bound 2n + 2: an
    # evaluation point there would make 1 a common divisor passing the
    # trial division
    x = tp(var)
    f = x - TPoly.constant(n)
    assert tpoly_gcd(f, f * (x + TPoly.constant(5))) == f
