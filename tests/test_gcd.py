import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_division
from biimplicit import poly
from biimplicit.parser import parse_tpoly
from biimplicit.poly import TPoly, _gcd, exact_div, tpoly_gcd


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


def _outcome(divide, a, b):
    """The quotient, or ArithmeticError when `divide` refuses."""
    try:
        return divide(a, b)
    except ArithmeticError:
        return ArithmeticError


def _random_terms(rng, nvars, top, count, bound=2**40) -> dict:
    """Up to `count` terms with exponents in [0, top], one of them reaching
    top in every variable (so the product of two such has top exponents
    that are exactly the sums)."""
    terms = {(top,) * nvars: rng.choice([-1, 1]) * rng.randint(1, bound)}
    for _ in range(count - 1):
        mono = tuple(rng.randint(0, top) for _ in range(nvars))
        terms[mono] = rng.randint(-bound, bound)
    return {m: c for m, c in terms.items() if c}


def _times(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


class TestPackedDivision:
    """`exact_div` packs each monomial into one int; the tuple-keyed
    division it replaced, tests/reference_division.py, is the reference."""

    @pytest.mark.parametrize("nvars", [1, 3, 4])
    @pytest.mark.parametrize("k", range(1, 8))
    def test_agrees_with_reference_at_field_widths(self, nvars, k):
        # the largest exponent of a is 2^k - 1 (k bits) or 2^k (k + 1 bits)
        rng = random.Random(100 * k + nvars)
        for top in (2**k - 1, 2**k):
            for _ in range(6):
                b = _random_terms(rng, nvars, top // 2, rng.randint(1, 4))
                q = _random_terms(rng, nvars, top - top // 2, rng.randint(1, 4))
                a = _times(b, q)
                assert max(max(m) for m in a) == top
                assert exact_div(a, b) == reference_division.exact_div(a, b) == q
                r = _random_terms(rng, nvars, top, rng.randint(1, 3), bound=5)
                changed = {m: a.get(m, 0) + r.get(m, 0) for m in {*a, *r}}
                changed = {m: c for m, c in changed.items() if c}
                want = _outcome(reference_division.exact_div, changed, b)
                assert _outcome(exact_div, changed, b) == want
                # an inexact integer quotient: b times 2 divides a over Q
                doubled = {m: 2 * c for m, c in b.items()}
                assert _outcome(exact_div, a, doubled) == _outcome(
                    reference_division.exact_div, a, doubled
                )

    @pytest.mark.parametrize("k", range(1, 8))
    def test_remainder_leaving_the_exponent_box(self, k, monkeypatch):
        # x^e*y^e / (x + y^e): the first step would leave x^(e-1)*y^(2e),
        # whose y exponent sets the guard bit of its field, so the division
        # stops there, before that term enters the remainder
        pushed = []
        monkeypatch.setattr(poly, "heappush", lambda heap, key: pushed.append(key))
        for e in (2**k - 1, 2**k):
            a, b = {(e, e): 1}, {(1, 0): 1, (0, e): 1}
            assert _outcome(reference_division.exact_div, a, b) is ArithmeticError
            assert _outcome(exact_div, a, b) is ArithmeticError
        assert pushed == []

    def test_negative_exponents(self):
        # x*y^2 over x^2 goes negative in the first (top) field; over y^3,
        # and x^3*z over y, a lower field borrows from the one above it
        assert _outcome(exact_div, {(1, 2): 1}, {(2, 0): 1}) is ArithmeticError
        assert _outcome(exact_div, {(1, 2): 1}, {(0, 3): 1}) is ArithmeticError
        assert _outcome(exact_div, {(3, 0, 1): 1}, {(0, 1, 0): 1}) is ArithmeticError

    def test_keys_of_length_zero(self):
        # integer division; the reference stops at min(()) here
        assert exact_div({(): 6}, {(): -2}) == {(): -3}
        assert _outcome(exact_div, {(): 6}, {(): 4}) is ArithmeticError

    def test_empty_dividend_and_divisor(self):
        for b in ({(): 3}, {(1,): 2}, {(5, 0, 1, 2): -7}):
            assert exact_div({}, b) == reference_division.exact_div({}, b) == {}
        with pytest.raises(ZeroDivisionError):
            exact_div({(1, 2, 3): 4}, {})

    def test_quotient_keys_are_tuples(self):
        q = exact_div(tp("T1^2*T4-T2^2*T4").terms, tp("T1-T2").terms)
        assert q == {(1, 0, 0, 1): 1, (0, 1, 0, 1): 1}
        assert all(type(m) is tuple for m in q)


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


@st.composite
def homogeneous_gcd_cases(draw):
    """(a, b) = (c1*G*U, c2*G*V) with G, U, V homogeneous of degrees 0-3 in
    T1..T4, contents and coefficients up to 2^100, and a power of T4 planted
    in G only, in U only, in both or in neither."""
    big = st.integers(-(2**100), 2**100).filter(bool)
    coeffs = st.one_of(st.integers(-9, 9).filter(bool), big)

    def form():
        degree = draw(st.integers(0, 3))
        mono = st.lists(st.integers(0, 3), min_size=degree, max_size=degree).map(
            lambda vs: tuple(Counter(vs)[i] for i in range(4))
        )
        return TPoly(draw(st.dictionaries(mono, coeffs, min_size=1, max_size=4)))

    G, U, V = form(), form(), form()
    planted = draw(st.sampled_from(["G", "U", "both", "neither"]))
    if planted in ("G", "both"):
        G = G * TPoly.monomial((0, 0, 0, draw(st.integers(1, 3))))
    if planted in ("U", "both"):
        U = U * TPoly.monomial((0, 0, 0, draw(st.integers(1, 3))))
    return G * U * draw(big), G * V * draw(big)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(homogeneous_gcd_cases())
def test_homogeneous_gcd_agrees_with_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    gens = sympy.symbols("T1:5")
    expected = sympy.gcd(
        sympy.Poly.from_dict(a.terms, gens), sympy.Poly.from_dict(b.terms, gens)
    )
    want = TPoly({m: int(c) for m, c in expected.as_dict().items()}).primitive()
    g = tpoly_gcd(a, b)
    assert g == want
    exact_div(a.primitive().terms, g.terms)
    exact_div(b.primitive().terms, g.terms)


def test_homogeneous_inputs_never_evaluate_the_last_variable(monkeypatch):
    # T4's exponent follows from T1..T3's, so the gcd drops it: the first
    # evaluation is of T3, on exponent tuples of length 3
    lengths = []
    evaluate = poly._evaluate_last

    def spy(p, xi, degree):
        lengths.append(len(next(iter(p))))
        return evaluate(p, xi, degree)

    monkeypatch.setattr(poly, "_evaluate_last", spy)
    G = tp("3*T1^2*T4-T2*T3*T4+5*T4^3")
    u, v = tp("T1*T4^2-7*T2^3"), tp("T3^3+2*T1*T2*T4-T4^3")
    assert tpoly_gcd(G * u * tp("T4"), G * v) == G
    assert lengths and max(lengths) == 3


def test_dense_bivariate_common_factor():
    # two (60,60) polynomials in (s, t), as complex_summary takes the gcd of
    # f1..f4 at u = v = 1, with a dense (30,30) common factor g: the trial
    # divisions of each attempt make about 900,000 term updates each
    rng = np.random.default_rng(20)
    g, u, v = (rng.integers(-99, 100, size=(31, 31)) for _ in range(3))

    def terms(array):
        return {(i, j): int(c) for (i, j), c in np.ndenumerate(array) if c}

    def times(p, q):
        out = np.zeros((61, 61), dtype=np.int64)
        for (i, j), c in np.ndenumerate(p):
            out[i : i + 31, j : j + 31] += c * q
        return terms(out)

    G = terms(g)
    h = _gcd(times(g, u), times(g, v))
    assert h == G or h == {m: -c for m, c in G.items()}
