import ast
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biimplicit
import biimplicit.poly as poly_module
from biimplicit.parser import parse_poly, parse_tpoly
from biimplicit.poly import (
    Bidegree,
    BigradedPoly,
    NotBihomogeneousError,
    Parametrization,
    TPoly,
    ZeroPolynomialError,
    divide_content,
    evaluate_many,
    exact,
    integer_primitive,
    linear_form_rows,
    rational_content,
    substitute_T,
)
from biimplicit.matrixrep import build_matrix

from conftest import golden_polys, lin, random_parametrization
from reference_evaluate import evaluate_many as reference_evaluate_many


def bp(text):
    return parse_poly(text)


coeffs = st.integers(min_value=-20, max_value=20) | st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
monos = st.tuples(*([st.integers(min_value=0, max_value=3)] * 4))
bipolys = st.dictionaries(monos, coeffs, max_size=6).map(BigradedPoly)
_wide_ints = st.integers(-(2**80), 2**80)
_coordinates = st.one_of(
    st.sampled_from([0, -1, 2**70, -(2**70)]),
    st.integers(-10, 10),
    st.integers(-(2**70), 2**70),
)
# exponents with gaps, as in the sparse forms of high degree
_sparse_monos = st.tuples(*[st.sampled_from([0, 1, 2, 7, 64])] * 4)


def _dense_forms(degree: int):
    """Every monomial in T1..T4 of total degree at most `degree`, each with
    a nonzero coefficient."""
    monomials = [
        (a, b, c, d)
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
        for d in range(degree + 1 - a - b - c)
    ]
    nonzero = coeffs.filter(bool) | _wide_ints.filter(bool)
    return st.lists(nonzero, min_size=len(monomials), max_size=len(monomials)).map(
        lambda values: TPoly(dict(zip(monomials, values)))
    )


class TestBidegree:
    def test_arithmetic(self):
        assert Bidegree(1, 2) + Bidegree(3, 4) == Bidegree(4, 6)
        assert Bidegree(3, 4) - Bidegree(1, 2) == Bidegree(2, 2)
        assert 2 * Bidegree(2, 3) == Bidegree(4, 6)
        assert tuple(Bidegree(3, 2)) == (3, 2)

    def test_partial_order(self):
        assert Bidegree(3, 2).dominates(Bidegree(1, 2))
        assert not Bidegree(3, 2).dominates(Bidegree(1, 3))
        assert not Bidegree(1, 3).dominates(Bidegree(3, 2))


class TestAdd:
    def test_cancellation(self):
        p = bp("s^2*t^3")
        q = bp("-s^2*t^3")
        assert (p + q).is_zero()

    def test_golden_sum_coefficient(self):
        f = golden_polys()
        total = f[1] + f[2]
        assert total.coefficient((2, 0, 3, 0)) == 4

    def test_zero_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            terms = {
                tuple(rng.randint(0, 3) for _ in range(4)): rng.randint(-9, 9)
                for _ in range(5)
            }
            p = BigradedPoly(terms)
            assert p + BigradedPoly.zero() == p


class TestMul:
    def test_variables(self):
        st_poly = bp("s*t")
        assert st_poly.bidegree() == Bidegree(1, 1)
        assert st_poly.terms == {(1, 0, 1, 0): 1}

    def test_difference_of_squares(self):
        assert bp("(s+u)*(s-u)") == bp("s^2-u^2")

    def test_bidegree_additivity_golden(self):
        f = golden_polys()
        assert (f[0] * f[1]).bidegree() == Bidegree(4, 6)


@pytest.mark.parametrize(
    "result",
    [
        lambda half: BigradedPoly({(1, 0, 1, 0): half}) * 2,
        lambda half: BigradedPoly({(1, 0, 1, 0): half}) + BigradedPoly({(1, 0, 1, 0): half}),
        lambda half: BigradedPoly({(1, 0, 0, 0): half}) * BigradedPoly({(0, 0, 1, 0): 2}),
    ],
    ids=["half-times-2", "half-plus-half", "half-s-times-2t"],
)
def test_integral_results_have_int_coefficients(result):
    # each is s*t with coefficient 1, stored as the int 1, as the
    # normalizing constructor would store it
    p = result(Fraction(1, 2))
    assert p == BigradedPoly({(1, 0, 1, 0): 1})
    assert [type(c) for c in p.terms.values()] == [int]


class TestBidegreeOf:
    def test_golden(self):
        assert golden_polys()[0].bidegree() == Bidegree(2, 3)

    def test_mixed(self):
        with pytest.raises(NotBihomogeneousError):
            bp("s*t+u").bidegree()

    def test_zero(self):
        with pytest.raises(ZeroPolynomialError):
            BigradedPoly.zero().bidegree()


class TestEvaluate:
    def test_monomial(self):
        assert bp("s^2*t^3").evaluate((1, 0, 1, 0)) == 1

    def test_golden_corner_points(self):
        f1 = golden_polys()[0]
        assert f1.evaluate((1, 0, 1, 0)) == 1
        assert f1.evaluate((0, 1, 0, 1)) == 2

    def test_fraction_point(self):
        p = bp("s*t+u*v")
        assert p.evaluate((Fraction(1, 2), 1, Fraction(1, 3), 1)) == Fraction(7, 6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.just({}),
            st.dictionaries(st.just((0, 0, 0, 0)), coeffs, min_size=1),
            st.dictionaries(st.tuples(*[st.integers(0, 5)] * 4), coeffs, max_size=12),
        ).map(TPoly),
        st.lists(
            st.tuples(
                *[
                    st.one_of(
                        st.sampled_from([0, -1, 2**70, -(2**70)]),
                        st.integers(-10, 10),
                        st.integers(-(2**70), 2**70),
                    )
                ]
                * 4
            ),
            max_size=6,
        ),
    )
    def test_many_points_at_once(self, p, points):
        # the zero and constant polynomials, Fraction coefficients, and
        # zero, negative and 2^70-sized coordinates: the same values, with
        # integral ones as ints, as evaluating one point at a time
        values = evaluate_many(p.terms, points)
        expected = [p.evaluate(x) for x in points]
        assert values == expected
        assert [type(v) for v in values] == [type(v) for v in expected]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.just(TPoly.zero()),
            st.integers(0, 4).flatmap(_dense_forms),
            st.dictionaries(_sparse_monos, coeffs | _wide_ints, max_size=10).map(TPoly),
        ),
        st.lists(st.tuples(*[_coordinates] * 4), min_size=1, max_size=9),
        st.sampled_from([1, 2, 5, None]),
    )
    @example(parse_tpoly("T1^64*T3^64 - T2^64*T3^64"), [(3, -2, 5, 7), (0, 1, -1, 2**70)], None)
    @example(parse_tpoly("T1^64*T3^64 - T2^64*T3^64"), [(1, 1, 2, 0)] * 3, 1)
    @example(parse_tpoly("T4"), [(2**70, -(2**70), 0, -1)], None)
    @example(TPoly.zero(), [(1, 2, 3, 4)], None)
    def test_shared_rows_match_reference(self, p, points, cap):
        # dense and sparse forms, exponent gaps, Fraction and wide
        # coefficients, zero, negative and +-2^70 coordinates, and with
        # `cap` entries a table of a few (c, d) rows already takes the
        # points in slices (None keeps the module's cap): the values of
        # the kernel the shared rows replaced, and of `evaluate`
        with mock.patch.object(poly_module, "_EVALUATE_ENTRIES", cap or poly_module._EVALUATE_ENTRIES):
            values = evaluate_many(p.terms, points)
        expected = [p.evaluate(x) for x in points]
        assert values == reference_evaluate_many(p.terms, points) == expected
        assert [type(v) for v in values] == [type(v) for v in expected]

    def test_slices_at_the_cap(self):
        # a dense form in T3 and T4 with 861 (c, d) pairs, so the module's
        # cap takes `step` points per slice: point counts on both sides of
        # one and two slices
        rng = random.Random(38)
        p = TPoly(
            {(1, 0, c, d): rng.randint(-(2**40), 2**40) for c in range(41) for d in range(41 - c)}
        )
        step = poly_module._EVALUATE_ENTRIES // len({m[2:] for m in p.terms})
        assert step > 1
        for count in (1, step - 1, step, step + 1, 2 * step + 1):
            points = [tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(count)]
            assert evaluate_many(p.terms, points) == reference_evaluate_many(p.terms, points)
        assert evaluate_many(p.terms, []) == []


class TestSubstituteT:
    def test_projection(self):
        f = golden_polys()
        assert substitute_T(parse_tpoly("T1"), f) == f[0]

    def test_two_by_two(self):
        f = golden_polys()
        expected = f[0] * f[3] - f[1] * f[2]
        assert substitute_T(parse_tpoly("T1*T4-T2*T3"), f) == expected
        assert not expected.is_zero()

    def test_zero_input(self):
        f = golden_polys()
        assert substitute_T(TPoly.zero(), f).is_zero()


class TestRingAxioms:
    @settings(max_examples=100, deadline=None)
    @given(bipolys, bipolys, bipolys)
    def test_mul_associative_and_distributive(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=100, deadline=None)
    @given(bipolys, bipolys)
    def test_commutative(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    @settings(max_examples=100, deadline=None)
    @given(bipolys, bipolys)
    def test_evaluate_is_morphism(self, p, q):
        point = (2, -1, Fraction(1, 2), 3)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)

    def test_bidegree_additive_on_products(self):
        rng = random.Random(7)
        from conftest import random_bipoly

        for _ in range(50):
            a = Bidegree(rng.randint(0, 3), rng.randint(0, 3))
            b = Bidegree(rng.randint(0, 3), rng.randint(0, 3))
            p = random_bipoly(rng, a)
            q = random_bipoly(rng, b)
            assert (p * q).bidegree() == a + b


def test_fraction_chains_stay_reduced():
    rng = random.Random(11)
    values = [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(6)]
    for _ in range(300):
        a, b = rng.choice(values), rng.choice(values)
        op = rng.randrange(4)
        if op == 0:
            c = a + b
        elif op == 1:
            c = a - b
        elif op == 2:
            c = a * b
        else:
            c = a / b if b else a
        assert c.denominator > 0
        assert math.gcd(abs(c.numerator), c.denominator) == 1
        if c.numerator == 0:
            assert c.denominator == 1
        values.append(c)


class TestTPoly:
    def test_total_degree(self):
        assert parse_tpoly("3*T1^2*T2-T3^3").total_degree() == 3
        assert TPoly.zero().total_degree() == -1

    def test_str(self):
        # the report's equation field is this rendering
        assert str(parse_tpoly("3*T1^2*T2-T3^3")) == "3*T1^2*T2 - T3^3"
        # and so are the matrix entries, linear forms with exact coefficients
        linear = TPoly({(1, 0, 0, 0): 2, (0, 1, 0, 0): Fraction(-1, 3), (0, 0, 0, 1): 1})
        assert str(linear) == "2*T1 - 1/3*T2 + T4"
        assert str(TPoly.zero()) == "0"

    def test_primitive(self):
        q = parse_tpoly("2*T1*T4-2*T2*T3")
        assert q.primitive() == parse_tpoly("T1*T4-T2*T3")
        neg = parse_tpoly("-3*T1*T4+3*T2*T3")
        assert neg.primitive() == parse_tpoly("T1*T4-T2*T3")

    def test_primitive_keeps_a_primitive_positive_polynomial(self):
        p = parse_tpoly("T1*T4-2*T2*T3")
        assert p.primitive() is p
        assert (-p).primitive() == p
        assert (p * 3).primitive() == p

    def test_primitive_fractions(self):
        q = TPoly({(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(3, 4)})
        assert q.primitive() == TPoly({(1, 0, 0, 0): 2, (0, 1, 0, 0): 3})


def reference_primitive(p: TPoly) -> TPoly:
    """TPoly.primitive as one Fraction product per coefficient."""
    if not p.terms:
        return p
    cont = p.content()
    if p.terms[max(p.terms)] < 0:
        cont = -cont
    inv = 1 / cont
    return TPoly({m: exact(c * inv) for m, c in p.terms.items()})


big = st.integers(-(2**100), 2**100)
contents = st.builds(Fraction, big.filter(bool), st.integers(1, 2**100))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(monos, coeffs | big, max_size=8), contents)
def test_primitive_matches_fraction_reference(terms, content):
    # multiplying by a Fraction keeps Fraction-typed coefficients even where
    # they are integers, so the inputs mix ints, Fractions and both signs of
    # the leading term
    p = TPoly(terms) * content
    q = p.primitive()
    assert q.terms == reference_primitive(p).terms
    assert all(type(c) is int for c in q.terms.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(monos, big.filter(bool), min_size=1, max_size=8))
def test_integer_primitive(terms):
    content, quotient = integer_primitive(terms)
    assert content == math.gcd(*terms.values())
    assert {m: content * c for m, c in quotient.items()} == terms
    assert math.gcd(*quotient.values()) == 1
    if content == 1:
        assert quotient is terms


def test_only_poly_reads_numerators_and_denominators():
    """Rationals become integers in one place: outside `poly`, every module
    goes through `rational_content` and `divide_content` (or `primitive`)
    rather than reading a Fraction's parts."""
    readers = []
    for path in sorted(Path(biimplicit.__file__).parent.glob("*.py")):
        if path.name == "poly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []


class TestParametrization:
    def test_golden(self, golden_F):
        assert golden_F.bidegree == Bidegree(2, 3)

    def test_rejects_mixed_degrees(self):
        with pytest.raises(NotBihomogeneousError):
            Parametrization.from_polys(
                [bp("s*t"), bp("s*v"), bp("u*t"), bp("u^2*v")]
            )

    def test_rejects_zero(self):
        with pytest.raises(ZeroPolynomialError):
            Parametrization.from_polys(
                [bp("s*t"), BigradedPoly.zero(), bp("u*t"), bp("u*v")]
            )


# exact coefficients of linear forms: ints and Fractions, with zeros, units,
# ints past 2^64 and unit numerators
linear_coeffs = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.integers(-(2**70), 2**70),
    st.builds(lambda n, sign: sign * n, st.integers(2**64, 2**80), st.sampled_from([1, -1])),
    st.builds(Fraction, st.sampled_from([1, -1]) | st.integers(-99, 99), st.integers(2, 99)),
).map(exact)


class TestLinearFormStr:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.tuples(*[linear_coeffs] * 4))
    @example((0, 0, 0, 0))
    @example((1, -1, Fraction(-1, 2), Fraction(1, 3)))
    @example((0, 0, 0, -(2**65)))
    def test_matches_tpoly_text(self, coefficients):
        # the form as an integer 4-tuple times its rational content, 1 for
        # zero, as a MatrixRep column holds it
        content = rational_content(coefficients) or Fraction(1)
        integers = tuple(divide_content(c, content) for c in coefficients)
        assert linear_form_rows([[integers]], [content]) == [[str(lin(*coefficients))]]

    @pytest.mark.parametrize("name, nu", [("golden", (5, 4)), ("rand22", (6, 4))])
    def test_every_strand_entry(self, golden_F, name, nu):
        # perfbench's two strands: the report prints each entry from its
        # integer coefficients and its column's content, and must print what
        # str of its TPoly prints
        F = golden_F if name == "golden" else random_parametrization(random.Random(7), (2, 2))
        M = build_matrix(F, nu)
        assert any(type(c) is Fraction for row in M.coefficients for e in row for c in e)
        assert linear_form_rows(M.integer_coefficients, M.column_contents) == [
            [str(e) for e in row] for row in M.entries
        ]
