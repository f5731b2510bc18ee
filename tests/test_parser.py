import random

import pytest

from biimplicit.parser import ParseError, UnknownVariableError, parse_poly, parse_tpoly
from biimplicit.poly import Bidegree, BigradedPoly

from conftest import GOLDEN_STRINGS, random_bipoly


class TestParse:
    def test_prefix_of_golden(self):
        p = parse_poly("s^2*t^3+2*s*u*t^3")
        assert p.terms == {(2, 0, 3, 0): 1, (1, 1, 3, 0): 2}

    def test_parenthesized_product_expands(self):
        assert parse_poly("s*(t+v)") == parse_poly("s*t+s*v")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError) as exc:
            parse_poly("s+x")
        assert exc.value.position == 2

    def test_unknown_identifier_not_implicit_multiplication(self):
        with pytest.raises(UnknownVariableError):
            parse_poly("st")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("s+*t")
        assert exc.value.position == 2

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_poly("s*(t+v")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("s t")

    def test_unary_minus_binds_below_power(self):
        assert parse_poly("-s^2") == -parse_poly("s^2")

    def test_power_of_sum(self):
        assert parse_poly("(s+u)^2") == parse_poly("s^2+2*s*u+u^2")

    def test_integer_arithmetic(self):
        assert parse_poly("2^3*s") == parse_poly("8*s")
        assert parse_poly("0").is_zero()

    def test_missing_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("s^")

    def test_superscript_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("s^²")

    def test_non_ascii_digit_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("١*s*t")

    def test_whitespace_tolerated(self):
        assert parse_poly(" s * t  +  u * v ") == parse_poly("s*t+u*v")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("")

    def test_tpoly(self):
        q = parse_tpoly("3*T1^2*T2 - T3^3")
        assert q.terms == {(2, 1, 0, 0): 3, (0, 0, 3, 0): -1}

    def test_tpoly_rejects_source_vars(self):
        with pytest.raises(UnknownVariableError):
            parse_tpoly("s*T1")


class TestRoundTrip:
    def test_golden_polynomials(self):
        for text in GOLDEN_STRINGS:
            p = parse_poly(text)
            assert parse_poly(str(p)) == p

    def test_random_polynomials(self):
        rng = random.Random(77)
        for _ in range(200):
            deg = Bidegree(rng.randint(0, 4), rng.randint(0, 4))
            p = random_bipoly(rng, deg, density=rng.uniform(0.2, 1.0))
            assert parse_poly(str(p)) == p

    def test_zero(self):
        assert parse_poly(str(BigradedPoly.zero())).is_zero()

    def test_canonical_order_in_output(self):
        p = parse_poly("u*v+s*t")
        assert str(p) == "s*t + u*v"
