import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_parser
from biimplicit import parser
from biimplicit.parser import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    ParseError,
    UnknownVariableError,
    parse_poly,
    parse_tpoly,
)
from biimplicit.poly import Bidegree, BigradedPoly, TPoly

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

    def test_nesting_up_to_the_limit(self):
        deepest = "(" * MAX_NESTING + "s" + ")" * MAX_NESTING
        assert parse_poly(deepest) == parse_poly("s")
        assert parse_poly("-" * MAX_NESTING + "s") == parse_poly("s")
        half = MAX_NESTING // 2
        assert parse_poly("-(" * half + "s" + ")" * half) == parse_poly("-" * half + "s")

    @pytest.mark.parametrize(
        "text",
        [
            "(" * (MAX_NESTING + 1) + "s" + ")" * (MAX_NESTING + 1),
            "-" * (MAX_NESTING + 1) + "s",
            "(" * 3000 + "s" + ")" * 3000,
            "(" * 3000,
            "-(" * 1500 + "s" + ")" * 1500,
        ],
    )
    def test_nesting_beyond_the_limit_rejected(self, text):
        with pytest.raises(ParseError, match="nesting"):
            parse_poly(text)

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


# Whitespace, characters the grammar refuses, and names outside both rings.
_SPACES = ("", "", " ", "  ", "\t", "\n", "\xa0")
_STRAY = ("(", ")", "*", "^", "+", "-", "_", "#", "²", "١", "é", "1", " ")
_UNKNOWN = ("x", "st", "s2", "T5", "T", "é")

# A sum of 861 distinct terms of degree at most 40: its square passes
# MAX_TERM_PRODUCTS before a single term is multiplied.
_WIDE = "+".join(f"s^{a}*u^{b}" for a in range(41) for b in range(41 - a))

# Texts that each pass one limit, or int()'s limit on digits, by the start
# of the message they are refused with.
_OVER_LIMITS = {
    "(" * (MAX_NESTING + 1) + "s" + ")" * (MAX_NESTING + 1): "nesting",
    "-" * (MAX_NESTING + 1) + "s": "nesting",
    "-(" * MAX_NESTING + "s" + ")" * MAX_NESTING: "nesting",
    f"s^{MAX_DEGREE + 1}": "total degree",
    f"(s + t)^{MAX_DEGREE // 2} * (u+v)^{MAX_DEGREE // 2 + 1}": "total degree",
    f"s^{MAX_DEGREE}*t": "total degree",
    f"3^{MAX_COEFF_BITS}": "coefficients",
    f"2^{MAX_COEFF_BITS} * (1 + s)": "coefficients",
    f"({_WIDE})*({_WIDE})": "more than",
    f"({_WIDE})^2": "more than",
    "7" * 5000: "integer literal",
}


def _outcome(parse, text):
    """The polynomial, or the error's class, message and position."""
    try:
        return parse(text)
    except ParseError as err:
        return type(err), str(err), err.position


def _assert_alike(text, cls, parse, reference_parse):
    """The same outcome from both parsers, and for a polynomial the same
    number of term products counted on the way to it."""
    outcome = _outcome(parse, text)
    assert outcome == _outcome(reference_parse, text)
    if isinstance(outcome, cls):
        new = parser._Parser(text, cls._var_names)
        reference = reference_parser._Parser(text, cls, cls._var_names)
        new.parse(), reference.parse()
        assert new.term_products == reference.term_products


@st.composite
def _expressions(draw, names, depth=3):
    """Sums, products, powers of sums, parentheses and unary minus over
    integers and the ring's names, with whitespace between tokens."""
    gap = st.sampled_from(_SPACES)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(
            st.one_of(
                st.sampled_from(names),
                st.integers(0, 10**12).map(str),
                st.sampled_from(_UNKNOWN),
            )
        )
    inner = _expressions(names, depth - 1)
    kind = draw(st.sampled_from(("sum", "product", "power", "paren", "minus")))
    if kind in ("sum", "product"):
        ops = "+-" if kind == "sum" else "*"
        parts = [draw(inner)]
        for _ in range(draw(st.integers(1, 3))):
            parts += [draw(gap), draw(st.sampled_from(ops)), draw(gap), draw(inner)]
        return "".join(parts)
    if kind == "power":
        base = f"({draw(inner)})" if draw(st.booleans()) else draw(st.sampled_from(names))
        return f"{base}{draw(gap)}^{draw(gap)}{draw(st.integers(0, 5))}"
    if kind == "paren":
        return f"({draw(gap)}{draw(inner)}{draw(gap)})"
    return f"-{draw(gap)}{draw(inner)}"


@st.composite
def _texts(draw, names):
    """An expression as generated, with one character inserted, deleted
    or cut off at, or joined to a text that passes a limit."""
    text = draw(_expressions(names))
    change = draw(st.sampled_from(("none", "insert", "delete", "cut", "limit")))
    at = draw(st.integers(0, len(text)))
    if change == "insert":
        return text[:at] + draw(st.sampled_from(_STRAY)) + text[at:]
    if change == "delete":
        return text[:at] + text[at + 1 :]
    if change == "cut":
        return text[:at]
    if change == "limit":
        limit = draw(st.sampled_from(sorted(_OVER_LIMITS)))
        return draw(st.sampled_from((limit, f"{text} + {limit}", f"{limit}*({text})")))
    return text


class TestReferenceParser:
    """The token parser gives the polynomial, or the error with its class,
    message and position, that the character-by-character reference parser
    in tests/reference_parser.py gives, and counts the same term products."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_texts(("s", "u", "t", "v")))
    @example("(s+u+t+v)^28")
    @example("(s+u+t+v)^28*1")
    @example("s^127 * (2*t)^5 * 3^0 * v^1 - (-u)^2")
    @example("")
    @example("  ")
    def test_parse_poly(self, text):
        _assert_alike(text, BigradedPoly, parse_poly, reference_parser.parse_poly)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_texts(("T1", "T2", "T3", "T4")))
    @example("3*T1^2*T2 - T3^3")
    @example("s*T1")
    def test_parse_tpoly(self, text):
        _assert_alike(text, TPoly, parse_tpoly, reference_parser.parse_tpoly)

    @pytest.mark.parametrize("text", list(_OVER_LIMITS), ids=range(len(_OVER_LIMITS)))
    def test_each_limit_refused_alike(self, text):
        new = _outcome(parse_poly, text)
        assert new[1].startswith(_OVER_LIMITS[text])
        assert new == _outcome(reference_parser.parse_poly, text)
