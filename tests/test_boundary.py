"""The input boundary: exit codes decided by the two error bases, the size
limits of the parser and of Koszul slices, and fuzzing of both entry
points."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biimplicit
from biimplicit import cli
from biimplicit.complexes import (
    MAX_SLICE_CELLS,
    InvalidBidegreeError,
    koszul_slice,
)
from biimplicit.linalg import DegreeMismatchError
from biimplicit.matrixrep import (
    AllZeroError,
    AmbiguousNullspaceError,
    NoEquationError,
    PipelineError,
    RankDeficientError,
)
from biimplicit.parser import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_TERM_PRODUCTS,
    ParseError,
    UnknownVariableError,
    parse_poly,
    parse_tpoly,
)
from biimplicit.poly import (
    InputError,
    NotBihomogeneousError,
    Parametrization,
    ZeroPolynomialError,
)

from conftest import SEGRE_STRINGS

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    """`python -m biimplicit` with the checkout's sources, at most 10 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "biimplicit", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )


class TestErrorBases:
    @pytest.mark.parametrize(
        "cls",
        [
            ZeroPolynomialError,
            NotBihomogeneousError,
            ParseError,
            UnknownVariableError,
            InvalidBidegreeError,
        ],
    )
    def test_input_errors(self, cls):
        assert issubclass(cls, InputError) and issubclass(cls, ValueError)
        assert not issubclass(cls, PipelineError)

    @pytest.mark.parametrize(
        "cls, builtin",
        [
            (RankDeficientError, RuntimeError),
            (AllZeroError, ValueError),
            (NoEquationError, RuntimeError),
            (AmbiguousNullspaceError, RuntimeError),
        ],
    )
    def test_pipeline_errors_keep_their_builtin_base(self, cls, builtin):
        assert issubclass(cls, PipelineError) and issubclass(cls, builtin)
        assert not issubclass(cls, InputError)

    def test_bug_signals_stay_outside_both_bases(self):
        assert not issubclass(DegreeMismatchError, (InputError, PipelineError))

    def test_exported_once(self):
        assert biimplicit.InputError is cli.InputError is InputError
        assert biimplicit.PipelineError is PipelineError
        assert {"InputError", "PipelineError"} <= set(biimplicit.__all__)


class TestParserLimits:
    def test_degree_refused_at_the_operator(self):
        with pytest.raises(ParseError, match=f"total degree above {MAX_DEGREE}") as exc:
            parse_poly(f"s^{MAX_DEGREE}*t")
        assert exc.value.position == len(f"s^{MAX_DEGREE}")
        assert parse_poly(f"s^{MAX_DEGREE}").terms == {(MAX_DEGREE, 0, 0, 0): 1}

    def test_coefficients_refused_at_the_operator(self):
        assert parse_poly(f"2^{MAX_COEFF_BITS}").terms == {(0, 0, 0, 0): 2**MAX_COEFF_BITS}
        with pytest.raises(ParseError, match=f"above {MAX_COEFF_BITS} bits") as exc:
            parse_poly(f"3^{MAX_COEFF_BITS}")
        assert exc.value.position == 1

    def test_term_products_counted_over_the_whole_parse(self):
        parse_poly("(s+u+t+v)^28")
        with pytest.raises(ParseError, match=f"more than {MAX_TERM_PRODUCTS}"):
            parse_poly("(s+u+t+v)^28" + "*1" * 200)

    def test_long_sum_of_distinct_terms(self):
        exponents = [(a, b, c) for a in range(14) for b in range(14) for c in range(14)]
        text = "+".join(f"{a + 1}*s^{a}*u^{b}*t^{c}" for a, b, c in exponents)
        assert len(parse_poly(text).terms) == len(exponents)

    def test_tpoly_shares_the_limits(self):
        with pytest.raises(ParseError, match="total degree"):
            parse_tpoly("(T1+T2)^99999")

    def test_printed_equations_parse(self):
        for path in sorted(DATA.glob("*.implicitize.json")):
            equation = json.loads(path.read_text())["equation"]
            if equation is not None:
                assert str(parse_tpoly(equation)) == equation


class TestSliceLimit:
    def test_refused_before_allocation(self):
        F = Parametrization.from_polys(
            parse_poly(text) for text in ("s^60*t^60", "s^60*v^60", "u^60*t^60", "u^60*v^60")
        )
        with pytest.raises(InputError, match=f"more than {MAX_SLICE_CELLS} cells"):
            koszul_slice(F, 1, (179, 119))

    def test_largest_slice_of_a_bidegree_44_map_admitted(self):
        F = Parametrization.from_polys(
            parse_poly(text) for text in ("s^4*t^4", "s^4*v^4", "u^4*t^4", "u^4*v^4")
        )
        K = koszul_slice(F, 2, (15, 11)).matrix  # nu=(7,3), the default
        assert K.rows * K.cols == 73728 <= MAX_SLICE_CELLS


HANG_INPUTS = [
    (1, ["(s+u)^100000*t", "s*v", "u*t", "u*v"], "total degree above"),
    (1, ["((s+u)^99)^99*t", "s*v", "u*t", "u*v"], "total degree above"),
    (1, ["(((9^99)^99)^99)^99*s*t", "s*v", "u*t", "u*v"], "coefficients above"),
    (60, ["s^60*t^60", "s^60*v^60", "u^60*t^60", "u^60*v^60"], "strand too large"),
]


@pytest.mark.parametrize("degree, polynomials, message", HANG_INPUTS)
def test_former_hang_inputs_exit_1(tmp_path, degree, polynomials, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"bidegree": [degree, degree], "polynomials": polynomials}))
    result = run_cli("hilbert", str(path))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and message in result.stderr


class TestModuleEntryPoint:
    def test_region(self):
        result = run_cli("region", "--bidegree", "2,3")
        assert result.returncode == 0 and result.stderr == ""
        assert json.loads(result.stdout)["corners"] == [[3, 2], [1, 5]]

    def test_missing_input(self, tmp_path):
        result = run_cli("hilbert", str(tmp_path / "missing.json"))
        assert result.returncode == 1
        assert result.stderr.startswith("error: cannot read input file")


# -- fuzzing --------------------------------------------------------------------

EXPRESSION_CHARS = "0123456789stuvT+-*^() "


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(EXPRESSION_CHARS, max_size=40) | st.text(max_size=20))
def test_parsers_raise_only_parse_error(text):
    for parse in (parse_poly, parse_tpoly):
        try:
            parse(text)
        except ParseError:
            pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def monomial_texts(draw, bidegree):
    """c*s^a*u^(e1-a)*t^b*v^(e2-b), written with the powers of the grammar."""
    e1, e2 = bidegree
    a, b = draw(st.integers(0, e1)), draw(st.integers(0, e2))
    factors = [str(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))]
    for name, k in zip("sutv", (a, e1 - a, b, e2 - b)):
        if k:
            factors.append(f"{name}^{k}")
    return "*".join(factors)


@st.composite
def documents(draw):
    """Input documents of bidegree at most (2,2) whose polynomials are sums
    of monomials, mostly of the declared bidegree."""
    bidegree = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (0, 1)]))
    polynomials = []
    for _ in range(4):
        e = draw(st.sampled_from([bidegree] * 15 + [(1, 1)]))
        terms = draw(st.lists(monomial_texts(e), min_size=1, max_size=4))
        polynomials.append("+".join(terms).replace("+-", "-"))
    doc = {"bidegree": list(bidegree), "polynomials": polynomials}
    if draw(st.booleans()):
        doc["nu"] = draw(st.lists(st.integers(-1, 3), min_size=2, max_size=2))
    if draw(st.booleans()):
        doc["minors"] = draw(st.integers(0, 3))
    return doc


def fuzz_main(path, command, document):
    path.write_text(json.dumps(document))
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = cli.main([command, str(path)])
    assert code in (0, 1, 2)
    lines = stderr.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert len(errors) == (code != 0)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(["hilbert", "implicitize"]),
    json_values
    | st.fixed_dictionaries(
        {"bidegree": json_values, "polynomials": json_values},
        optional={"nu": json_values, "seed": json_values, "minors": json_values},
    ),
)
def test_main_on_arbitrary_json(fuzz_path, command, document):
    fuzz_main(fuzz_path, command, document)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(["hilbert", "implicitize"]), documents())
def test_main_on_small_documents(fuzz_path, command, document):
    fuzz_main(fuzz_path, command, document)


def test_segre_document_runs(fuzz_path):
    fuzz_main(fuzz_path, "implicitize", {"bidegree": [1, 1], "polynomials": list(SEGRE_STRINGS)})
