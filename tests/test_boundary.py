"""The input boundary: exit codes decided by the two error bases, the size
limits of the parser and of Koszul slices, and fuzzing of both entry
points."""

import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biimplicit
from biimplicit import cli, complexes, matrixrep
from biimplicit.complexes import (
    MAX_SLICE_CELLS,
    InvalidBidegreeError,
    koszul_slice,
)
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

from conftest import SEGRE_STRINGS, random_parametrization

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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

    def test_bug_signals_stay_outside_both_bases(self, segre_F):
        # a call the program never makes is a bug, not bad input or a
        # pipeline failure: it must not be reported as either
        with pytest.raises(ValueError) as bad_index:
            koszul_slice(segre_F, 5, (1, 1))
        assert not isinstance(bad_index.value, (InputError, PipelineError))

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

    def test_refused_before_any_array(self, monkeypatch):
        # with numpy gone from complexes, the refusal still comes, while an
        # admitted slice fails at its first array
        F = Parametrization.from_polys(
            parse_poly(text) for text in ("s^60*t^60", "s^60*v^60", "u^60*t^60", "u^60*v^60")
        )
        monkeypatch.setattr(complexes, "np", None)
        with pytest.raises(InputError, match=f"more than {MAX_SLICE_CELLS} cells"):
            koszul_slice(F, 1, (179, 119))
        with pytest.raises(AttributeError):
            koszul_slice(F, 1, (61, 61))

    def test_largest_slice_of_a_bidegree_44_map_admitted(self):
        F = Parametrization.from_polys(
            parse_poly(text) for text in ("s^4*t^4", "s^4*v^4", "u^4*t^4", "u^4*v^4")
        )
        K = koszul_slice(F, 2, (15, 11)).matrix  # nu=(7,3), the default
        assert K.rows * K.cols == 73728 <= MAX_SLICE_CELLS

    def test_oversized_nu_refused_before_its_basis(self, segre_F, monkeypatch):
        # S_nu at nu=(10^5, 10^5) has 10^10 monomials: the K1 cell count
        # must refuse the strand before build_matrix lists them
        def no_basis(deg):
            raise AssertionError(f"graded_basis({deg}) asked for before the refusal")

        monkeypatch.setattr(matrixrep, "graded_basis", no_basis)
        with pytest.raises(InputError, match="strand too large"):
            matrixrep.build_matrix(segre_F, (10**5, 10**5))

    @pytest.mark.parametrize(
        "argv, document",
        [
            (["hilbert", "--nu", "100000,100000"], {}),
            (["matrix", "--nu", "100000,100000"], {}),
            (["implicitize", "--nu", "100000,100000"], {}),
            (["implicitize"], {"nu": [100000, 100000]}),
        ],
    )
    def test_oversized_nu_exits_1_at_once(self, tmp_path, argv, document):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**json.loads((DATA / "segre.json").read_text()), **document}))
        result, seconds = run_timed(argv[0], str(path), *argv[1:])
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error: strand too large")
        assert seconds < 2


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


def _dense_map(degree, bits, seed):
    """Four dense polynomials of the given bidegree, every coefficient of
    exactly `bits` bits, in random signs."""
    rng = random.Random(seed)
    a, b = degree
    return [
        "+".join(
            f"{rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 1), 2**bits)}"
            f"*s^{i}*u^{a - i}*t^{j}*v^{b - j}"
            for i in range(a + 1)
            for j in range(b + 1)
        )
        for _ in range(4)
    ]


@pytest.mark.parametrize("degree, bits", [((60, 60), 4), ((1, 60), 1000)])
def test_largest_strands_at_nu_00_exit_0(tmp_path, degree, bits):
    # the gcd of f1..f4 that gives dim Z3 ends within run_cli's 10 s on a
    # dense (60,60) map and on coefficients near the parser's bit limit
    path = tmp_path / "input.json"
    polynomials = _dense_map(degree, bits, seed=5)
    path.write_text(json.dumps({"bidegree": list(degree), "polynomials": polynomials}))
    result = run_cli("hilbert", str(path), "--nu", "0,0")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["summary"]["dims"] == [1, 0, 0, 0]


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


# -- exports, the checks of run_implicitize and `verify`, `region` -----------------


def test_exports_are_readme_library_names():
    """`biimplicit` exports what README's Library block imports, plus the two
    error bases; everything else is imported from its own module."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    imported = re.search(r"from biimplicit import \(([^)]*)\)", block).group(1)
    names = {name.strip() for name in imported.split(",")} - {""}
    assert sorted(biimplicit.__all__) == sorted(names | {"InputError", "PipelineError"})
    assert all(hasattr(biimplicit, name) for name in biimplicit.__all__)


LINE_MAP = ["u*v", "-2*u*v", "-4*u*v", "-2*u*v-2*s*v"]  # its image is a line


class TestFailedSubstitutionCheck:
    def test_exits_2_with_nothing_on_stdout(self, tmp_path):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"bidegree": [1, 1], "polynomials": LINE_MAP}))
        result = run_cli("implicitize", str(path), "--minors", "3")
        assert result.returncode == 2
        assert result.stdout == ""
        assert "error: substitution check failed" in result.stderr

    def test_raised_by_the_pipeline_unless_verify_is_off(self):
        spec = cli.InputSpec(
            bidegree=biimplicit.Bidegree(1, 1), polynomials=tuple(LINE_MAP), minors=3
        )
        with pytest.raises(PipelineError, match="does not vanish on the image"):
            cli.run_implicitize(spec)
        report = cli.run_implicitize(spec, verify=False)
        assert str(report.equation) == "1" and report.verified is None


def golden_equation() -> str:
    return json.loads((DATA / "golden.nu32.implicitize.json").read_text())["equation"]


def run_timed(*argv):
    start = time.perf_counter()
    result = run_cli(*argv)
    return result, time.perf_counter() - start


class TestVerifyLimit:
    def test_golden_times_a_high_power_refused_at_once(self, tmp_path):
        path = tmp_path / "equation.txt"
        path.write_text(f"({golden_equation()})*T1^100")
        result, seconds = run_timed("verify", str(DATA / "golden.json"), "--equation", str(path))
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.startswith("error: equation file: the degree-112 equation")
        assert f"above {cli.MAX_VERIFY_WORK}" in result.stderr
        assert seconds < 2

    @pytest.mark.parametrize("bidegree, degree, admitted", [((3, 3), 18, True), ((4, 3), 24, False)])
    def test_dense_equations_at_the_macrae_degree(
        self, capsys, tmp_path, bidegree, degree, admitted
    ):
        """A dense equation of degree 2*e1*e2 has every one of its C(n+3, 3)
        terms: admitted up to bidegree (3,3), refused from (4,3) on."""
        F = random_parametrization(random.Random(7), bidegree)
        document = {"bidegree": list(bidegree), "polynomials": [str(f) for f in F.polys]}
        path, equation = tmp_path / "input.json", tmp_path / "equation.txt"
        path.write_text(json.dumps(document))
        equation.write_text(f"(T1+T2+T3+T4)^{degree}")  # does not vanish on the image
        code = cli.main(["verify", str(path), "--equation", str(equation)])
        out, err = capsys.readouterr()
        if admitted:
            assert code == 0 and json.loads(out) == {"verified": False, "equation_degree": degree}
        else:
            assert code == 1 and out == "" and "too large to check" in err


class TestRegionLimit:
    def test_4300_digit_component_refused_at_once(self):
        result, seconds = run_timed("region", "--bidegree", "9" * 4300 + ",1")
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr == f"error: --bidegree components must be at most {cli.MAX_BIDEGREE}\n"
        assert seconds < 2

    def test_every_bidegree_of_a_parsable_map_admitted(self, capsys):
        assert cli.MAX_BIDEGREE == MAX_DEGREE
        assert cli.main(["region", "--bidegree", f"1,{MAX_DEGREE}"]) == 0
        assert json.loads(capsys.readouterr().out)["corners"][1] == [0, 2 * MAX_DEGREE - 1]
        assert cli.main(["region", "--bidegree", f"{MAX_DEGREE + 1},1"]) == 1


@st.composite
def long_bidegree_argv(draw):
    """`region` with one or both components of up to 4400 digits."""

    def component():
        sign = draw(st.sampled_from(["", "-"]))
        return sign + draw(st.sampled_from("123456789")) * draw(st.integers(1, 4400))

    pair = [component(), component() if draw(st.booleans()) else "1"]
    return ["region", "--bidegree", ",".join(draw(st.permutations(pair)))]


@st.composite
def high_degree_verify_argv(draw, path):
    """`verify` on golden with its equation plus a power of T1, which fails
    at the first grid point or is refused, or times a power of T1 past
    degree 39, the highest such product admitted, which is refused (one
    admitted would run its whole grid, up to 9 s)."""
    if draw(st.booleans()):
        equation = f"({golden_equation()})+T1^{draw(st.integers(0, 128))}"
    else:
        equation = f"({golden_equation()})*T1^{draw(st.integers(28, 116))}"
    path.write_text(equation)
    return ["verify", str(DATA / "golden.json"), "--equation", str(path)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_main_on_boundary_shapes(fuzz_path, data):
    """Exit 0 with one JSON document on stdout, or exit 1 with one `error:`
    line and nothing on stdout."""
    argv = data.draw(long_bidegree_argv() | high_degree_verify_argv(fuzz_path))
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (0, 1)
    assert stderr.getvalue().startswith("error: ") == (code == 1)
    if code:
        assert stdout.getvalue() == "" and len(stderr.getvalue().splitlines()) == 1
    else:
        json.loads(stdout.getvalue())
