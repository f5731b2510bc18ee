"""Pinned reports: the CLI output for fixed inputs, compared as JSON text
with key order, against the files in tests/data.  The `implicitize`
reports are stored without their `timings`, the only field that changes
between runs.

segre.json is the Segre map, rand11.json, rand12.json and rand22.json the
first (1,1), (1,2) and (2,2) maps drawn by
conftest.random_parametrization(random.Random(7), e),
golden.json the golden bidegree-(2,3) map (golden.factored.json the same
map written with parentheses and powers of sums), point.json (st, 2st, 3st, 4st)
and line.json (uv, -2uv, -4uv, -2uv-2sv) two maps whose polynomials share a
common factor; each expected file was written by running the
argv of its case through `main` and dumping the parsed report, minus
`timings`, with indent 2 and a final newline.
"""

import hashlib
import json
from pathlib import Path

import pytest

from biimplicit.cli import main
from biimplicit.parser import parse_poly

DATA = Path(__file__).parent / "data"

CASES = {
    # default nu (1,0): 2x2, the quadric itself
    "segre.implicitize.json": ["implicitize", "segre.json"],
    # 6x12: three minors, an extraneous factor and its warning
    "segre.nu21.minors3.implicitize.json": [
        "implicitize", "segre.json", "--nu", "2,1", "--minors", "3"
    ],
    # 12x28: three peeled minors of integer columns and their gcd, the
    # degree-2 equation, verified on the grid
    "rand11.nu32.minors3.implicitize.json": [
        "implicitize", "rand11.json", "--nu", "3,2", "--minors", "3"
    ],
    # 9x16 with the MacRae-degree warning
    "rand12.nu22.implicitize.json": ["implicitize", "rand12.json", "--nu", "2,2"],
    # 12x12 with Fraction coefficients in the entries
    "golden.nu32.matrix.json": ["matrix", "golden.json", "--nu", "3,2"],
    # no syzygies at nu=(0,0): 1x0, entries [[]], dims (1, 0, 0, 0)
    "segre.nu00.matrix.json": ["matrix", "segre.json", "--nu", "0,0"],
    # 12x12 square strands at both corners: the full determinant path
    "golden.nu32.implicitize.json": ["implicitize", "golden.json", "--nu", "3,2"],
    "golden.nu15.implicitize.json": ["implicitize", "golden.json", "--nu", "1,5"],
    # dims (9, 16, 9, 2): every Z dimension nonzero
    "rand12.nu22.hilbert.json": ["hilbert", "rand12.json", "--nu", "2,2"],
    # the two strands of perfbench's `strand` workload, far above the
    # corner: golden's K2 rank is certified by the rank of K1 at nu+2d,
    # rand22's by the closed-form rank of d3 at nu+2d
    "golden.nu54.hilbert.json": ["hilbert", "golden.json", "--nu", "5,4"],
    "rand22.nu64.hilbert.json": ["hilbert", "rand22.json", "--nu", "6,4"],
    # the sparsest strand ranked mod p: Segre's 196x216 K2 of monomial
    # entries, dims (36, 95, 84, 25), MacRae degree 2
    "segre.nu55.hilbert.json": ["hilbert", "segre.json", "--nu", "5,5"],
    # common factors s*t and v, of bidegrees (1,1) and (0,1): dim Z3 is
    # dim S_(nu-d+delta), 9 and 20
    "point.nu22.hilbert.json": ["hilbert", "point.json", "--nu", "2,2"],
    "line.nu44.hilbert.json": ["hilbert", "line.json", "--nu", "4,4"],
    # 3x4 inside the torsion region, dims (3, 4, 1, 0), no determinant
    "segre.nu20.matrixonly.implicitize.json": [
        "implicitize", "segre.json", "--nu", "2,0", "--matrix-only"
    ],
}


def _report_text(command, input_name, options, capsys) -> str:
    assert main([command, str(DATA / input_name), *options]) == 0
    doc = json.loads(capsys.readouterr().out)
    if command == "implicitize":
        del doc["timings"]
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("expected", sorted(CASES))
def test_pinned_report(expected, capsys):
    command, input_name, *options = CASES[expected]
    text = _report_text(command, input_name, options, capsys)
    assert text == (DATA / expected).read_text(encoding="utf-8")


def _inputs(name):
    return json.loads((DATA / name).read_text(encoding="utf-8"))["polynomials"]


# golden.factored.json is golden's map written with parentheses, powers of
# sums, unary minus and irregular whitespace: the parser must expand it to
# golden's polynomials, and the pipeline must print golden's report
def test_factored_golden_parses_to_golden():
    for factored, plain in zip(_inputs("golden.factored.json"), _inputs("golden.json")):
        assert factored != plain
        assert parse_poly(factored) == parse_poly(plain)


def test_factored_golden_expands_alike_in_sympy():
    sympy = pytest.importorskip("sympy")
    for factored, plain in zip(_inputs("golden.factored.json"), _inputs("golden.json")):
        difference = sympy.sympify(factored.replace("^", "**")) - sympy.sympify(
            plain.replace("^", "**")
        )
        assert sympy.expand(difference) == 0


def test_factored_golden_report(capsys):
    text = _report_text("implicitize", "golden.factored.json", [], capsys)
    assert text == (DATA / "golden.nu32.implicitize.json").read_text(encoding="utf-8")


# the `matrix` reports of perfbench's two strands, 30x56 and 35x77, pinned
# by the sha256 of their text on stdout
STRAND_DIGESTS = {
    ("golden.json", "5,4"): "7e8706be4a1fe31e65d2847dfa7bcf968ac65f5bc7d250e80882344677e55205",
    ("rand22.json", "6,4"): "334e37fb5e41395b0b701097c442a58c0484aeb7aaed7f0b834775502dc1b674",
}


@pytest.mark.parametrize("input_name, nu", sorted(STRAND_DIGESTS))
def test_strand_matrix_digest(input_name, nu, capsys):
    assert main(["matrix", str(DATA / input_name), "--nu", nu]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == STRAND_DIGESTS[input_name, nu]
