"""The truth sweep: does a report give the implicit equation H itself?

Each map runs through `run_implicitize` (default seed, one minor, verify on)
at every nu in [0, 2*e1 + 1] x [0, 2*e2 + 1].  H is the form that
`interpolation_oracle(F, d)` returns at the first degree d where it returns
one, checked by `verify_substitution`.  Each cell gets one class:
- "H": the equation is +H or -H;
- "multiple, warned": H divides the equation exactly, and the report has a
  warning;
- "multiple, silent": the same without a warning;
- "exit 2": a `PipelineError`;
- "other": anything else (a form that H does not divide, another error).

`tests/data/truth_sweep.json` pins each cell's class.  A fix that moves a
cell fails this test until the table changes with it, so every move shows
in the table's diff.  rand22's 36 cells (about 11 s) are left out.
"""

import json
import random
from pathlib import Path

import pytest

from biimplicit.cli import InputSpec, run_implicitize
from biimplicit.matrixrep import (
    NoEquationError,
    PipelineError,
    interpolation_oracle,
    verify_substitution,
)
from biimplicit.parser import parse_poly
from biimplicit.poly import Parametrization, exact_div

from conftest import SEGRE_STRINGS, random_parametrization
from test_defects import MAPS

TABLE = Path(__file__).parent / "data" / "truth_sweep.json"


def _first_draw(e):
    F = random_parametrization(random.Random(7), e)
    return e, tuple(str(f) for f in F.polys)


# name: (bidegree, the four polynomials)
SWEEP_MAPS = {
    "segre": ((1, 1), SEGRE_STRINGS),
    "rand11": _first_draw((1, 1)),
    "rand12": _first_draw((1, 2)),
    "rand21": _first_draw((2, 1)),
    "s*segre": MAPS["s*segre"][0],
    "power": MAPS["power"][0],
    "plane": MAPS["plane"][0],
}

CLASSES = ("H", "multiple, warned", "multiple, silent", "exit 2", "other")


def implicit_equation(F):
    """H: the oracle's form at the least degree that has one."""
    for d in range(1, 9):
        try:
            H = interpolation_oracle(F, d)
        except NoEquationError:
            continue
        assert verify_substitution(H, F)
        return H
    raise AssertionError("no form of degree at most 8 vanishes on the image")


def classify(spec, H) -> str:
    try:
        report = run_implicitize(spec)
    except PipelineError:
        return "exit 2"
    except Exception:
        return "other"
    equation = report.equation
    if equation in (H, -H):
        return "H"
    try:
        exact_div(equation.terms, H.terms)
    except ArithmeticError:
        return "other"
    return "multiple, warned" if report.warnings else "multiple, silent"


def sweep(name) -> dict[str, str]:
    bidegree, polynomials = SWEEP_MAPS[name]
    H = implicit_equation(Parametrization.from_polys(parse_poly(p) for p in polynomials))
    e1, e2 = bidegree
    return {
        f"{a},{b}": classify(InputSpec(bidegree, tuple(polynomials), nu=(a, b)), H)
        for a in range(2 * e1 + 2)
        for b in range(2 * e2 + 2)
    }


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_the_sweep(table):
    assert list(table) == list(SWEEP_MAPS)
    cells = [c for name in table for c in table[name].values()]
    assert len(cells) == 156
    assert set(cells) <= set(CLASSES) - {"other"}


@pytest.mark.parametrize("name", list(SWEEP_MAPS))
def test_each_cell_keeps_its_class(name, table):
    assert sweep(name) == table[name]
