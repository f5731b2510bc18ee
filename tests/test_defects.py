"""Known defects of the pipeline, one strict xfail per case.

Each case runs `python -m biimplicit implicitize` on one map and asserts
the outcome a correct pipeline gives.  Today each exits 0 with a wrong or
non-minimal form, so every case fails; the marker names the ROADMAP item
whose fix turns it into an XPASS, which fails the suite until that fix
removes the marker:
- item 2: common factors divided out, non-surfaces refused;
- item 3: a map of degree k > 1 gives its implicit equation H, not H^k;
- item 6: the torsion region and base points, through the strand's
  Z2 and Z3 terms (MacRae's formula).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

SEGRE_QUADRIC = "T1*T4 - T2*T3"

# name: (bidegree and polynomials, or a file in tests/data; --nu or None)
MAPS = {
    "point": ("point.json", None),
    "line": ("line.json", None),
    "conic": (((2, 2), ("s^2*t^2", "s*t*u*v", "u^2*v^2", "2*s*t*u*v")), None),
    "s*segre": (((2, 1), ("s^2*t", "s^2*v", "s*u*t", "s*u*v")), None),
    "segre nu=(5,5)": ("segre.json", "5,5"),
    "segre nu=(2,0)": ("segre.json", "2,0"),
    "power": (((2, 2), ("s^2*t^2", "s^2*v^2", "u^2*t^2", "u^2*v^2")), None),
    "rand12 nu=(2,2)": ("rand12.json", "2,2"),
    "plane": (((1, 1), ("s*t", "s*t", "u*t", "u*v")), None),
}


def implicitize(name, tmp_path):
    """(exit code, stdout) of `implicitize` on the map `name`."""
    source, nu = MAPS[name]
    if isinstance(source, str):
        path = DATA / source
    else:
        bidegree, polynomials = source
        path = tmp_path / "map.json"
        path.write_text(
            json.dumps({"bidegree": list(bidegree), "polynomials": list(polynomials)})
        )
    argv = ["implicitize", str(path)] + (["--nu", nu] if nu else [])
    result = subprocess.run(
        [sys.executable, "-m", "biimplicit", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=30,
    )
    return result.returncode, result.stdout


def equation_of(name, tmp_path):
    code, out = implicitize(name, tmp_path)
    assert code == 0
    return json.loads(out)


def defect(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


@defect("item 2")
@pytest.mark.parametrize("name", ["point", "line", "conic"])
def test_non_surface_is_refused(name, tmp_path):
    assert implicitize(name, tmp_path) == (2, "")


@defect("item 2")
def test_common_factor_is_divided_out(tmp_path):
    assert equation_of("s*segre", tmp_path)["equation"] == SEGRE_QUADRIC


@defect("item 6")
@pytest.mark.parametrize("name", ["segre nu=(5,5)", "segre nu=(2,0)"])
def test_torsion_region_segre(name, tmp_path):
    assert equation_of(name, tmp_path)["equation"] == SEGRE_QUADRIC


@defect("item 3")
def test_map_degree_above_one(tmp_path):
    assert equation_of("power", tmp_path)["equation"] == SEGRE_QUADRIC


@defect("item 6")
def test_torsion_region_rand12(tmp_path):
    assert equation_of("rand12 nu=(2,2)", tmp_path)["equation_degree"] == 4


@defect("item 6")
def test_base_point_plane(tmp_path):
    assert equation_of("plane", tmp_path)["equation"] == "T1 - T2"
