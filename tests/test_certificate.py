"""The certificate of single-determinant equations: every column of the
matrix the determinant was taken on is a syzygy (check (a)), and the
determinant agrees with exact elimination at one point (check (b)).  The
substitution grid stays here as the independent oracle."""

import json
import random
import runpy
import sys
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biimplicit import cli, matrixrep
from biimplicit.matrixrep import MatrixRep, PipelineError, _integer_det
from biimplicit.parser import parse_poly
from biimplicit.poly import Bidegree, Parametrization, TPoly

from conftest import GOLDEN_STRINGS, SEGRE_STRINGS, matrix_of, random_parametrization

SEGRE_F = Parametrization.from_polys(parse_poly(text) for text in SEGRE_STRINGS)


def spec_of(F, nu=None, minors=1):
    return cli.InputSpec(
        bidegree=F.bidegree,
        polynomials=tuple(str(f) for f in F.polys),
        nu=nu,
        minors=minors,
    )


def rand(e):
    """randXY: the first draw of random_parametrization(Random(7), (X, Y))."""
    return random_parametrization(random.Random(7), e)


GOLDEN = cli.InputSpec(bidegree=Bidegree(2, 3), polynomials=GOLDEN_STRINGS, nu=Bidegree(3, 2))
RAND22 = spec_of(rand((2, 2)))
RAND11_MINORS3 = spec_of(rand((1, 1)), nu=Bidegree(3, 1), minors=3)
# rectangular strands whose equation is a single minor's determinant
RECT_SINGLE = {
    "rand12 nu=(2,2)": spec_of(rand((1, 2)), nu=Bidegree(2, 2)),
    "segre nu=(5,5)": spec_of(SEGRE_F, nu=Bidegree(5, 5)),
}


def corrupt_minor(monkeypatch) -> list:
    """Add 1 to the first coefficient of entry (0, 0) of the integer minor,
    the one matrix that the determinant and check (a) both read; returns
    the list of the changed minors handed out."""
    real = MatrixRep._minor
    changed = []

    def corrupted(self, columns):
        rows = [list(row) for row in real(self, columns)]
        first = rows[0][0]
        rows[0][0] = (first[0] + 1, *first[1:])
        changed.append(tuple(tuple(row) for row in rows))
        return changed[-1]

    monkeypatch.setattr(MatrixRep, "_minor", corrupted)
    return changed


def assert_changed_minor_is_caught(monkeypatch, spec):
    """With the minor changed, the determinant is taken on it and check (a)
    fails on it; without verification the run still gives a report."""
    changed = corrupt_minor(monkeypatch)
    dets = counting(monkeypatch, matrixrep, "bareiss_det")
    with pytest.raises(PipelineError, match="column 0 .* is not a syzygy"):
        cli.run_implicitize(spec)
    assert len(changed) == 2 and changed[0] == changed[1]
    assert dets == [(changed[0],)]
    report = cli.run_implicitize(spec, verify=False)
    assert report.verified is None


class TestNegative:
    @pytest.mark.parametrize("spec", [GOLDEN, RAND22], ids=["golden", "rand22"])
    def test_changed_reduced_column_is_not_a_syzygy(self, monkeypatch, spec):
        # a square strand peels nothing, so its minor is a reduced basis of
        # its integer syzygies
        assert_changed_minor_is_caught(monkeypatch, spec)

    @pytest.mark.parametrize("name", sorted(RECT_SINGLE))
    def test_changed_integer_column_is_not_a_syzygy(self, monkeypatch, name):
        # a rectangular strand's minor is its integer columns at the
        # proposal, with the core columns left by peeling reduced
        assert_changed_minor_is_caught(monkeypatch, RECT_SINGLE[name])

    def test_changed_reduced_column_exits_2(self, tmp_path, capsys):
        # `python -m biimplicit implicitize` with golden's minor changed in
        # the same interpreter
        path = tmp_path / "golden.json"
        path.write_text(json.dumps({"bidegree": [2, 3], "polynomials": list(GOLDEN_STRINGS)}))
        with pytest.MonkeyPatch.context() as patch:
            corrupt_minor(patch)
            patch.setattr(sys, "argv", ["biimplicit", "implicitize", str(path)])
            with pytest.raises(SystemExit) as exit_info:
                runpy.run_module("biimplicit", run_name="__main__", alter_sys=True)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "is not a syzygy" in captured.err

    @pytest.mark.parametrize(
        "spec", [GOLDEN, RAND22, *RECT_SINGLE.values()], ids=["golden", "rand22", *RECT_SINGLE]
    )
    def test_wrong_determinant_is_caught_at_the_check_point(self, monkeypatch, spec):
        real = matrixrep.bareiss_det

        def off(matrix):
            det = real(matrix)
            if det.is_zero():
                return det
            return det + TPoly.monomial((det.total_degree(), 0, 0, 0), 3)

        monkeypatch.setattr(matrixrep, "bareiss_det", off)
        with pytest.raises(PipelineError, match="disagrees with exact elimination"):
            cli.run_implicitize(spec)

    def test_no_rows(self):
        M = matrix_of(())
        with pytest.raises(PipelineError, match="no rows"):
            matrixrep.certify_determinant(M, SEGRE_F, [], TPoly.constant(1))


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCallCounts:
    @pytest.mark.parametrize("spec", [GOLDEN, RAND22], ids=["golden", "rand22"])
    def test_square_strand_skips_the_grid(self, monkeypatch, spec):
        grid = counting(monkeypatch, cli, "verify_substitution")
        certificate = counting(monkeypatch, cli, "certify_determinant")
        saturation = counting(monkeypatch, matrixrep, "saturation")
        lll = counting(monkeypatch, matrixrep, "lll_reduce")
        report = cli.run_implicitize(spec)
        assert report.verified is True
        assert (len(grid), len(certificate), len(saturation), len(lll)) == (0, 1, 1, 1)

    @pytest.mark.parametrize("name", sorted(RECT_SINGLE))
    def test_rectangular_single_minor_skips_the_grid(self, monkeypatch, name):
        grid = counting(monkeypatch, cli, "verify_substitution")
        certificate = counting(monkeypatch, cli, "certify_determinant")
        assert cli.run_implicitize(RECT_SINGLE[name]).verified is True
        assert (len(grid), len(certificate)) == (0, 1)

    def test_gcd_over_minors_keeps_the_grid(self, monkeypatch):
        grid = counting(monkeypatch, cli, "verify_substitution")
        certificate = counting(monkeypatch, cli, "certify_determinant")
        assert cli.run_implicitize(RAND11_MINORS3).verified is True
        assert (len(grid), len(certificate)) == (1, 0)

    @pytest.mark.parametrize("spec", [GOLDEN, RAND11_MINORS3], ids=["golden", "rand11-minors3"])
    def test_no_verify_runs_neither_check(self, monkeypatch, spec):
        grid = counting(monkeypatch, cli, "verify_substitution")
        certificate = counting(monkeypatch, cli, "certify_determinant")
        report = cli.run_implicitize(spec, verify=False)
        assert report.verified is None and "verify_ms" in report.timings
        assert (len(grid), len(certificate)) == (0, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    e=st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)]),
    map_seed=st.integers(0, 2**32 - 1),
)
def test_certificate_agrees_with_the_grid(e, map_seed):
    F = random_parametrization(random.Random(map_seed), e)
    report = cli.run_implicitize(spec_of(F))
    assert report.verified is True
    assert matrixrep.verify_substitution(report.equation, F) is True


@pytest.mark.parametrize("name", sorted(RECT_SINGLE))
def test_rectangular_single_minor_agrees_with_the_grid(name):
    spec = RECT_SINGLE[name]
    report = cli.run_implicitize(spec)
    F = cli.build_parametrization(spec)
    assert report.matrix.rows < report.matrix.cols
    assert report.verified is True
    assert matrixrep.verify_substitution(report.equation, F) is True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_integer_det_is_the_permutation_expansion(rows):
    n = len(rows)
    expected = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        expected += term
    assert _integer_det(rows) == expected
