"""Acceptance suite.  Every assertion is exact (zero tolerance); one
PASS/FAIL line per criterion is printed by the hook in conftest.py.
Run with `pytest tests/test_acceptance.py -v` to see the lines.
"""

import json
import random
import time

import pytest

import conftest
from conftest import (
    GOLDEN_STRINGS,
    SEGRE_STRINGS,
    coefficient_rows,
    lin,
    matmul,
    matvec,
    random_bipoly,
    random_parametrization,
    syzygy_columns,
)

from biimplicit.cli import InputSpec, main, run_implicitize
from biimplicit.complexes import koszul_slice, region, suggested_nu, syzygy_basis
from biimplicit.linalg import rref_nullspace
from biimplicit.matrixrep import (
    bareiss_det,
    build_matrix,
    interpolation_oracle,
    rank_drop_check,
)
from biimplicit.parser import parse_poly, parse_tpoly
from biimplicit.poly import Bidegree, BigradedPoly, Parametrization, TPoly

conftest.ACCEPTANCE_LINES.update(
    {
        "1_golden_run": "golden (2,3) pipeline at nu=(3,2), exact, < 60 s",
        "2_region": "region corners and brute-force window agreement",
        "3_alternative_degree": "nu=(1,5) rerun gives the same equation up to sign",
        "4_oracle_equivalence": "interpolation oracle reproduces the equation",
        "5_segre_sanity": "Segre quadric comes out as +-(T1*T4 - T2*T3)",
        "6a_koszul_composition": "Koszul composition is exactly zero (>=100 cases)",
        "6b_syzygy_identity": "every syzygy column annihilates F (>=100 cases)",
        "6c_rank_nullity": "rank + nullity = columns (>=100 cases)",
        "6d_bareiss_homogeneity": "Bareiss determinants homogeneous (>=100 cases)",
        "6e_rank_drop": "rank drops at 100 surface points of the golden matrix",
        "6f_determinism": "fixed-seed reports are byte-identical (modulo timings)",
        "7_parser_round_trip": "print-then-parse fixed point (4 golden + 200 random)",
    }
)


@pytest.fixture(scope="module")
def golden_spec():
    return InputSpec(bidegree=Bidegree(2, 3), polynomials=GOLDEN_STRINGS)


@pytest.fixture(scope="module")
def golden_run(golden_spec):
    start = time.perf_counter()
    report = run_implicitize(golden_spec)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def golden_run_15(golden_spec):
    spec = InputSpec(
        bidegree=golden_spec.bidegree,
        polynomials=golden_spec.polynomials,
        nu=Bidegree(1, 5),
    )
    return run_implicitize(spec)


def test_criterion_1_golden_run(golden_run, golden_F):
    report, elapsed = golden_run
    assert report.nu_used == Bidegree(3, 2)
    assert report.summary.dims == (12, 12, 0, 0)
    assert report.summary.euler == 0
    assert report.summary.macrae_degree == 12
    assert (report.matrix.rows, report.matrix.cols) == (12, 12)
    assert all(
        isinstance(entry, TPoly) and all(sum(mono) == 1 for mono in entry.terms)
        for row in report.matrix.entries
        for entry in row
    )
    equation = report.equation
    assert not equation.is_zero()
    assert equation.is_homogeneous()
    assert equation.total_degree() == 12
    assert report.equation_degree == 12
    assert report.verified is True
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f} s"


def test_criterion_2_region():
    start = time.perf_counter()
    corners = region((2, 3))
    assert {c.as_pair() for c in corners} == {(3, 2), (1, 5)}

    from biimplicit.complexes import in_good_region

    def brute_force(e1, e2, x, y):
        in_h2 = (x <= e1 - 2 and y >= e2) or (x >= e1 and y <= e2 - 2)
        in_h3 = x <= 2 * e1 - 2 and y <= 2 * e2 - 2
        return not (in_h2 or in_h3)

    for e1 in (1, 2, 3):
        for e2 in (1, 2, 3):
            for x in range(-5, 16):
                for y in range(-5, 16):
                    assert in_good_region((e1, e2), (x, y)) == brute_force(
                        e1, e2, x, y
                    ), (e1, e2, x, y)
    assert time.perf_counter() - start < 1.0


def test_criterion_3_alternative_degree(golden_run, golden_run_15):
    report32, _ = golden_run
    report15 = golden_run_15
    assert (report15.matrix.rows, report15.matrix.cols) == (12, 12)
    eq32, eq15 = report32.equation, report15.equation
    assert eq15 == eq32 or eq15 == -eq32
    # both are sign-normalized, so in fact they agree exactly
    assert eq15 == eq32


def test_criterion_4_oracle_equivalence(golden_run, golden_F):
    report, _ = golden_run
    oracle = interpolation_oracle(golden_F, 12, seed=2026)
    eq = report.equation
    assert oracle == eq or oracle == -eq
    assert sorted(oracle.terms) == sorted(eq.terms)
    for mono, coeff in oracle.terms.items():
        assert eq.terms[mono] == coeff


def test_criterion_5_segre_sanity(segre_F):
    spec = InputSpec(bidegree=Bidegree(1, 1), polynomials=SEGRE_STRINGS)
    report = run_implicitize(spec)
    assert report.nu_used == suggested_nu((1, 1))
    quadric = parse_tpoly("T1*T4-T2*T3")
    assert report.equation in (quadric, -quadric)
    assert report.verified is True


def test_criterion_6a_koszul_composition():
    rng = random.Random(101)
    cases = 0
    while cases < 100:
        deg = Bidegree(rng.randint(1, 2), rng.randint(1, 2))
        F = random_parametrization(rng, deg)
        p = rng.choice([2, 3, 4])
        mu = Bidegree(rng.randint(0, 2 * p), rng.randint(0, 2 * p))
        outer = koszul_slice(F, p - 1, mu)
        inner = koszul_slice(F, p, mu)
        assert not any(map(any, matmul(outer.matrix, inner.matrix).data))
        cases += 1


def test_criterion_6b_syzygy_identity():
    rng = random.Random(102)
    cases = 0
    while cases < 100:
        deg = Bidegree(rng.randint(1, 2), rng.randint(1, 2))
        F = random_parametrization(rng, deg)
        nu = Bidegree(rng.randint(0, 2), rng.randint(0, 2))
        for column in syzygy_columns(syzygy_basis(F, nu), nu):
            total = sum(
                (a * f for a, f in zip(column, F.polys)), BigradedPoly.zero()
            )
            assert total.is_zero()
            cases += 1


def test_criterion_6c_rank_nullity():
    from biimplicit.linalg import QMatrix

    rng = random.Random(103)
    for _ in range(100):
        rows = rng.randint(1, 9)
        cols = rng.randint(1, 9)
        data = [
            [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        M = QMatrix(rows, cols, data)
        rank, basis = rref_nullspace(M)
        assert rank + len(basis) == cols
        for vec in basis:
            assert matvec(M, vec) == [0] * rows


def test_criterion_6d_bareiss_homogeneity():
    rng = random.Random(104)
    for _ in range(100):
        n = rng.randint(2, 4)
        M = [
            [
                lin(*(rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(4)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        det = bareiss_det(coefficient_rows(M))
        assert det.is_zero() or (det.is_homogeneous() and det.total_degree() == n)


def test_criterion_6e_rank_drop(golden_run, golden_F):
    report, _ = golden_run
    assert rank_drop_check(report.matrix, golden_F, trials=100, seed=106)


def test_criterion_6f_determinism(tmp_path, capsys):
    path = tmp_path / "segre.json"
    path.write_text(
        json.dumps(
            {"bidegree": [1, 1], "polynomials": list(SEGRE_STRINGS), "seed": 9}
        )
    )
    outputs = []
    for _ in range(2):
        assert main(["implicitize", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timings")
        outputs.append(json.dumps(doc))
    assert outputs[0] == outputs[1]
    # the expensive stages are deterministic too
    F = Parametrization.from_polys(parse_poly(t) for t in GOLDEN_STRINGS)
    first = build_matrix(F, (3, 2))
    second = build_matrix(F, (3, 2))
    assert first.entries == second.entries


def test_criterion_7_parser_round_trip():
    for text in GOLDEN_STRINGS:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p
    rng = random.Random(107)
    for _ in range(200):
        deg = Bidegree(rng.randint(0, 4), rng.randint(0, 4))
        p = random_bipoly(rng, deg, density=rng.uniform(0.2, 1.0))
        assert parse_poly(str(p)) == p
