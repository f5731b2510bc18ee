import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biimplicit import complexes
from biimplicit.complexes import (
    ComplexSummary,
    InvalidBidegreeError,
    complex_summary,
    in_good_region,
    koszul_slice,
    region,
    suggested_nu,
    syzygy_basis,
)
from biimplicit.linalg import (
    QMatrix,
    coeff_vector,
    exact_rank,
    graded_basis,
    multiplication_matrix,
    rref_nullspace,
)
from biimplicit.cli import InputSpec, run_implicitize
from biimplicit.matrixrep import build_matrix
from biimplicit.modnull import prime_stream, rank_mod_p
from biimplicit.parser import parse_poly
from biimplicit.poly import Bidegree, BigradedPoly, Parametrization

from conftest import GOLDEN_STRINGS, matmul, random_bipoly, random_parametrization, residues

DATA = Path(__file__).parent / "data"


class TestKoszulSlice:
    def test_first_differential_shape(self, golden_F):
        sl = koszul_slice(golden_F, 1, (5, 5))
        assert (sl.matrix.rows, sl.matrix.cols) == (36, 48)
        assert [I for I, _ in sl.col_blocks] == [(1,), (2,), (3,), (4,)]
        assert [J for J, _ in sl.row_blocks] == [()]

    def test_second_differential_shape(self, golden_F):
        # column components of bidegree (3,2) live in module degree (3,2)+2*(2,3)
        sl = koszul_slice(golden_F, 2, Bidegree(3, 2) + 2 * Bidegree(2, 3))
        assert (sl.matrix.rows, sl.matrix.cols) == (4 * 36, 6 * 12)

    def test_block_signs(self, segre_F):
        # block J=(1,) of column block I=(1,2) must be -mult(f2); J=(2,) is +mult(f1)
        sl = koszul_slice(segre_F, 2, (2, 2))
        col_deg = Bidegree(0, 0)
        m1 = multiplication_matrix(segre_F.polys[0], col_deg)
        m2 = multiplication_matrix(segre_F.polys[1], col_deg)
        rdim = sl.row_blocks[0][1].dim
        cdim = sl.col_blocks[0][1].dim
        # column block (1,2) is the first one; row blocks are (1,),(2,),(3,),(4,)
        assert [I for I, _ in sl.col_blocks][0] == (1, 2)
        block_J1 = [row[0:cdim] for row in sl.matrix.data[0:rdim]]
        block_J2 = [row[0:cdim] for row in sl.matrix.data[rdim : 2 * rdim]]
        assert block_J1 == [[-x for x in row] for row in m2.data]
        assert block_J2 == m1.data

    def test_composition_is_zero(self, golden_F):
        rng = random.Random(17)
        for _ in range(20):
            p = rng.choice([2, 3, 4])
            mu = Bidegree(rng.randint(0, 9), rng.randint(0, 12))
            outer = koszul_slice(golden_F, p - 1, mu)
            inner = koszul_slice(golden_F, p, mu)
            assert matmul(outer.matrix, inner.matrix).is_zero()

    def test_bad_index(self, segre_F):
        with pytest.raises(ValueError):
            koszul_slice(segre_F, 5, (1, 1))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        e=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        seed=st.integers(0, 2**16),
        scales=st.lists(
            st.sampled_from([1, -1, 7, -(2**62), 2**63 - 1, 2**63, -(2**70), 3**50]),
            min_size=4,
            max_size=4,
        ),
        p=st.integers(1, 4),
        offset=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_residues_match_exact_slice(self, e, seed, scales, p, offset):
        # f_i scaled past int64 (negative too) or not, and mu - p*d with a
        # negative component, where the column piece is empty: the exact
        # rows are the blocks of multiplication matrices, and the int64
        # residues are those rows mod 2^31 - 1
        F = random_parametrization(random.Random(seed), e)
        F = Parametrization.from_polys(f * k for f, k in zip(F.polys, scales))
        mu = p * Bidegree(*e) + Bidegree(*offset)
        sl = koszul_slice(F, p, mu)
        assert sl.matrix.data == _block_layout(F, p, mu)
        prime = 2**31 - 1
        values = sl.residues(prime)
        assert values.dtype == np.int64
        assert values.shape == (sl.matrix.rows, sl.matrix.cols)
        assert values.tolist() == [[x % prime for x in row] for row in sl.matrix.data]

    @pytest.mark.parametrize(
        "scales, dtype",
        [
            ((2**63 - 1, -(2**63 - 1), 1, -1), np.int64),
            ((2**63, 1, 1, 1), object),
            ((1, -(2**63), 1, 1), object),  # fits int64, its negative does not
        ],
    )
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_int64_edge(self, segre_F, scales, dtype, p):
        F = Parametrization.from_polys(f * k for f, k in zip(segre_F.polys, scales))
        mu = Bidegree(p + 1, p)
        sl = koszul_slice(F, p, mu)
        assert sl.array.dtype == dtype
        assert sl.matrix.data == _block_layout(F, p, mu)
        prime = 2**31 - 1
        assert sl.residues(prime).tolist() == [[x % prime for x in row] for row in sl.matrix.data]

    def test_fraction_slice_has_no_residues(self, golden_F):
        F = Parametrization.from_polys(f * Fraction(-1, 3) for f in golden_F.polys)
        sl = koszul_slice(F, 2, (6, 7))
        assert sl.matrix.data == _block_layout(F, 2, Bidegree(6, 7))
        with pytest.raises(TypeError):
            sl.residues(2**31 - 1)


def _block_layout(F, p, mu):
    """The rows of the p-th Koszul slice at mu, block (J, I) being
    (-1)^pos(i, I) times multiplication by f_i where J = I minus i."""
    col_deg, row_deg = mu - p * F.bidegree, mu - (p - 1) * F.bidegree
    col_subsets = list(combinations((1, 2, 3, 4), p))
    row_subsets = list(combinations((1, 2, 3, 4), p - 1))
    m, n = graded_basis(row_deg).dim, graded_basis(col_deg).dim
    rows = [[0] * (n * len(col_subsets)) for _ in range(m * len(row_subsets))]
    for bj, I in enumerate(col_subsets):
        for pos, i in enumerate(I):
            bi = row_subsets.index(tuple(x for x in I if x != i))
            block = multiplication_matrix(F.polys[i - 1], col_deg).data
            for r in range(m):
                for c in range(n):
                    rows[bi * m + r][bj * n + c] = (-1) ** pos * block[r][c]
    return rows


class TestSyzygyBasis:
    def test_golden_count_and_identity(self, golden_F):
        basis = syzygy_basis(golden_F, (3, 2))
        assert len(basis) == 12
        for a1, a2, a3, a4 in basis.columns:
            total = sum(
                (a * f for a, f in zip((a1, a2, a3, a4), golden_F.polys)),
                BigradedPoly.zero(),
            )
            assert total.is_zero()
            for a in (a1, a2, a3, a4):
                assert a.is_zero() or a.bidegree() == Bidegree(3, 2)

    def test_golden_alternative_degree(self, golden_F):
        basis = syzygy_basis(golden_F, (1, 5))
        assert len(basis) == 12
        for column in basis.columns:
            total = sum(
                (a * f for a, f in zip(column, golden_F.polys)),
                BigradedPoly.zero(),
            )
            assert total.is_zero()

    def test_random_syzygies_vanish(self):
        rng = random.Random(23)
        for _ in range(30):
            deg = Bidegree(rng.randint(1, 2), rng.randint(1, 2))
            F = random_parametrization(rng, deg)
            nu = Bidegree(rng.randint(0, 2), rng.randint(0, 2))
            for column in syzygy_basis(F, nu).columns:
                total = sum(
                    (a * f for a, f in zip(column, F.polys)),
                    BigradedPoly.zero(),
                )
                assert total.is_zero()

    def test_duplicate_polynomial_trivial_syzygy(self):
        # with f1 == f2 the column (f, -f, 0, 0) is a degree-e syzygy and must
        # lie in the span of the computed basis
        f = parse_poly("s*t+s*v")
        g = parse_poly("u*t")
        h = parse_poly("u*v+s*t")
        F = Parametrization.from_polys([f, f, g, h])
        nu = Bidegree(1, 1)
        basis = syzygy_basis(F, nu)
        target = (f, -f, BigradedPoly.zero(), BigradedPoly.zero())
        gb = graded_basis(nu)
        rows = [
            [c for a in column for c in coeff_vector(a, gb)]
            for column in basis.columns
        ]
        from biimplicit.linalg import exact_rank

        base_rank = exact_rank(QMatrix.from_rows(rows))
        rows.append([c for a in target for c in coeff_vector(a, gb)])
        assert exact_rank(QMatrix.from_rows(rows)) == base_rank

    def test_determinism(self, golden_F):
        first = syzygy_basis(golden_F, (3, 2))
        second = syzygy_basis(golden_F, (3, 2))
        assert first == second


def brute_force_in_good_region(e: Bidegree, nu: Bidegree) -> bool:
    """Independent oracle: unions of shifted quadrants for the torsion
    supports, shifted by e and 2e, complemented."""
    x, y = nu.d1, nu.d2
    in_h2_shifted = (x <= e.d1 - 2 and y >= e.d2) or (x >= e.d1 and y <= e.d2 - 2)
    in_h3_shifted = x <= 2 * e.d1 - 2 and y <= 2 * e.d2 - 2
    return not (in_h2_shifted or in_h3_shifted)


class TestRegion:
    def test_golden_corners(self):
        spec = region((2, 3))
        assert set(c.as_pair() for c in spec.corners) == {(3, 2), (1, 5)}

    def test_unit_corners(self):
        spec = region((1, 1))
        assert set(c.as_pair() for c in spec.corners) == {(1, 0), (0, 1)}

    def test_invalid(self):
        with pytest.raises(InvalidBidegreeError):
            region((0, 3))

    def test_membership_examples(self):
        assert not in_good_region((2, 3), (2, 1))
        assert in_good_region((2, 3), (3, 2))
        assert in_good_region((2, 3), (1, 5))
        assert not in_good_region((2, 3), (0, 0))

    def test_brute_force_agreement(self):
        for e1 in (1, 2, 3):
            for e2 in (1, 2, 3):
                e = Bidegree(e1, e2)
                for x in range(-5, 16):
                    for y in range(-5, 16):
                        nu = Bidegree(x, y)
                        assert in_good_region(e, nu) == brute_force_in_good_region(
                            e, nu
                        ), (e, nu)

    def test_suggested_nu(self):
        assert suggested_nu((2, 3)) == Bidegree(3, 2)
        assert in_good_region((2, 3), suggested_nu((2, 3)))


class TestComplexSummary:
    def test_golden(self, golden_F):
        summary = complex_summary(golden_F, build_matrix(golden_F, (3, 2)))
        assert summary.dims == (12, 12, 0, 0)
        assert summary.euler == 0
        assert summary.macrae_degree == 12

    def test_golden_alternative(self, golden_F):
        summary = complex_summary(golden_F, build_matrix(golden_F, (1, 5)))
        assert summary.dims == (12, 12, 0, 0)
        assert summary.euler == 0
        assert summary.macrae_degree == 12

    def test_formula_specialization(self):
        summary = ComplexSummary(
            nu=Bidegree(1, 0), dims=(2, 2, 0, 0), euler=0, macrae_degree=2
        )
        h0, h1, h2, h3 = summary.dims
        assert summary.euler == h0 - h1 + h2 - h3
        assert summary.macrae_degree == h1 - 2 * h2 + 3 * h3

    def test_segre(self, segre_F):
        M = build_matrix(segre_F, suggested_nu((1, 1)))
        summary = complex_summary(segre_F, M)
        assert summary.dims == (2, 2, 0, 0)
        assert summary.euler == 0
        assert summary.macrae_degree == 2

    @pytest.mark.parametrize(
        "name, nus",
        [
            ("golden_F", [(0, 0), (1, 1), (2, 1), (3, 2), (1, 5), (4, 3)]),
            ("segre_F", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 3)]),
        ],
    )
    def test_kernel_dims_match_nullspaces(self, request, name, nus):
        # h1 is read off the matrix, h2 and h3 by rank-nullity; each must be
        # the size of the nullspace basis of its Koszul slice, also in the
        # torsion region
        F = request.getfixturevalue(name)
        assert any(not in_good_region(F.bidegree, nu) for nu in nus)
        dims = []
        for nu in nus:
            summary = complex_summary(F, build_matrix(F, nu))
            assert summary.nu == Bidegree(*nu)
            assert summary.dims[0] == graded_basis(nu).dim
            for p in (1, 2, 3):
                sl = koszul_slice(F, p, Bidegree(*nu) + p * F.bidegree)
                expected = len(rref_nullspace(sl.matrix)[1])
                assert summary.dims[p] == expected, (nu, p)
            dims.append(summary.dims)
        assert any(d[2] for d in dims) and any(d[3] for d in dims)

    def test_each_slice_built_and_eliminated_once(self, monkeypatch):
        # one matrix-only run: K1 is built and eliminated by syzygy_basis
        # alone, K2 built by complex_summary alone and no K3 at all; at
        # golden's corner the rank of K2 mod p meets the closed-form bound,
        # so K2 is not eliminated over Z
        calls = {"koszul_slice": [], "rref_nullspace": 0, "exact_rank": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                if name == "koszul_slice":
                    calls[name].append(args[1])
                else:
                    calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                complexes, name, counting(name, getattr(complexes, name))
            )
        spec = InputSpec(bidegree=Bidegree(2, 3), polynomials=GOLDEN_STRINGS)
        report = run_implicitize(spec, matrix_only=True)
        assert report.summary.dims == (12, 12, 0, 0)
        assert sorted(calls["koszul_slice"]) == [1, 2]
        assert calls["rref_nullspace"] == 1
        assert calls["exact_rank"] == 0


def _reference_dims(F, M):
    """dims by rank-nullity with every K2 and K3 rank from exact_rank."""
    K2, K3 = (koszul_slice(F, p, M.nu + p * F.bidegree).matrix for p in (2, 3))
    r2 = exact_rank(K2)
    # im d2 lies in ker d1, which is smaller than K2's rows: complex_summary
    # needs no row-count bound
    assert r2 < K2.rows
    return (M.rows, M.cols, K2.cols - r2, K3.cols - exact_rank(K3))


def _counting(monkeypatch, name):
    """Replace complexes.<name> by a wrapper that records its arguments."""
    calls = []
    fn = getattr(complexes, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(complexes, name, wrapper)
    return calls


# common factors planted in f1..f4: random ones of each bidegree, and
# monomials, whose powers of u and v the gcd of the f_i at u = v = 1 misses
COMMON_FACTORS = [
    *((None, delta) for delta in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))),
    ("u", (1, 0)),
    ("v^2", (0, 2)),
    ("u*v", (1, 1)),
    ("s*v", (1, 1)),
]


# maps whose images are a point, a line, a plane and the Segre
# quadric covered four times, each at a nu where the bounds of
# complex_summary miss and its ranks come from exact_rank
DEFECT_MAPS = {
    "point": (("s*t", "2*s*t", "3*s*t", "4*s*t"), (1, 1)),
    "line": (("u*v", "-2*u*v", "-4*u*v", "-2*u*v-2*s*v"), (1, 1)),
    "plane": (("s*t", "s*t", "u*t", "u*v"), (1, 1)),
    "power": (("s^2*t^2", "s^2*v^2", "u^2*t^2", "u^2*v^2"), (0, 4)),
}


class TestRankCertificate:
    """complex_summary reads dim Z3 off the common factor of f1..f4, ranks
    K2 mod p and keeps that rank only where it meets an upper bound from
    the complex; otherwise it goes to exact_rank, so the dimensions never
    depend on the prime."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        e=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)]),
        density=st.sampled_from([0.3, 0.8]),
        seed=st.integers(0, 2**16),
        offset=st.tuples(st.integers(-2, 1), st.integers(-2, 1)),
    )
    def test_dims_match_rank_nullity(self, e, density, seed, offset):
        # nu = corner + offset, clipped at 0: the grid reaches into the
        # torsion region below the corner
        rng = random.Random(seed)
        F = Parametrization.from_polys(
            random_bipoly(rng, e, density=density) for _ in range(4)
        )
        corner = suggested_nu(e)
        nu = (max(corner.d1 + offset[0], 0), max(corner.d2 + offset[1], 0))
        M = build_matrix(F, nu)
        assert complex_summary(F, M).dims == _reference_dims(F, M)

    def test_grid_reaches_both_paths(self, monkeypatch):
        # the property above samples certified and fallback ranks alike:
        # sparse (1,2) maps below and at the corner
        fallbacks = _counting(monkeypatch, "exact_rank")
        counts = []
        for seed in range(6):
            rng = random.Random(seed)
            F = Parametrization.from_polys(
                random_bipoly(rng, (1, 2), density=0.3) for _ in range(4)
            )
            for nu in ((0, 0), (1, 0), (1, 1), (0, 3)):
                fallbacks.clear()
                M = build_matrix(F, nu)
                dims = complex_summary(F, M).dims
                counts.append(len(fallbacks))
                assert dims == _reference_dims(F, M)
        assert 0 in counts and any(counts)

    @pytest.mark.parametrize("name", sorted(DEFECT_MAPS))
    def test_defect_maps_fall_back(self, monkeypatch, name):
        strings, nu = DEFECT_MAPS[name]
        F = Parametrization.from_polys(parse_poly(t) for t in strings)
        M = build_matrix(F, nu)
        fallbacks = _counting(monkeypatch, "exact_rank")
        dims = complex_summary(F, M).dims
        assert fallbacks
        assert dims == _reference_dims(F, M)

    @pytest.mark.parametrize(
        "name, nu", [("golden_F", (3, 2)), ("golden_F", (5, 4)), ("segre_F", (2, 1))]
    )
    def test_low_kernel_falls_back(self, request, monkeypatch, name, nu):
        # a kernel that reports one less than the rank meets no bound, so
        # K2 is eliminated over Z, and it is the only slice that is
        F = request.getfixturevalue(name)
        M = build_matrix(F, nu)
        expected = complex_summary(F, M).dims
        monkeypatch.setattr(
            complexes, "rank_mod_p", lambda A, p: rank_mod_p(A, p) - 1
        )
        fallbacks = _counting(monkeypatch, "exact_rank")
        assert complex_summary(F, M).dims == expected
        assert len(fallbacks) == 1

    def test_fraction_coefficients(self, golden_F, monkeypatch):
        # the same map with f1 and f4 scaled by non-integers: it is ranked
        # mod p through its integer multiple, every rank meets its bound as
        # golden's do, and the ranks are those of golden
        scales = (Fraction(1, 3), 1, 1, Fraction(-5, 2))
        F = Parametrization.from_polys(
            BigradedPoly({m: c * k for m, c in f.terms.items()})
            for f, k in zip(golden_F.polys, scales)
        )
        assert not all(
            isinstance(c, int) for f in F.polys for c in f.terms.values()
        )
        for nu in ((3, 2), (5, 4)):
            expected = complex_summary(golden_F, build_matrix(golden_F, nu)).dims
            M = build_matrix(F, nu)
            fallbacks = _counting(monkeypatch, "exact_rank")
            assert complex_summary(F, M).dims == expected
            assert not fallbacks
            monkeypatch.undo()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        e=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        seed=st.integers(0, 2**16),
        common=st.sampled_from([2, -3, 10, Fraction(1, 3), Fraction(-5, 2)]),
        own=st.lists(
            st.fractions(-9, 9, max_denominator=9).filter(bool), min_size=4, max_size=4
        ),
    )
    def test_scaled_maps(self, e, seed, common, own):
        # a random map, rational when a factor of `own` is: one scalar for
        # all four f_i keeps the syzygies, hence the matrix, and each f_i's
        # own scalar keeps every Koszul rank; the integer multiple is each
        # f_i's primitive part
        F = random_parametrization(random.Random(seed), e)
        G = Parametrization.from_polys(f * c for f, c in zip(F.polys, own))
        for f in complexes._integer_multiple(G).polys:
            assert all(type(c) is int for c in f.terms.values())
            assert f.content() == 1 and f.terms[max(f.terms)] > 0
        nu = suggested_nu(e)
        below = nu - (Bidegree(1, 0) if nu.d1 else Bidegree(0, 1))
        H = Parametrization.from_polys(f * common for f in F.polys)
        for mu in (nu, below):
            M = build_matrix(F, mu)
            dims = complex_summary(F, M).dims
            assert build_matrix(H, mu).entries == M.entries
            assert complex_summary(H, M).dims == dims
            assert complex_summary(G, build_matrix(G, mu)).dims == dims

    def test_large_k1_slice_never_built(self, monkeypatch):
        # the point map at nu=(0,0): K2 misses the closed-form bound, and
        # K2 has 16 x 6 cells, K1 at nu+2d 9 x 16, so the K1 bound is
        # skipped and exact_rank decides
        F = Parametrization.from_polys(
            parse_poly(t) for t in DEFECT_MAPS["point"][0]
        )
        M = build_matrix(F, (0, 0))
        built = _counting(monkeypatch, "koszul_slice")
        fallbacks = _counting(monkeypatch, "exact_rank")
        assert complex_summary(F, M).dims == (1, 3, 3, 1)
        assert [(p, tuple(mu)) for _, p, mu in built] == [(2, (2, 2))]
        assert len(fallbacks) == 1

    @pytest.mark.parametrize(
        "name, nu, dims, slices",
        [
            # K2 misses the closed-form bound and meets the rank of K1 at
            # nu+2d
            ("golden", (5, 4), (30, 56, 34, 8), [(2, (9, 10)), (1, (9, 10))]),
            # K2 meets the closed-form bound
            ("rand22", (6, 4), (35, 77, 57, 15), [(2, (10, 8))]),
        ],
    )
    def test_strand_ranks_certified(self, monkeypatch, name, nu, dims, slices):
        # the two strands of perfbench's `strand` workload
        if name == "golden":
            F = Parametrization.from_polys(parse_poly(t) for t in GOLDEN_STRINGS)
        else:
            F = random_parametrization(random.Random(7), (2, 2))
        M = build_matrix(F, nu)
        built = _counting(monkeypatch, "koszul_slice")
        fallbacks = _counting(monkeypatch, "exact_rank")
        assert complex_summary(F, M).dims == dims
        assert [(p, tuple(mu)) for _, p, mu in built] == slices
        assert not fallbacks

    @pytest.mark.parametrize(
        "name, nu",
        [
            ("golden", (5, 4)),
            ("rand22", (6, 4)),
            ("segre", (5, 5)),
            ("line", (4, 4)),
            ("rand12", (2, 2)),
        ],
    )
    def test_slice_ranks_mod_p_are_exact(self, name, nu):
        # the K2 slice and the K1 slice at nu+2d that complex_summary ranks
        # mod p, on the pinned strands: both ranks are the ranks over Q
        doc = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        F = Parametrization.from_polys(parse_poly(t) for t in doc["polynomials"])
        F = complexes._integer_multiple(F)
        for k in (2, 1):
            K = koszul_slice(F, k, Bidegree(*nu) + 2 * F.bidegree).matrix
            p = next(prime_stream())
            assert rank_mod_p(residues(K.data, K.cols, p), p) == exact_rank(K)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        e=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        factor=st.sampled_from(COMMON_FACTORS),
        fractions=st.booleans(),
        seed=st.integers(0, 2**16),
        offset=st.tuples(st.integers(-2, 1), st.integers(-2, 1)),
    )
    def test_common_factor_dims(self, e, factor, fractions, seed, offset):
        # f_i = g * f'_i with g planted (the f'_i may share more); nu runs
        # from corner-2 to corner+1, clipped at 0, so that nu-d+delta and
        # nu-2d+delta reach negative components
        text, delta = factor
        d = Bidegree(*e)
        assume(d.dominates(Bidegree(*delta)))
        rng = random.Random(seed)
        g = parse_poly(text) if text else random_bipoly(rng, delta)
        polys = [g * random_bipoly(rng, d - Bidegree(*delta), density=0.6) for _ in range(4)]
        if fractions:
            polys = [f * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for f in polys]
        F = Parametrization.from_polys(polys)
        corner = suggested_nu(d)
        nu = Bidegree(max(corner.d1 + offset[0], 0), max(corner.d2 + offset[1], 0))
        M = build_matrix(F, nu)
        with mock.patch.object(complexes, "koszul_slice", wraps=koszul_slice) as built:
            dims = complex_summary(F, M).dims
        assert dims == _reference_dims(F, M)
        # no K3 slice, and K1 at nu+2d only where the rank of K2 mod p
        # misses K2's columns minus the rank of d3 at nu+2d
        degrees = [(call.args[1], tuple(call.args[2])) for call in built.call_args_list]
        assert all(p != 3 for p, _ in degrees)
        K2 = koszul_slice(complexes._integer_multiple(F), 2, nu + 2 * d).matrix
        K3 = koszul_slice(F, 3, nu + 2 * d).matrix
        closed_form = K2.cols - exact_rank(K3)
        p = next(prime_stream())
        missed = rank_mod_p(residues(K2.data, K2.cols, p), p) != closed_form
        k1_fits = graded_basis(nu + 2 * d).dim <= K2.cols
        assert ((1, tuple(nu + 2 * d)) in degrees) == (missed and k1_fits)
