import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biimplicit.complexes import suggested_nu
from biimplicit.linalg import coeff_vector, exact_rank, graded_basis
from biimplicit.matrixrep import (
    AllZeroError,
    AmbiguousNullspaceError,
    LinTForm,
    MatrixRep,
    NoEquationError,
    RankDeficientError,
    bareiss_det,
    build_matrix,
    implicit_equation,
    interpolation_oracle,
    minor_determinants,
    rank_drop_check,
    reduce_equation,
    select_max_minor,
    verify_substitution,
)
from biimplicit.parser import parse_poly, parse_tpoly
from biimplicit.poly import Bidegree, BigradedPoly, Parametrization, TPoly, substitute_T

from conftest import random_bipoly, random_parametrization


def tp(text):
    return parse_tpoly(text)


def lin(c1=0, c2=0, c3=0, c4=0):
    return LinTForm((c1, c2, c3, c4))


@pytest.fixture(scope="module")
def golden_matrix(golden_F):
    return build_matrix(golden_F, (3, 2))


def naive_det(matrix) -> TPoly:
    """Permutation-expansion determinant; independent of Bareiss."""
    n = len(matrix)
    grid = [
        [e.to_tpoly() if isinstance(e, LinTForm) else e for e in row]
        for row in matrix
    ]
    total = TPoly.zero()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = TPoly.constant(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * grid[i][perm[i]]
        total = total + term
    return total


class TestLinTForm:
    def test_str(self):
        assert str(lin(2, Fraction(-1, 3), 0, 1)) == "2*T1 - 1/3*T2 + T4"
        assert str(lin()) == "0"

    def test_evaluate(self):
        assert lin(1, 2, 3, 4).evaluate((1, 1, 1, 1)) == 10
        assert lin(0, -1, 0, 1).evaluate((5, 7, 11, 7)) == 0

    def test_to_tpoly(self):
        assert lin(1, 0, 0, -2).to_tpoly() == tp("T1-2*T4")


class TestBuildMatrix:
    def test_golden_shape(self, golden_matrix):
        assert (golden_matrix.rows, golden_matrix.cols) == (12, 12)
        assert all(
            isinstance(e, LinTForm) for row in golden_matrix.entries for e in row
        )

    def test_golden_alternative_shape(self, golden_F):
        M = build_matrix(golden_F, (1, 5))
        assert (M.rows, M.cols) == (12, 12)

    def test_entry_formula(self, golden_matrix, golden_F):
        # entry (m, j) must collect the coefficient of monomial m in each
        # component of syzygy column j
        basis = golden_matrix.row_basis
        for j, column in enumerate(golden_matrix.syzygies.columns):
            vecs = [coeff_vector(a, basis) for a in column]
            for r in range(basis.dim):
                assert golden_matrix.entries[r][j].coefficients == tuple(
                    vecs[i][r] for i in range(4)
                )

    def test_single_component_column(self):
        # a column supported in one component contributes only that T variable
        v = parse_poly("t+2*v")
        basis = graded_basis((0, 1))
        vec = coeff_vector(v, basis)
        column = [LinTForm((vec[r], 0, 0, 0)) for r in range(basis.dim)]
        assert [str(c) for c in column] == ["T1", "2*T1"]


class TestSelectMaxMinor:
    def test_golden_full_square(self, golden_matrix):
        assert select_max_minor(golden_matrix, seed=0) == list(range(12))

    def test_duplicate_column_not_selected_twice(self):
        entries = (
            (lin(c1=1), lin(c1=1), lin(c2=1)),
            (lin(c3=1), lin(c3=1), lin(c4=1)),
        )
        M = MatrixRep(
            nu=Bidegree(0, 0),
            row_basis=graded_basis((0, 0)),
            syzygies=None,
            entries=entries,
        )
        cols = select_max_minor(M, seed=1)
        assert len(cols) == len(set(cols)) == 2
        assert cols == [0, 2]
        assert not bareiss_det(M.submatrix(cols)).is_zero()

    def test_zero_matrix(self):
        entries = ((lin(), lin()), (lin(), lin()))
        M = MatrixRep(
            nu=Bidegree(0, 0),
            row_basis=graded_basis((0, 0)),
            syzygies=None,
            entries=entries,
        )
        with pytest.raises(RankDeficientError):
            select_max_minor(M, seed=0)

    def test_rank_deficient_rectangular(self):
        # two proportional rows: symbolic rank 1 < 2 rows
        entries = (
            (lin(c1=1), lin(c2=1)),
            (lin(c1=2), lin(c2=2)),
        )
        M = MatrixRep(
            nu=Bidegree(0, 0),
            row_basis=graded_basis((0, 0)),
            syzygies=None,
            entries=entries,
        )
        with pytest.raises(RankDeficientError):
            select_max_minor(M, seed=0)


class TestBareissDet:
    def test_one_by_one(self):
        assert bareiss_det([[tp("T1")]]) == tp("T1")

    def test_two_by_two(self):
        M = [[lin(c1=1), lin(c2=1)], [lin(c3=1), lin(c4=1)]]
        assert bareiss_det(M) == tp("T1*T4-T2*T3")

    def test_singular(self):
        M = [[lin(c1=1), lin(c1=1)], [lin(c2=1), lin(c2=1)]]
        assert bareiss_det(M).is_zero()

    def test_fractional_entries(self):
        M = [
            [lin(c1=Fraction(1, 2)), lin(c2=Fraction(1, 3))],
            [lin(c3=3), lin(c4=5)],
        ]
        assert bareiss_det(M) == tp("T1*T4") * Fraction(5, 2) - tp("T2*T3")

    def test_matches_naive_expansion(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 4)
            M = [
                [
                    LinTForm(tuple(rng.randint(-4, 4) for _ in range(4)))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert bareiss_det(M) == naive_det(M)

    def test_homogeneity(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 4)
            M = [
                [
                    LinTForm(
                        tuple(
                            rng.randint(-5, 5) if rng.random() < 0.7 else 0
                            for _ in range(4)
                        )
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            det = bareiss_det(M)
            assert det.is_zero() or (
                det.is_homogeneous() and det.total_degree() == n
            )

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            bareiss_det([[tp("T1"), tp("T2")]])


class TestReduceEquation:
    def test_content_removal(self):
        assert reduce_equation([tp("2*T1*T4-2*T2*T3")]) == tp("T1*T4-T2*T3")

    def test_gcd_of_two(self):
        p = tp("T1+T2")
        q = tp("T3^2-T4^2")
        r = q + TPoly.constant(3)
        assert reduce_equation([p * q, p * r]) == p

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            reduce_equation([TPoly.zero(), TPoly.zero()])


_T_MONOMIALS = [
    (a, b, c, n - a - b - c)
    for n in range(4)
    for a in range(n + 1)
    for b in range(n - a + 1)
    for c in range(n - a - b + 1)
]


def tpolys(max_degree):
    """Random, usually non-homogeneous forms of degree <= max_degree."""
    monos = [m for m in _T_MONOMIALS if sum(m) <= max_degree]
    return st.dictionaries(
        st.sampled_from(monos), st.integers(-3, 3), max_size=4
    ).map(TPoly)


@st.composite
def random_maps(draw, unit_f4=False):
    """Random map of bidegree <= (2,2); with `unit_f4`, f4 = u^e1*v^e2."""
    e = Bidegree(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.3, 0.8]))  # sparse maps hit monomial maps
    polys = [random_bipoly(rng, e, density=density, bound=3) for _ in range(4)]
    if unit_f4:
        polys[3] = BigradedPoly.monomial((0, e.d1, 0, e.d2))
    return Parametrization.from_polys(polys)


@st.composite
def segre_type_maps(draw):
    """(g1*h1, g1*h2, g2*h1, g2*h2), on which T1*T4 - T2*T3 vanishes."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g_deg = Bidegree(draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    g1, g2 = (random_bipoly(rng, g_deg, bound=3) for _ in range(2))
    h1, h2 = (random_bipoly(rng, Bidegree(1, 1), bound=3) for _ in range(2))
    return Parametrization.from_polys((g1 * h1, g1 * h2, g2 * h1, g2 * h2))


@st.composite
def pipeline_cases(draw):
    """A random (1,1) map and the equation the pipeline computes for it."""
    F = random_parametrization(
        random.Random(draw(st.integers(0, 2**32))), Bidegree(1, 1)
    )
    M = build_matrix(F, suggested_nu((1, 1)))
    try:
        cols = select_max_minor(M, seed=0)
    except RankDeficientError:
        assume(False)
    return F, reduce_equation([bareiss_det(M.submatrix(cols))])


@st.composite
def verify_cases(draw):
    """(F, eq, expected): the known verdict, or None for an arbitrary form."""
    kind = draw(st.sampled_from(["random", "parts", "segre", "pipeline"]))
    if kind == "random":
        return draw(random_maps()), draw(tpolys(3)), None
    if kind == "parts":
        # f4 is 1 wherever u = v = 1, so c*(T4 - T4^2) vanishes there; it
        # vanishes on the image only for c = 0
        c = draw(tpolys(2))
        return draw(random_maps(unit_f4=True)), c * tp("T4-T4^2"), c.is_zero()
    if kind == "segre":
        F, H = draw(segre_type_maps()), tp("T1*T4-T2*T3")
    else:
        F, H = draw(pipeline_cases())
    eq = draw(tpolys(2)) * H
    if draw(st.booleans()):
        return F, eq + draw(tpolys(2)), None
    return F, eq, True


class TestVerifySubstitution:
    def test_single_variable_fails(self, golden_F):
        assert not verify_substitution(tp("T1"), golden_F)

    def test_zero_is_vacuously_true(self, golden_F):
        assert verify_substitution(TPoly.zero(), golden_F)

    def test_nonzero_constant_fails(self, segre_F):
        assert not verify_substitution(TPoly.constant(5), segre_F)

    def test_segre(self, segre_F):
        assert verify_substitution(tp("T1*T4-T2*T3"), segre_F)
        assert not verify_substitution(tp("T1*T4+T2*T3"), segre_F)

    def test_grid_reaches_the_degree_bound(self, segre_F):
        # T1(f) = s*t vanishes on every grid row or column short of the bound
        assert not verify_substitution(tp("T1"), segre_F)
        assert not verify_substitution(tp("T1^3"), segre_F)

    def test_parts_of_different_degree_checked_separately(self):
        # f1 = u*v is 1 wherever u = v = 1, so T1 - T1^2 vanishes on the
        # dehomogenized grid; its degree-1 part T1 does not vanish on the image
        F = Parametrization.from_polys(
            parse_poly(text) for text in ("u*v", "s*t", "s*v", "u*t")
        )
        assert not verify_substitution(tp("T1-T1^2"), F)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(verify_cases())
    def test_agrees_with_expansion(self, case):
        F, eq, expected = case
        verdict = verify_substitution(eq, F)
        assert verdict == substitute_T(eq, F.polys).is_zero()
        if expected is not None:
            assert verdict == expected


class TestRankDrop:
    def test_zeroed_column_drops_everywhere(self, golden_matrix, golden_F):
        entries = tuple(
            tuple(list(row[:-1]) + [lin()]) for row in golden_matrix.entries
        )
        M = MatrixRep(
            nu=golden_matrix.nu,
            row_basis=golden_matrix.row_basis,
            syzygies=golden_matrix.syzygies,
            entries=entries,
        )
        assert rank_drop_check(M, golden_F, trials=10, seed=0)

    def test_off_surface_point_full_rank(self, golden_matrix, golden_F):
        # independent oracle: a T-point where the certified determinant does
        # not vanish must give a full-rank evaluation
        cols, det = _golden_det(golden_matrix)
        rng = random.Random(99)
        while True:
            tau = [rng.randint(-10, 10) for _ in range(4)]
            if det.evaluate(tau) != 0:
                break
        numeric = M_eval(golden_matrix, tau)
        assert exact_rank(numeric) == 12


def _golden_det(golden_matrix):
    from biimplicit.matrixrep import _certified_minor

    return _certified_minor(golden_matrix, 0)


def M_eval(M, tau):
    return M.evaluate(tau)


class TestInterpolationOracle:
    def test_segre_quadric(self, segre_F):
        assert interpolation_oracle(segre_F, 2, seed=5) == tp("T1*T4-T2*T3")

    def test_degree_too_small(self, golden_F):
        # independent check first: the degree-1 evaluation matrix has full
        # column rank, so no linear form vanishes on the image
        rng = random.Random(31)
        rows = []
        for _ in range(12):
            while True:
                pt = tuple(rng.randint(-10, 10) for _ in range(4))
                if (pt[0], pt[1]) != (0, 0) and (pt[2], pt[3]) != (0, 0):
                    break
            rows.append([f.evaluate(pt) for f in golden_F.polys])
        from biimplicit.linalg import QMatrix

        assert exact_rank(QMatrix.from_rows(rows)) == 4
        with pytest.raises(NoEquationError):
            interpolation_oracle(golden_F, 1, seed=31)

    def test_degree_too_large_segre(self, segre_F):
        # degree 3 forms vanishing on the quadric form a >1-dimensional space
        with pytest.raises(AmbiguousNullspaceError):
            interpolation_oracle(segre_F, 3, seed=7)

    def test_invalid_degree(self, segre_F):
        with pytest.raises(ValueError):
            interpolation_oracle(segre_F, 0)


class TestImplicitEquation:
    def test_segre(self, segre_F):
        M = build_matrix(segre_F, suggested_nu((1, 1)))
        result = implicit_equation(M, segre_F)
        assert result.equation == tp("T1*T4-T2*T3")
        assert result.degree == 2
        assert result.minor_columns == (0, 1)
        assert result.verified is True

    def test_rectangular_with_extra_minors(self):
        # duplicated first polynomial: image is the plane T1 = T2, matrix 2x3
        F = Parametrization.from_polys(
            parse_poly(t) for t in ("s*t", "s*t", "u*t", "u*v")
        )
        M = build_matrix(F, suggested_nu((1, 1)))
        assert (M.rows, M.cols) == (2, 3)
        result = implicit_equation(M, F, minors=3)
        assert result.verified is True
        # the gcd over distinct minors strips the extraneous factor
        assert result.equation == tp("T1-T2")

    def test_minor_determinants_dedupes(self, segre_F):
        M = build_matrix(segre_F, suggested_nu((1, 1)))
        cols, dets = minor_determinants(M, seed=0, count=4)
        assert cols == [0, 1]
        assert len(dets) == 1  # square matrix: only one maximal minor


class TestEndToEndSmall:
    def test_segre_pipeline(self, segre_F):
        nu = suggested_nu((1, 1))
        M = build_matrix(segre_F, nu)
        assert (M.rows, M.cols) == (2, 2)
        cols = select_max_minor(M, seed=0)
        eq = reduce_equation([bareiss_det(M.submatrix(cols))])
        assert eq == tp("T1*T4-T2*T3")
        assert verify_substitution(eq, segre_F)

    def test_good_region_square_matrix(self):
        # whenever the slice summary collapses (euler 0, no higher kernels)
        # the matrix at that degree is square of size dim S_nu
        rng = random.Random(55)
        from biimplicit.complexes import complex_summary
        from biimplicit.linalg import graded_basis

        checked = 0
        while checked < 10:
            F = random_parametrization(rng, Bidegree(1, 1))
            nu = suggested_nu((1, 1))
            summary = complex_summary(F, nu)
            h0, h1, h2, h3 = summary.dims
            if summary.euler != 0 or h2 or h3:
                continue
            M = build_matrix(F, nu)
            assert (M.rows, M.cols) == (graded_basis(nu).dim, graded_basis(nu).dim)
            checked += 1

    def test_random_surfaces_verify(self):
        from biimplicit.complexes import complex_summary

        rng = random.Random(44)
        checked = 0
        while checked < 3:
            F = random_parametrization(rng, Bidegree(1, 1))
            nu = suggested_nu((1, 1))
            M = build_matrix(F, nu)
            try:
                cols = select_max_minor(M, seed=checked)
            except RankDeficientError:
                continue
            det = bareiss_det(M.submatrix(cols))
            summary = complex_summary(F, nu)
            if summary.dims[2] == 0 and summary.dims[3] == 0 and M.rows == M.cols:
                # two-term slice: the raw determinant degree is predicted
                assert det.total_degree() == summary.macrae_degree
            eq = reduce_equation([det])
            assert verify_substitution(eq, F)
            checked += 1
