import hashlib
import random
from fractions import Fraction
from itertools import islice, permutations
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biimplicit import matrixrep
from biimplicit.cli import InputSpec, run_implicitize
from biimplicit.complexes import region, suggested_nu, syzygy_basis
from biimplicit.linalg import (
    QMatrix,
    exact_rank,
    graded_basis,
    independent_columns,
)
from biimplicit.matrixrep import (
    AllZeroError,
    AmbiguousNullspaceError,
    MatrixRep,
    VERIFY_CHUNK,
    NoEquationError,
    RankDeficientError,
    bareiss_det,
    build_matrix,
    interpolation_oracle,
    minor_determinants,
    rank_drop_check,
    reduce_equation,
    verify_substitution,
)
from biimplicit.modnull import prime_stream
from biimplicit.parser import parse_poly, parse_tpoly
from biimplicit.poly import (
    Bidegree,
    BigradedPoly,
    Parametrization,
    TPoly,
    rational_content,
    substitute_T,
)

from conftest import (
    GOLDEN_STRINGS,
    check_kept_rows,
    coefficient_rows,
    gram_det,
    lin,
    matrix_of,
    random_bipoly,
    random_parametrization,
    syzygy_columns,
)


def tp(text):
    return parse_tpoly(text)


@pytest.fixture(scope="module")
def golden_matrix(golden_F):
    return build_matrix(golden_F, (3, 2))


def minor_at(M, columns) -> list[list[tuple]]:
    """The square minor of M's rational coefficient rows at `columns`."""
    return [[row[j] for j in columns] for row in M.coefficients]


def naive_det(matrix) -> TPoly:
    """Permutation-expansion determinant; independent of Bareiss."""
    n = len(matrix)
    total = TPoly.zero()
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = TPoly.constant(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def _sympy_det(matrix) -> TPoly:
    """Determinant by sympy's matrices over QQ[T1..T4], independent of the
    package's arithmetic."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring, *T = sympy.ring("T1:5", sympy.QQ)
    rows = [
        [sum((c * t for c, t in zip(e, T)), ring.zero) for e in row]
        for row in coefficient_rows(matrix)
    ]
    det = DomainMatrix(rows, (len(rows), len(rows)), ring.to_domain()).det()
    return TPoly({m: Fraction(int(c.numerator), int(c.denominator)) for m, c in det.terms()})


@st.composite
def linear_matrices(draw):
    """Square matrices of linear forms, up to 7x7: dense, sparse, triangular
    (peeled to nothing), singular (a row combining two others), or with a
    zero row; rows may miss variables, coefficients may be Fractions, and
    rows and columns come in random order."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(0, 7))
    shape = draw(st.sampled_from(["dense", "sparse", "triangular", "singular", "zero_row"]))
    fractions = draw(st.booleans())

    def coeff():
        c = rng.randint(-6, 6)
        return Fraction(c, rng.randint(1, 5)) if fractions and c else c

    density = 1.0 if shape in ("dense", "singular") else 0.4
    rows = []
    for i in range(n):
        variables = rng.sample(range(4), rng.randint(1, 4))
        row = []
        for j in range(n):
            if shape == "triangular" and j < i:
                entry = (0, 0, 0, 0)
            elif rng.random() < density or (shape == "triangular" and j == i):
                entry = tuple(coeff() if t in variables else 0 for t in range(4))
                if shape == "triangular" and j == i and not any(entry):
                    entry = tuple(int(t == variables[0]) for t in range(4))
            else:
                entry = (0, 0, 0, 0)
            row.append(entry)
        rows.append(row)
    if shape == "singular" and n >= 2:
        a, b = coeff(), coeff()
        rows[-1] = [
            tuple(a * x + b * y for x, y in zip(e0, e1)) for e0, e1 in zip(rows[0], rows[1])
        ]
    if shape == "zero_row" and n:
        rows[rng.randrange(n)] = [(0, 0, 0, 0)] * n
    row_order, col_order = list(range(n)), list(range(n))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return [[lin(*rows[i][j]) for j in col_order] for i in row_order]


class TestBuildMatrix:
    def test_golden_shape(self, golden_matrix):
        assert (golden_matrix.rows, golden_matrix.cols) == (12, 12)
        assert all(
            isinstance(e, TPoly) and all(sum(mono) == 1 for mono in e.terms)
            for row in golden_matrix.entries
            for e in row
        )

    def test_golden_alternative_shape(self, golden_F):
        M = build_matrix(golden_F, (1, 5))
        assert (M.rows, M.cols) == (12, 12)

    @pytest.mark.parametrize("name", ["golden", "rand12", "segre"])
    def test_entry_formula(self, golden_F, segre_F, name):
        # entry (m, j) must collect the coefficient of monomial m in each
        # component of syzygy column j: golden is square, rand12 is 9x16
        # with Fraction coefficients and no column of content 1, and Segre
        # is 36x95 with mostly zero entries, which share one zero TPoly
        F, nu = {
            "golden": (golden_F, (3, 2)),
            "rand12": (random_parametrization(random.Random(7), (1, 2)), (2, 2)),
            "segre": (segre_F, (5, 5)),
        }[name]
        M = build_matrix(F, nu)
        vectors = syzygy_basis(F, nu)
        for j, column in enumerate(syzygy_columns(vectors, nu)):
            # the integer syzygy, and the exact entries it divided by its
            # free coordinate, its last nonzero one
            free = next(x for x in reversed(vectors[j]) if x)
            assert M.column_contents[j] == Fraction(1, free)
            for r, m in enumerate(M.row_basis):
                integers = tuple(a.coefficient(m) for a in column)
                coefficients = tuple(Fraction(c, free) for c in integers)
                assert M.integer_coefficients[r][j] == integers
                assert M.coefficients[r][j] == coefficients
                assert M.entries[r][j] == lin(*coefficients)
        zeros = [entry for row in M.entries for entry in row if entry.is_zero()]
        assert len({id(entry) for entry in zeros}) <= 1
        if name == "segre":
            assert 2 * len(zeros) > M.rows * M.cols
        if name == "rand12":
            assert (M.rows, M.cols) == (9, 16)
            assert all(
                rational_content(c for row in M.coefficients for c in row[j]) != 1
                for j in range(M.cols)
            )

    def test_single_component_column(self):
        # a column supported in one component contributes only that T variable
        v = parse_poly("t+2*v")
        column = [lin(v.coefficient(m)) for m in graded_basis((0, 1))]
        assert [str(c) for c in column] == ["T1", "2*T1"]


class TestSelectMaxMinor:
    def test_golden_full_square(self, golden_matrix):
        assert minor_determinants(golden_matrix, 0, 1)[0] == list(range(12))

    def test_duplicate_column_not_selected_twice(self):
        M = matrix_of(
            (
                (lin(c1=1), lin(c1=1), lin(c2=1)),
                (lin(c3=1), lin(c3=1), lin(c4=1)),
            )
        )
        cols = minor_determinants(M, 1, 1)[0]
        assert len(cols) == len(set(cols)) == 2
        assert cols == [0, 2]
        assert not bareiss_det(minor_at(M, cols)).is_zero()

    def test_zero_matrix(self):
        M = matrix_of(((lin(), lin()), (lin(), lin())))
        with pytest.raises(RankDeficientError):
            minor_determinants(M, 0, 1)

    def test_rank_deficient_square(self):
        # the second column is twice the first: the columns span one
        # dimension, so the square matrix has no nonsingular minor
        M = matrix_of(
            (
                (lin(c1=1), lin(c1=2)),
                (lin(c2=1), lin(c2=2)),
            )
        )
        with pytest.raises(RankDeficientError):
            minor_determinants(M, 0, 1)

    def test_rank_deficient_rectangular(self):
        # two proportional rows: symbolic rank 1 < 2 rows
        M = matrix_of(
            (
                (lin(c1=1), lin(c2=1)),
                (lin(c1=2), lin(c2=2)),
            )
        )
        with pytest.raises(RankDeficientError):
            minor_determinants(M, 0, 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([Bidegree(1, 1), Bidegree(1, 2), Bidegree(2, 1), Bidegree(2, 2)]),
        st.integers(0, 2**32),
        st.integers(0, 1),
        st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
        st.integers(0, 10**6),
        st.booleans(),
    )
    def test_proposals_are_nonsingular(self, e, map_seed, corner, offset, seed, shuffle):
        # minor_determinants takes a proposal's determinant without a zero
        # check: its columns are independent in M.evaluate at its point, so
        # the exact determinant of the minor is nonzero there; strands above
        # 12 rows take seconds per determinant
        F = random_parametrization(random.Random(map_seed), e)
        M = build_matrix(F, region(e)[corner] + Bidegree(*offset))
        assume(0 < M.rows < M.cols and M.rows <= 12)
        for columns in islice(matrixrep._proposals(M, seed, shuffle), 2):
            assert not bareiss_det(minor_at(M, columns)).is_zero()


class TestBareissDet:
    def test_one_by_one(self):
        assert bareiss_det([[(1, 0, 0, 0)]]) == tp("T1")

    def test_two_by_two(self):
        M = [[lin(c1=1), lin(c2=1)], [lin(c3=1), lin(c4=1)]]
        assert bareiss_det(coefficient_rows(M)) == tp("T1*T4-T2*T3")

    def test_singular(self):
        M = [[lin(c1=1), lin(c1=1)], [lin(c2=1), lin(c2=1)]]
        assert bareiss_det(coefficient_rows(M)).is_zero()

    def test_fractional_entries(self):
        M = [
            [lin(c1=Fraction(1, 2)), lin(c2=Fraction(1, 3))],
            [lin(c3=3), lin(c4=5)],
        ]
        assert bareiss_det(coefficient_rows(M)) == tp("T1*T4") * Fraction(5, 2) - tp("T2*T3")

    def test_matches_naive_expansion(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 4)
            M = [[lin(*(rng.randint(-4, 4) for _ in range(4))) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(coefficient_rows(M)) == naive_det(M)

    def test_homogeneity(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 4)
            M = [
                [
                    lin(*(rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(4)))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            det = bareiss_det(coefficient_rows(M))
            assert det.is_zero() or (
                det.is_homogeneous() and det.total_degree() == n
            )

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            bareiss_det([[(1, 0, 0, 0), (0, 1, 0, 0)]])

    @pytest.mark.parametrize(
        "entry",
        [tp("T1^2"), tp("T1+1"), tp("3"), tp("T1*T2"), tp("T1"), (1, 0, 0), [1, 0, 0, 0], None],
        ids=["T1^2", "T1+1", "3", "T1*T2", "T1", "3-tuple", "list", "None"],
    )
    def test_non_linear_entry_rejected(self, entry):
        # an entry is the 4-tuple of its coefficients; a TPoly, linear or
        # not, and any other shape are rejected
        with pytest.raises(ValueError):
            bareiss_det([[entry, (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)]])

    def test_peeled_sign(self):
        M = [[lin(), lin(), lin(c1=1)], [lin(), lin(c2=1), lin()], [lin(c3=1), lin(), lin()]]
        assert bareiss_det(coefficient_rows(M)) == -tp("T1*T2*T3")
        M = [[lin(c1=1), lin(c2=1), lin()], [lin(c3=1), lin(c4=1), lin()], [lin(), lin(), lin(c1=2)]]
        assert bareiss_det(coefficient_rows(M)) == tp("2*T1^2*T4-2*T1*T2*T3")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(linear_matrices())
    def test_agrees_with_reference(self, M):
        det = bareiss_det(coefficient_rows(M))
        assert det == (naive_det(M) if len(M) <= 4 else _sympy_det(M))
        assert det.is_zero() or (det.is_homogeneous() and det.total_degree() == len(M))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_coefficient_bound_is_tight(self, sign):
        # diag(c*T1, sign*c*T2) has the coefficient sign*c^2 = +-B, the bound
        # itself; c^2 lies between half the product of four primes and that
        # product, so the symmetric range needs the fifth prime.  bareiss_det
        # would peel a diagonal matrix, so the core goes in directly.
        from biimplicit.matrixrep import _core_det

        stream = prime_stream()
        four = prod(next(stream) for _ in range(4))
        c = isqrt(four // 2) + 1
        assert four // 2 < c * c < four and 2**61 < c < 2**62
        core = [[(c, 0, 0, 0), (0, 0, 0, 0)], [(0, 0, 0, 0), (0, sign * c, 0, 0)]]
        assert _core_det(core, 2) == TPoly({(1, 1, 0, 0): sign * c * c})

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.integers(-3, 3), st.integers(1, 5))
    def test_torus_bound_covers_exact_coefficients(self, rng, low, n):
        # entries of both signs, so that terms of the permutation expansion
        # cancel: the bound covers every coefficient of sympy's exact
        # determinant, the same in int64 and in Python integers, and is never
        # above prod_i sum_j ||a_ij||_1
        core = [[tuple(rng.randint(low, 3) for _ in range(4)) for _ in range(n)] for _ in range(n)]
        bound = matrixrep._torus_bound(np.array(core, dtype=object))
        assert bound == matrixrep._torus_bound(np.array(core, dtype=np.int64))
        det = _sympy_det([[lin(*e) for e in row] for row in core])
        assert all(abs(c) <= bound for c in det.terms.values())
        assert bound <= prod(sum(abs(c) for e in row for c in e) for row in core)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_interpolate_lower_set(self, rng, long_axis):
        # coefficients supported on a lower set come back exactly from their
        # values at the nodes alpha + 1, whatever the entries outside it hold;
        # an axis longer than 64 takes its products in runs of 64
        shape = [rng.randint(1, 40) for _ in range(3)]
        if long_axis:
            shape[rng.randrange(3)] = rng.randint(65, 80)
        n = rng.randint(0, sum(shape) - 3)
        inside = np.indices(shape).sum(axis=0) <= n
        draw = np.random.default_rng(rng.getrandbits(64))
        for p in islice(prime_stream(), 3):
            coefficients = np.zeros(shape, dtype=np.int64)
            coefficients[inside] = draw.integers(0, p, inside.sum())
            values = coefficients
            for axis, size in enumerate(shape):
                # the polynomial at the nodes 1..size along this axis
                V = np.array([[pow(x, k, p) for k in range(size)] for x in range(1, size + 1)])
                moved = np.moveaxis(values, axis, 0)
                out = np.zeros_like(moved)
                for k in range(size):
                    out = (out + V[:, k, None, None] * moved[k] % p) % p
                values = np.moveaxis(out, 0, axis)
            values[~inside] = draw.integers(0, p, (~inside).sum())
            assert np.array_equal(matrixrep._interpolate(values, inside, p), coefficients)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n", range(8, 19))
    def test_core_det_beyond_linear_matrices(self, n, dense, monkeypatch):
        # cores larger than linear_matrices() draws, with some rows missing
        # one or two variables so that the degree bounds are uneven; the
        # determinant is taken at exactly the lower set's nodes per prime
        rng = random.Random(1000 * n + dense)
        core = []
        for i in range(n):
            variables = rng.sample(range(4), rng.choice([4, 4, 3, 2]))
            row = []
            for j in range(n):
                entry = tuple(rng.randint(-6, 6) if t in variables else 0 for t in range(4))
                keep = dense or i == j or rng.random() < 0.3
                row.append(entry if keep else (0, 0, 0, 0))
            core.append(row)

        bounds = [
            min(
                sum(any(e[t] for e in row) for row in core),
                sum(any(row[j][t] for row in core) for j in range(n)),
            )
            for t in range(4)
        ]
        h = bounds.index(max(bounds))
        lower_set = sum(
            sum(alpha) <= n
            for alpha in np.ndindex(*(bounds[t] + 1 for t in range(4) if t != h))
        )
        batches = []
        real_det_mod_p = matrixrep.det_mod_p

        def counting_det_mod_p(chunks, p):
            chunks = list(chunks)
            batches.append(sum(A.shape[2] for A in chunks))
            return real_det_mod_p(chunks, p)

        monkeypatch.setattr(matrixrep, "det_mod_p", counting_det_mod_p)
        det = matrixrep._core_det(core, n)
        assert not det.is_zero()
        assert batches and all(size == lower_set for size in batches)
        for T in [(2, -3, 5, 7), (1, 4, -1, 3), (-5, 2, 3, -2)]:
            numeric = [
                [sum(c * x for c, x in zip(e, T)) for e in row] for row in core
            ]
            assert det.evaluate(T) == matrixrep._integer_det(numeric)


@pytest.mark.parametrize(
    "e, digest, primes",
    [
        ((3, 2), "33a1401e3eac3d5e39919ba2147e6214331a4b1a578a7c65ed06751a7f3dedc6", 5),
        ((3, 3), "788078965afa4ffa739aa0badad1046f5df7c22c096073fb1fb0b753ccfa1f35", 8),
    ],
    ids=["rand32", "rand33"],
)
def test_ladder_equation_pinned(e, digest, primes, monkeypatch):
    # the 12x12 and 18x18 square strands of the first (3,2) and (3,3) draws
    # at the default nu, pinned by the sha256 of the equation's text, and
    # the primes their one core's torus bound takes
    taken = []
    primes_above = matrixrep._primes_above
    monkeypatch.setattr(
        matrixrep, "_primes_above", lambda b: taken.append(primes_above(b)) or taken[-1]
    )
    F = random_parametrization(random.Random(7), e)
    report = run_implicitize(InputSpec(Bidegree(*e), tuple(str(f) for f in F.polys)))
    assert hashlib.sha256(str(report.equation).encode()).hexdigest() == digest
    assert [len(t) for t in taken] == [primes]


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
        cols = minor_determinants(M, 0, 1)[0]
    except RankDeficientError:
        assume(False)
    return F, reduce_equation([bareiss_det(minor_at(M, cols))])


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

    def test_part_that_vanishes_on_the_first_batch_only(self, segre_F):
        # Segre's image at (s, 1, t, 1) is (s*t, s, t, 1), so this degree-33
        # form gives s*(s-1)*...*(s-31): zero on the first 32 rows of the
        # 34 x 34 grid, more than one batch, and nonzero on the last two
        eq = lin(0, 0, 0, 1)
        for k in range(32):
            eq = eq * lin(0, 1, 0, -k)
        assert 32 * 34 > VERIFY_CHUNK
        assert not verify_substitution(eq, segre_F)

    def test_sparse_form_of_high_degree(self):
        # f1 = f2: T1^128 - T2^128 vanishes on the image, checked on a
        # 129 x 129 grid, 17 batches, at values of up to 1800 bits
        F = Parametrization.from_polys(
            parse_poly(text) for text in ("s*t+u*v", "s*t+u*v", "s*v", "u*t")
        )
        assert verify_substitution(tp("T1^128-T2^128"), F)
        assert not verify_substitution(tp("T1^128-T2^128+T3^64*T4^64"), F)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(verify_cases())
    def test_agrees_with_expansion(self, case):
        F, eq, expected = case
        verdict = verify_substitution(eq, F)
        assert verdict == substitute_T(eq, F.polys).is_zero()
        if expected is not None:
            assert verdict == expected


class TestMatrixEvaluate:
    @pytest.mark.parametrize("name, nu", [("golden", (5, 4)), ("rand22", (6, 4))])
    def test_strand_takes_no_rational_content(self, golden_F, monkeypatch, name, nu):
        # perfbench's two strands: K1's primitive integer nullspace vectors
        # are the matrix columns as they stand, so building the matrix,
        # evaluating it and minor_determinants' zero check take no content
        from biimplicit import linalg, poly

        F = golden_F if name == "golden" else random_parametrization(random.Random(7), (2, 2))
        calls = []
        for attribute in ("rational_content", "divide_content"):
            real = getattr(poly, attribute)

            def counted(*args, real=real, attribute=attribute):
                calls.append(attribute)
                return real(*args)

            for module in (poly, linalg, matrixrep):
                monkeypatch.setattr(module, attribute, counted)
        M = build_matrix(F, nu)
        assert M.rows < M.cols
        M.evaluate((2, -3, 5, 7))
        monkeypatch.setattr(matrixrep, "_proposals", lambda *args, **kwargs: iter(()))
        with pytest.raises(RankDeficientError, match="no nonsingular"):
            minor_determinants(M, 0, 1)
        assert calls == []

    @pytest.mark.parametrize("nu", [(3, 2), (4, 3)])
    def test_column_scaled_integers_keep_rank_and_columns(self, golden_F, nu):
        M = build_matrix(golden_F, nu)
        assert any(
            isinstance(c, Fraction) for row in M.entries for e in row for c in e.terms.values()
        )
        rng = random.Random(3)
        points = [[rng.randint(-10, 10) for _ in range(4)] for _ in range(4)]
        # image points, where the rank drops
        points += [[f.evaluate((2, -1, 3, 5)) for f in golden_F.polys]]
        scales = None
        for tau in points:
            exact_values = [[e.evaluate(tau) for e in row] for row in M.entries]
            reference = QMatrix(M.rows, M.cols, exact_values)
            numeric = M.evaluate(tau)
            assert all(type(x) is int for row in numeric.data for x in row)
            # each column is the exact column times one positive integer
            for j in range(M.cols):
                pairs = [(row[j], ref[j]) for row, ref in zip(numeric.data, exact_values)]
                ratios = {Fraction(a) / b for a, b in pairs if b}
                assert all(a == 0 for a, b in pairs if not b)
                assert len(ratios) <= 1 and all(r > 0 and r.denominator == 1 for r in ratios)
            assert exact_rank(numeric) == exact_rank(reference)
            order = list(range(M.cols))
            rng.shuffle(order)
            for scan in (None, order):
                assert independent_columns(numeric, scan) == independent_columns(
                    reference, scan
                )


class TestRankDrop:
    def test_zeroed_column_drops_everywhere(self, golden_matrix, golden_F):
        M = matrix_of(
            (list(row[:-1]) + [lin()] for row in golden_matrix.entries),
            golden_matrix.nu,
            golden_matrix.row_basis,
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


    def test_syzygy_rows_need_no_elimination(self, golden_matrix, golden_F, monkeypatch):
        # every trial is certified by the degree-nu monomial row at the
        # point, which is in the left kernel of M(F(p))
        calls = []
        monkeypatch.setattr(
            matrixrep, "exact_rank", lambda M: calls.append(M) or exact_rank(M)
        )
        assert rank_drop_check(golden_matrix, golden_F, trials=100, seed=3)
        assert calls == []

    @pytest.mark.parametrize("other", ["random", "swapped"])
    def test_other_map_decided_by_elimination(self, golden_matrix, golden_F, monkeypatch, other):
        # columns that are not syzygies of the map: a random (2,3) map,
        # whose image points give full rank, and golden with s and u
        # swapped, whose image points are golden's own, so the rank drops
        # but the monomial row at the sampled point is no witness; either
        # way the answer is that of exact_rank on every trial
        if other == "random":
            G = random_parametrization(random.Random(4), (2, 3))
        else:
            G = Parametrization.from_polys(
                BigradedPoly({(b, a, c, d): x for (a, b, c, d), x in f.terms.items()})
                for f in golden_F.polys
            )
        calls = []
        monkeypatch.setattr(
            matrixrep, "exact_rank", lambda M: calls.append(M) or exact_rank(M)
        )
        for seed in range(3):
            calls.clear()
            answer = rank_drop_check(golden_matrix, G, trials=4, seed=seed)
            assert answer == _rank_drop_by_elimination(golden_matrix, G, 4, seed)
            assert answer == (other == "swapped")
            # a point with s = +-u is its own swap, and its row a witness
            assert 1 <= len(calls) <= 4


def _rank_drop_by_elimination(M, F, trials, seed):
    """rank_drop_check with exact_rank on every trial, the same points."""
    rng = random.Random(seed)
    done = 0
    while done < trials:
        pt = matrixrep._sample_point(rng)
        values = [f.evaluate(pt) for f in F.polys]
        if not any(values):
            continue
        if exact_rank(M.evaluate(values)) >= M.rows:
            return False
        done += 1
    return True


def _golden_det(golden_matrix):
    cols, dets = minor_determinants(golden_matrix, 0, 1)
    return cols, dets[0]


def M_eval(M, tau):
    return M.evaluate(tau)


class TestInterpolationOracle:
    def test_segre_quadric(self, segre_F):
        assert interpolation_oracle(segre_F, 2, seed=5) == tp("T1*T4-T2*T3")

    def test_rational_coefficients(self):
        # (s*t/2, s*v, u*t, u*v/3): image points with Fractions are divided
        # by their rational content before they are reduced mod p
        F = Parametrization.from_polys(
            BigradedPoly({mono: c})
            for mono, c in (
                ((1, 0, 1, 0), Fraction(1, 2)),
                ((1, 0, 0, 1), 1),
                ((0, 1, 1, 0), 1),
                ((0, 1, 0, 1), Fraction(1, 3)),
            )
        )
        assert interpolation_oracle(F, 2) == tp("6*T1*T4-T2*T3")

    @pytest.mark.parametrize("c", [-6, Fraction(7, 3)])
    @pytest.mark.parametrize("name", ["segre", "rand11"])
    def test_scaled_map(self, segre_F, name, c):
        # c*F has the image of F scaled by c, the same surface in P3
        if name == "segre":
            F = segre_F
        else:
            F = random_parametrization(random.Random(7), (1, 1))
        scaled = Parametrization.from_polys(f * c for f in F.polys)
        assert interpolation_oracle(scaled, 2) == interpolation_oracle(F, 2)

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
        assert exact_rank(QMatrix(12, 4, rows)) == 4
        with pytest.raises(NoEquationError):
            interpolation_oracle(golden_F, 1, seed=31)

    def test_degree_too_large_segre(self, segre_F):
        # degree 3 forms vanishing on the quadric form a >1-dimensional space
        with pytest.raises(AmbiguousNullspaceError):
            interpolation_oracle(segre_F, 3, seed=7)

    def test_sample_larger_than_the_box(self, segre_F):
        # degree 45 needs C(48, 3) + 60 = 17356 samples; coordinates in
        # [-10, 10] give 128 points per P1 factor, 16384 in all
        assert matrixrep._box_points() == 128**2
        with pytest.raises(AmbiguousNullspaceError, match="16384"):
            interpolation_oracle(segre_F, 45)

    def test_box_exhausted_by_a_base_point(self, monkeypatch):
        # coordinates in [-2, 2] give 8 points per factor, 64 in all, and
        # degree 1 asks for exactly 64 samples; the base point (0, 1, 0, 1)
        # gives no image, so the box can never supply them
        monkeypatch.setattr(matrixrep, "RANDOM_COORD_BOUND", 2)
        F = Parametrization.from_polys(
            parse_poly(f) for f in ("s*t", "s*v", "u*t", "s*t+s*v")
        )
        with pytest.raises(AmbiguousNullspaceError, match="64"):
            interpolation_oracle(F, 1)

    def test_invalid_degree(self, segre_F):
        with pytest.raises(ValueError):
            interpolation_oracle(segre_F, 0)

    def test_sample_matrix_matches_exact_values(self):
        # coordinates that are zero, past int64 and within 2^20 of +-2^70;
        # each monomial is one product of a (T1, T2) and a (T3, T4) table
        # entry mod p
        images = [(3, -7, 0, 1), (-(10**30), 2**70, 5, -1), (2**31 - 2, 1, -1, 9)]
        rng = random.Random(3)
        images += [
            tuple(rng.choice((1, -1)) * (2**70 - rng.randrange(2**20)) for _ in range(4))
            for _ in range(4)
        ]
        for degree in (1, 3, 8, 12):
            monos = matrixrep._degree_monomials(degree)
            exponents = np.array(monos, dtype=np.intp)
            for p in (7, 101, 2**31 - 1):
                A = matrixrep._sample_matrix_mod_p(images, exponents, degree, p)
                assert A.tolist() == [
                    [t1**a * t2**b * t3**c * t4**d % p for a, b, c, d in monos]
                    for t1, t2, t3, t4 in images
                ]

    def test_wrong_reconstruction_is_never_returned(self, segre_F, monkeypatch):
        # every coordinate off by one: no candidate vanishes on the samples,
        # so the exact certificate must reject them all
        real = matrixrep.rational_reconstruct

        def off_by_one(a, m, num_bound, den_bound):
            f = real(a, m, num_bound, den_bound)
            return None if f is None else f + 1

        monkeypatch.setattr(matrixrep, "rational_reconstruct", off_by_one)
        with pytest.raises(AmbiguousNullspaceError):
            interpolation_oracle(segre_F, 2, seed=5)

    @pytest.mark.parametrize(
        "instance, degree, primes",
        [("golden", 12, 3), ((2, 2), 8, 4), ((1, 4), 8, 5), ("segre", 2, 1)],
    )
    def test_prime_use(self, golden_F, segre_F, monkeypatch, instance, degree, primes):
        # one nullspace per prime, and a reconstruction after every prime:
        # golden's 53-bit coefficients need a modulus of about 2^90, three
        # word primes, and rand22's 84 bits and rand14's 93 bits need four
        # and five; at one prime the bounds (numerator times denominator
        # about 2^10) still admit Segre's +-1 coefficients; a faster
        # elimination must not change these counts
        if instance == "golden":
            F = golden_F
        elif instance == "segre":
            F = segre_F
        else:
            F = random_parametrization(random.Random(7), instance)
        real = matrixrep.nullspace_mod_p
        calls = []

        def counting(A, p):
            calls.append(p)
            return real(A, p)

        monkeypatch.setattr(matrixrep, "nullspace_mod_p", counting)
        interpolation_oracle(F, degree, seed=0)
        assert len(calls) == primes

    @pytest.mark.parametrize("K, parent_primes", [(16, 8), (2**17, 16)])
    def test_scaled_coordinate(self, golden_F, monkeypatch, K, parent_primes):
        # T2 -> K*T2 multiplies each coefficient c_a by K^(12 - a2), so the
        # free column T4^12 and every lattice coordinate share a power of K
        # far above the 2^16 denominator bound; the balanced pass recovers
        # the rescaled equation with no more primes than Wang's
        # reconstruction at group sizes 4, 8, 16 and 32 needed
        f = golden_F.polys
        F = Parametrization.from_polys((f[0], f[1] * K, f[2], f[3]))
        E = interpolation_oracle(golden_F, 12)
        expected = TPoly({a: c * K ** (12 - a[1]) for a, c in E.terms.items()})
        real = matrixrep.nullspace_mod_p
        calls = []

        def counting(A, p):
            calls.append(p)
            return real(A, p)

        monkeypatch.setattr(matrixrep, "nullspace_mod_p", counting)
        assert interpolation_oracle(F, 12) == expected.primitive()
        assert len(calls) <= parent_primes

    @settings(max_examples=160, deadline=None, derandomize=True)
    @given(
        st.integers(1, 8),
        st.integers(1, 100),
        st.sampled_from([1, 8, 24, 2**17, 3 * 2**40]),
        st.integers(0, 3),
        st.data(),
    )
    def test_lattice_reconstruct_planted(self, k, bits, g, attempt, data):
        # golden-like forms: dense, with the free coordinate and about half
        # or three quarters of the others divisible by g, as golden's share
        # 8 or 24 with c_free (a change of coordinates Ti -> K*Ti shares
        # powers of K); they reach the reconstruction scaled by a unit mod
        # m, and a product of k primes is either enough or yields None,
        # never a wrong vector
        m = prod(islice(prime_stream(), k))
        entry = st.integers(-(2**bits), 2**bits).filter(bool)
        share = data.draw(st.sampled_from([2, 4]))
        c = [
            data.draw(entry) * (g if data.draw(st.integers(1, share)) > 1 else 1)
            for _ in range(data.draw(st.integers(8, 30)))
        ]
        free = len(c)
        c.append(g * data.draw(entry))
        content = gcd(*c)
        c = [x // content for x in c]
        assume(gcd(c[free], m) == 1)
        unit = data.draw(st.integers(1, m - 1).filter(lambda u: gcd(u, m) == 1))
        v = [unit * x % m for x in c]
        got = matrixrep._lattice_reconstruct(v, m, free, attempt)
        assert got in (None, c, [-x for x in c])
        # enough: m is at least 2^40 times the 4/3 power of the largest
        # entry, and either the lattice coordinates (the free one and three
        # others, rotated by the attempt) share at most a 16-bit factor, or
        # every entry is within the balanced bound sqrt(m / 2^21)
        lattice = [c[(3 * attempt + j) % free] for j in range(3)] + [c[free]]
        largest = max(abs(x) for x in c)
        B = largest.bit_length()
        if m.bit_length() >= B + 40 + B // 3 and (
            gcd(*lattice) <= 2**16 or largest <= isqrt((m >> 20) // 2)
        ):
            assert got is not None

    def test_unlucky_pivots_cost_one_prime(self, golden_F, monkeypatch):
        # the first prime's vector has other pivot columns, as an unlucky
        # prime's would: it forms a group of its own, and the next three
        # primes, on the rows it picked, reconstruct the equation
        expected = interpolation_oracle(golden_F, 12)
        real = matrixrep.nullspace_mod_p
        calls = []

        def shifted_first(A, p):
            calls.append(p)
            pivots, basis, rows = real(A, p)
            check_kept_rows(A, p, rows)
            if len(calls) == 1:
                pivots = [c + 1 for c in pivots]
            return pivots, basis, rows

        monkeypatch.setattr(matrixrep, "nullspace_mod_p", shifted_first)
        assert interpolation_oracle(golden_F, 12) == expected
        assert len(calls) == 4

    def test_two_fat_primes_grow_the_sample(self, golden_F, monkeypatch):
        # nullity 2 at the first two primes: the sample grows from
        # C(15, 3) + 60 = 515 to 515 + 227 = 742 points
        expected = interpolation_oracle(golden_F, 12)
        real = matrixrep.nullspace_mod_p
        rows = []

        def fat_first_two(A, p):
            rows.append(A.shape[0])
            pivots, basis, kept = real(A, p)
            check_kept_rows(A, p, kept)
            if len(rows) <= 2:
                basis = [basis[0], basis[0]]
            return pivots, basis, kept

        monkeypatch.setattr(matrixrep, "nullspace_mod_p", fat_first_two)
        assert interpolation_oracle(golden_F, 12) == expected
        assert rows[:3] == [515, 515, 742]

    def test_later_primes_use_the_picked_rows(self, golden_F, monkeypatch):
        # the first prime keeps the 454 rows of its echelon form, and the
        # other two primes of the round eliminate those rows only
        real = matrixrep.nullspace_mod_p
        shapes = []

        def counting(A, p):
            shapes.append(A.shape)
            return real(A, p)

        monkeypatch.setattr(matrixrep, "nullspace_mod_p", counting)
        interpolation_oracle(golden_F, 12, seed=0)
        assert shapes == [(515, 455), (454, 455), (454, 455)]

    def test_projective_point(self):
        assert matrixrep._projective_point((-2, -4, 3, -6)) == (1, 2, 1, -2)
        assert matrixrep._projective_point((0, -3, -5, 0)) == (0, 1, 1, 0)
        assert matrixrep._projective_point((7, -1, 0, 4)) == (7, -1, 0, 1)

    def test_samples_are_distinct_points(self, monkeypatch):
        # rand33 has 1140 degree-17 monomials; its first 1200 samples are
        # 1200 distinct points of P1 x P1, so one prime certifies that no
        # degree-17 form vanishes on them
        F = random_parametrization(random.Random(7), (3, 3))
        real = matrixrep.nullspace_mod_p
        shapes = []

        def counting(A, p):
            shapes.append(A.shape)
            return real(A, p)

        monkeypatch.setattr(matrixrep, "nullspace_mod_p", counting)
        with pytest.raises(NoEquationError):
            interpolation_oracle(F, 17, seed=0)
        assert shapes == [(1200, 1140)]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(1, 1), (1, 2), (2, 1)]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    )
    def test_agrees_with_pipeline(self, e, map_seed, oracle_seed):
        # An irreducible pipeline equation of degree 2*e1*e2 is the image's
        # equation H, the only form of its degree vanishing on the image, so
        # the oracle must find it.  A reducible one is H times base-point
        # factors (a (1,1) map with a base point has a plane as its image),
        # where the degree-2*e1*e2 forms through the image are not unique.
        sympy = pytest.importorskip("sympy")
        F = random_parametrization(random.Random(map_seed), e)
        spec = InputSpec(
            bidegree=Bidegree(*e), polynomials=tuple(str(f) for f in F.polys)
        )
        report = run_implicitize(spec)
        degree = 2 * e[0] * e[1]
        assume(report.equation_degree == degree)
        _, factors = sympy.Poly.from_dict(
            {m: int(c) for m, c in report.equation.terms.items()},
            sympy.symbols("T1:5"),
        ).factor_list()
        assume([k for _, k in factors] == [1])
        assert interpolation_oracle(F, degree, oracle_seed) == report.equation


class TestImplicitEquation:
    def test_segre(self, segre_F):
        M = build_matrix(segre_F, suggested_nu((1, 1)))
        cols, dets = minor_determinants(M, 0, 1)
        equation = reduce_equation(dets)
        assert equation == tp("T1*T4-T2*T3")
        assert equation.total_degree() == 2
        assert cols == [0, 1]
        assert verify_substitution(equation, segre_F) is True

    def test_rectangular_with_extra_minors(self):
        # duplicated first polynomial: image is the plane T1 = T2, matrix 2x3
        F = Parametrization.from_polys(
            parse_poly(t) for t in ("s*t", "s*t", "u*t", "u*v")
        )
        M = build_matrix(F, suggested_nu((1, 1)))
        assert (M.rows, M.cols) == (2, 3)
        _, dets = minor_determinants(M, 0, 3)
        equation = reduce_equation(dets)
        assert verify_substitution(equation, F) is True
        # the gcd over distinct minors strips the extraneous factor
        assert equation == tp("T1-T2")

    def test_gcd_of_three_minors_rand12(self):
        # rand12 at nu=(2,2): a 9x16 strand whose three minors have
        # determinants of degree 9 with a degree-4 gcd, the implicit equation
        F = random_parametrization(random.Random(7), (1, 2))
        spec = InputSpec(
            bidegree=Bidegree(1, 2),
            polynomials=tuple(str(f) for f in F.polys),
            nu=Bidegree(2, 2),
            minors=3,
        )
        report = run_implicitize(spec)
        assert report.equation_degree == 4
        assert report.equation == interpolation_oracle(F, 4)

    def test_minor_determinants_three_distinct(self):
        F = random_parametrization(random.Random(7), Bidegree(1, 1))
        M = build_matrix(F, (3, 1))
        assert M.rows < M.cols
        cols, dets = minor_determinants(M, seed=0, count=3)
        assert len(dets) == 3 and not any(d.is_zero() for d in dets)

        # minor i is the first full-size scan under seed 1000*i: its random
        # point is drawn first, then (for extra minors) the column order
        def scan(seed, shuffle):
            rng = random.Random(seed)
            while True:
                tau = [rng.randint(-10, 10) for _ in range(4)]
                order = list(range(M.cols))
                if shuffle:
                    rng.shuffle(order)
                chosen = independent_columns(M.evaluate(tau), order)
                if len(chosen) == M.rows:
                    return chosen

        column_sets = [scan(1000 * i, i > 0) for i in range(3)]
        assert cols == column_sets[0]
        assert len({tuple(c) for c in column_sets}) == 3
        # each determinant is taken on the minor's integer columns
        assert dets == [
            bareiss_det([[row[j] for j in c] for row in M.integer_coefficients])
            for c in column_sets
        ]

    def test_minor_determinants_dedupes(self, segre_F):
        M = build_matrix(segre_F, suggested_nu((1, 1)))
        cols, dets = minor_determinants(M, seed=0, count=4)
        assert cols == [0, 1]
        assert len(dets) == 1  # square matrix: only one maximal minor

    def test_square_matrix_draws_no_extra_proposals(self, segre_F, monkeypatch):
        M = build_matrix(segre_F, suggested_nu((1, 1)))
        assert M.rows == M.cols
        real = MatrixRep.evaluate
        calls = []

        def counting(self, values):
            calls.append(values)
            return real(self, values)

        monkeypatch.setattr(MatrixRep, "evaluate", counting)
        minor_determinants(M, seed=0, count=50)
        assert len(calls) == 0


def euclidean_kernel(A: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of ker_Z A by unimodular column operations on A stacked over
    the identity: each row is cleared to one pivot column by repeated
    division by its smallest entry, and the columns never used as a pivot
    end up zero on A; their identity parts are the basis."""
    m = len(A)
    cols = [[row[j] for row in A] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    active = list(range(ncols))
    for r in range(m):
        while True:
            nonzero = [j for j in active if cols[j][r]]
            if len(nonzero) <= 1:
                break
            p = min(nonzero, key=lambda j: abs(cols[j][r]))
            for j in nonzero:
                if j != p:
                    q = cols[j][r] // cols[p][r]
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[p])]
        if nonzero:
            active.remove(nonzero[0])
    assert all(not any(cols[j][:m]) for j in active)
    return [cols[j][m:] for j in active]


class TestLatticeBasis:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("e", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_reduced_basis_spans_the_integer_syzygies(self, e, seed):
        from biimplicit.complexes import koszul_slice

        F = random_parametrization(random.Random(seed), e)
        nu = suggested_nu(e)
        M = build_matrix(F, nu)
        n = M.rows
        basis = M._reduced_basis
        assert all(type(x) is int for v in basis for x in v)
        # coordinate 4*m + i of the basis is coordinate i*n + m of K1's source
        K1 = koszul_slice(F, 1, nu + F.bidegree).matrix
        syzygies = [[v[4 * m + i] for i in range(4) for m in range(n)] for v in basis]
        for v in syzygies:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in K1.data)
        kernel = euclidean_kernel(K1.data, K1.cols)
        assert len(kernel) == len(basis)
        assert gram_det(syzygies) == gram_det(kernel)
        if M.rows == M.cols:
            canonical = bareiss_det(M.coefficients)
            assert reduce_equation(minor_determinants(M, seed, 1)[1]) == canonical.primitive()

    def test_golden_bound_shrinks(self, monkeypatch):
        # the primes the determinant evaluates follow its coefficient bound:
        # 427 bits on the canonical columns, under 100 on the reduced basis
        bits = []
        primes_above = matrixrep._primes_above
        monkeypatch.setattr(
            matrixrep, "_primes_above", lambda b: bits.append(b) or primes_above(b)
        )
        spec = InputSpec(bidegree=Bidegree(2, 3), polynomials=GOLDEN_STRINGS, nu=Bidegree(3, 2))
        report = run_implicitize(spec, verify=False)
        assert report.equation.total_degree() == 12
        assert bits and max(bits) <= 100
        # the torus bound of the one 12 x 12 core takes two primes
        assert [len(primes_above(b)) for b in bits] == [2]


class TestEndToEndSmall:
    def test_segre_pipeline(self, segre_F):
        nu = suggested_nu((1, 1))
        M = build_matrix(segre_F, nu)
        assert (M.rows, M.cols) == (2, 2)
        cols = minor_determinants(M, 0, 1)[0]
        eq = reduce_equation([bareiss_det(minor_at(M, cols))])
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
            M = build_matrix(F, nu)
            summary = complex_summary(F, M)
            h0, h1, h2, h3 = summary.dims
            if summary.euler != 0 or h2 or h3:
                continue
            assert (M.rows, M.cols) == (len(graded_basis(nu)), len(graded_basis(nu)))
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
                cols = minor_determinants(M, checked, 1)[0]
            except RankDeficientError:
                continue
            det = bareiss_det(minor_at(M, cols))
            summary = complex_summary(F, M)
            if summary.dims[2] == 0 and summary.dims[3] == 0 and M.rows == M.cols:
                # two-term slice: the raw determinant degree is predicted
                assert det.total_degree() == summary.macrae_degree
            eq = reduce_equation([det])
            assert verify_substitution(eq, F)
            checked += 1
