import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biimplicit import linalg
from biimplicit.complexes import region
from biimplicit.linalg import (
    QMatrix,
    _integer_row,
    exact_rank,
    graded_basis,
    independent_columns,
    lll_reduce,
    multiplication_matrix,
    rref_nullspace,
    saturation,
)
from biimplicit.matrixrep import _integer_det, build_matrix
from biimplicit.parser import parse_poly
from biimplicit.poly import Bidegree, BigradedPoly, Parametrization
from biimplicit.poly import linear_form_rows

import reference_nullspace
from conftest import (
    golden_polys,
    gram_det,
    identity,
    lin,
    matvec,
    random_bipoly,
    random_parametrization,
)


class TestGradedBasis:
    def test_dimensions(self):
        assert len(graded_basis((3, 2))) == 12
        assert graded_basis((0, 0)) == ((0, 0, 0, 0),)
        assert len(graded_basis((5, 5))) == 36

    def test_negative_degree_is_empty(self):
        assert len(graded_basis((-1, 2))) == 0
        assert len(graded_basis((2, -3))) == 0

    def test_exhaustive_sizes(self):
        for a in range(9):
            for b in range(9):
                assert len(graded_basis((a, b))) == (a + 1) * (b + 1)

    def test_canonical_order(self):
        basis = graded_basis((1, 1))
        # descending lex on (a_s, a_u, a_t, a_v): st, sv, ut, uv
        assert basis == (
            (1, 0, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 0, 1),
        )
        assert list(basis) == sorted(basis, reverse=True)


class TestMultiplicationMatrix:
    def test_by_s_from_constants(self):
        M = multiplication_matrix(parse_poly("s"), (0, 0))
        assert (M.rows, M.cols) == (2, 1)
        # s is the first monomial of graded_basis((1, 0)), u the second
        assert [row[0] for row in M.data] == [1, 0]

    def test_golden_shape(self):
        M = multiplication_matrix(golden_polys()[0], (3, 2))
        assert (M.rows, M.cols) == (36, 12)

    def test_constant_gives_identity(self):
        M = multiplication_matrix(BigradedPoly.constant(1), (3, 2))
        assert M.data == identity(12).data

    def test_commutes_with_multiplication(self):
        rng = random.Random(9)
        for _ in range(25):
            src = Bidegree(rng.randint(0, 3), rng.randint(0, 3))
            fdeg = Bidegree(rng.randint(0, 2), rng.randint(0, 2))
            f = random_bipoly(rng, fdeg)
            M = multiplication_matrix(f, src)
            basis = graded_basis(src)
            target = graded_basis(src + fdeg)
            for j, mono in enumerate(basis):
                col = [M.data[i][j] for i in range(M.rows)]
                product = f * BigradedPoly.monomial(mono)
                assert col == [product.coefficient(m) for m in target]


def random_qmatrix(rng, rows, cols, lo=-9, hi=9, density=0.7):
    data = [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    return QMatrix(rows, cols, data)


def reference_integer_row(row) -> dict:
    """_integer_row by the lcm of the denominators, then the gcd."""
    entries = {j: x for j, x in enumerate(row) if x}
    den = lcm(*(x.denominator for x in entries.values()))
    out = {j: x.numerator * (den // x.denominator) for j, x in entries.items()}
    content = gcd(*out.values())
    return {j: x // content for j, x in out.items()} if content > 1 else out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.integers(-(2**100), 2**100)
        | st.fractions(max_denominator=2**100)
        | st.just(0),
        max_size=10,
    ),
    st.fractions(max_denominator=2**40).filter(bool),
)
def test_integer_row_matches_lcm_reference(row, scale):
    row = [x * scale for x in row]
    out = _integer_row(row)
    assert out == reference_integer_row(row)
    assert all(type(x) is int for x in out.values())


class TestRrefNullspace:
    def test_identity(self):
        rank, basis = rref_nullspace(identity(5))
        assert rank == 5
        assert basis == []

    def test_zero_matrix(self):
        rank, basis = rref_nullspace(QMatrix.zeros(3, 4))
        assert rank == 0
        assert len(basis) == 4
        for i, vec in enumerate(basis):
            expected = [0] * 4
            expected[i] = 1
            assert vec == expected

    def test_rank_one(self):
        M = QMatrix(2, 2, [[1, 1], [1, 1]])
        rank, basis = rref_nullspace(M)
        assert rank == 1
        assert basis == [[-1, 1]]

    def test_fractional_entries(self):
        M = QMatrix(1, 2, [[Fraction(1, 2), Fraction(1, 3)]])
        rank, basis = rref_nullspace(M)
        assert rank == 1
        assert basis == [[-2, 3]]
        # divided by its free coordinate, the canonical vector
        assert [Fraction(x, basis[0][1]) for x in basis[0]] == [Fraction(-2, 3), 1]
        assert matvec(M, basis[0]) == [0]

    def test_rank_nullity_and_kernel(self):
        rng = random.Random(3)
        for _ in range(100):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            M = random_qmatrix(rng, rows, cols)
            rank, basis = rref_nullspace(M)
            assert rank + len(basis) == cols
            for vec in basis:
                assert matvec(M, vec) == [0] * rows

    def test_canonical_free_coordinates(self):
        rng = random.Random(4)
        for _ in range(40):
            M = random_qmatrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            rank, basis = rref_nullspace(M)
            _, pivots = _pivots_of(M)
            free = [c for c in range(M.cols) if c not in pivots]
            assert len(basis) == len(free)
            for vec, fc in zip(basis, free):
                assert vec[fc] > 0
                for other in free:
                    if other != fc:
                        assert vec[other] == 0

    def test_empty_shapes(self):
        rank, basis = rref_nullspace(QMatrix.zeros(0, 3))
        assert rank == 0
        assert len(basis) == 3
        rank, basis = rref_nullspace(QMatrix.zeros(3, 0))
        assert (rank, basis) == (0, [])


def _pivots_of(M):
    from biimplicit.linalg import _rref

    return _rref(M.data, M.cols)


def test_exact_rank_matches_nullspace():
    rng = random.Random(8)
    for _ in range(30):
        M = random_qmatrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        rank, basis = rref_nullspace(M)
        assert exact_rank(M) == rank


entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.integers(-10**12, 10**12),
)


@st.composite
def rational_matrices(draw):
    """Matrices up to 8x8 over Q, empty shapes included, with zero rows and
    duplicated (possibly rescaled) rows mixed in."""
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    data = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy")))
        if kind == "zero":
            data[i] = [0] * cols
        elif kind == "copy" and i:
            scale = draw(st.sampled_from((1, -1, 3, Fraction(2, 5))))
            data[i] = [scale * x for x in data[draw(st.integers(0, i - 1))]]
    return QMatrix(rows, cols, data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rational_matrices())
def test_kernel_agrees_with_sympy_rref(M):
    sympy = pytest.importorskip("sympy")
    reduced, pivots = sympy.Matrix(
        M.rows, M.cols, [sympy.Rational(x.numerator, x.denominator) for row in M.data for x in row]
    ).rref()
    expected = []
    for fc in range(M.cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * M.cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            r = reduced[i, fc]
            vec[pc] = -Fraction(int(r.p), int(r.q))
        expected.append(vec)
    rank, basis = rref_nullspace(M)
    assert rank == len(pivots)
    assert exact_rank(M) == len(pivots)
    free = [c for c in range(M.cols) if c not in pivots]
    # each vector divided by its free coordinate is the canonical one
    assert [[Fraction(x, vec[fc]) for x in vec] for vec, fc in zip(basis, free)] == expected
    assert all(type(x) is int for vec in basis for x in vec)
    assert _pivots_of(M)[1] == list(pivots)


class TestIntegerNullspace:
    """rref_nullspace reads each kernel vector off the reduced integer rows
    as a primitive integer vector; the old canonical-rational function in
    tests/reference_nullspace.py is the reference for both it and the
    matrices and report entries built from it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rational_matrices())
    @example(QMatrix.zeros(0, 3))
    @example(QMatrix.zeros(3, 0))
    def test_primitive_multiples_of_the_canonical_vectors(self, M):
        rank, basis = rref_nullspace(M)
        reference_rank, reference = reference_nullspace.rref_nullspace(M)
        assert rank == reference_rank
        pivots = set(_pivots_of(M)[1])
        free = [c for c in range(M.cols) if c not in pivots]
        assert len(basis) == len(reference) == len(free)
        for vec, canonical, fc in zip(basis, reference, free):
            assert all(type(x) is int for x in vec)
            assert gcd(*vec) == 1 and vec[fc] > 0
            assert vec == [vec[fc] * x for x in canonical]
            assert max(c for c, x in enumerate(vec) if x) == fc

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(0, 2**32),
        st.sampled_from([1, 1, Fraction(2, 3), Fraction(-7, 5)]),
    )
    def test_matrix_and_report_entries_match_the_reference(self, bidegree, nu, seed, scale):
        # f1 times `scale`: a rational map's K1 slice has Fraction rows
        F = random_parametrization(random.Random(seed), bidegree)
        F = Parametrization.from_polys([F.polys[0] * scale, *F.polys[1:]])
        M = build_matrix(F, nu)
        reference = reference_nullspace.reference_coefficients(F, nu)
        assert repr(M.coefficients) == repr(reference)
        assert all(type(c) is int for row in M.integer_coefficients for e in row for c in e)
        assert linear_form_rows(M.integer_coefficients, M.column_contents) == [
            [str(lin(*e)) for e in row] for row in reference
        ]


@pytest.mark.parametrize("deficient", [False, True])
def test_dense_large_entries(deficient):
    """Coefficient growth: dense 40x40 integer matrices with entries up to
    10^6 in size, of full rank and of rank 39."""
    rng = random.Random(40)
    data = [[rng.randint(-10**6, 10**6) for _ in range(40)] for _ in range(40)]
    if deficient:
        # row 17 = row 4 - row 9, all three still within 10^6
        for i in (4, 9):
            data[i] = [rng.randint(-5 * 10**5, 5 * 10**5) for _ in range(40)]
        data[17] = [a - b for a, b in zip(data[4], data[9])]
    M = QMatrix(40, 40, data)
    rank, basis = rref_nullspace(M)
    assert rank == exact_rank(M) == (39 if deficient else 40)
    assert len(basis) == 40 - rank
    for vec in basis:
        assert matvec(M, vec) == [0] * 40


def greedy_independent_columns(M: QMatrix, order=None) -> list[int]:
    """Reference scan: keep each column that stays independent of the kept
    ones, by incremental elimination over Fraction, stopping once as many
    columns as rows are kept; returns the kept indices sorted."""
    reduced: list[tuple[int, list]] = []  # (pivot row, reduced column)
    chosen: list[int] = []
    for j in order if order is not None else range(M.cols):
        vec = [M.data[i][j] for i in range(M.rows)]
        for pivot_row, basis_vec in reduced:
            f = vec[pivot_row]
            if f:
                vec = [a - f * b for a, b in zip(vec, basis_vec)]
        pivot_row = next((i for i, x in enumerate(vec) if x), None)
        if pivot_row is None:
            continue
        inv = Fraction(1) / Fraction(vec[pivot_row])
        reduced.append((pivot_row, [x * inv for x in vec]))
        chosen.append(j)
        if len(chosen) == M.rows:
            break
    return sorted(chosen)


@st.composite
def column_matrices(draw):
    """Matrices up to 6x9 over Q, empty, wide and tall shapes included, with
    zero columns, duplicated (possibly rescaled) columns and combinations of
    two earlier columns mixed in; and a scan order, default or shuffled."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 9))
    columns = []
    for j in range(cols):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "copy", "combine")))
        if kind == "zero":
            column = [0] * rows
        elif kind == "copy" and j:
            scale = draw(st.sampled_from((1, -1, 3, Fraction(2, 5))))
            column = [scale * x for x in columns[draw(st.integers(0, j - 1))]]
        elif kind == "combine" and j >= 2:
            a, b = draw(st.integers(-3, 3)), draw(st.fractions(-3, 3, max_denominator=4))
            first, second = (columns[draw(st.integers(0, j - 1))] for _ in range(2))
            column = [a * x + b * y for x, y in zip(first, second)]
        else:
            column = draw(st.lists(entries, min_size=rows, max_size=rows))
        columns.append(column)
    data = [[columns[j][i] for j in range(cols)] for i in range(rows)]
    order = draw(st.none() | st.permutations(range(cols)))
    return QMatrix(rows, cols, data), order


@settings(max_examples=300, deadline=None, derandomize=True)
@given(column_matrices())
def test_independent_columns_matches_greedy_scan(case):
    M, order = case
    chosen = independent_columns(M, order)
    assert chosen == greedy_independent_columns(M, order)
    assert len(chosen) == exact_rank(M)


def _det(rows) -> int:
    """Determinant of a square integer matrix by elimination over Q."""
    A = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(A)):
        p = next((r for r in range(c, len(A)) if A[r][c]), None)
        if p is None:
            return 0
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, len(A)):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return int(det)


def maximal_minor_gcd(vectors) -> int:
    """gcd of the k x k minors of the k x N matrix with the given rows."""
    g = 0
    for cols in combinations(range(len(vectors[0])), len(vectors)):
        g = gcd(g, _det([[v[c] for c in cols] for v in vectors]))
    return g


@st.composite
def integer_bases(draw):
    """k independent integer vectors of length n, k <= n <= 6, scaled by
    random integers so that the lattice they span is far from saturated."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    entries = st.integers(-30, 30)
    vectors = [[draw(entries) for _ in range(n)] for _ in range(k)]
    scales = [draw(st.integers(1, 12)) for _ in range(k)]
    vectors = [[x * c for x in v] for v, c in zip(vectors, scales)]
    assume(exact_rank(QMatrix(k, n, vectors)) == k)
    return vectors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_bases())
def test_saturation_is_every_integer_point_of_the_span(vectors):
    # an integral lattice in the span with the Gram determinant of the
    # saturation is the saturation, and the saturation's is Gram(L)/g^2,
    # g the gcd of L's maximal minors (Cauchy-Binet)
    basis = saturation(vectors)
    assert all(type(x) is int for v in basis for x in v)
    k = len(vectors)
    assert exact_rank(QMatrix(2 * k, len(vectors[0]), vectors + basis)) == k
    assert gram_det(basis) * maximal_minor_gcd(vectors) ** 2 == gram_det(vectors)


def test_saturation_small():
    assert saturation([[2, 4, 6]]) in ([[1, 2, 3]], [[-1, -2, -3]])
    assert gram_det(saturation([[2, 0, 0], [0, 3, 0]])) == 1
    assert saturation([[2, 4], [3, 6]]) in ([[1, 2]], [[-1, -2]])


def _strand_vectors(F, nu):
    """The integer columns of the strand at nu, each a vector with entry m
    at 4m..4m+3, as `MatrixRep._reduced_basis` hands them to saturation."""
    M = build_matrix(F, nu)
    return [[c for e in column for c in e] for column in zip(*M.integer_coefficients)]


def _rref_saturation(vectors):
    """saturation by the RREF of the vectors, as for a set without lone
    coordinates."""
    with mock.patch.object(linalg, "_lone_coordinates", lambda rows: None):
        return saturation(vectors)


def _coordinates(basis, targets):
    """The rational x with sum_j x_j * basis[j] = t for each target t, by
    Gauss-Jordan on the transposed system; the basis is independent."""
    k = len(basis)
    A = [
        [Fraction(x) for x in row] + [Fraction(t[i]) for t in targets]
        for i, row in enumerate(zip(*basis))
    ]
    for c in range(k):
        p = next(i for i in range(c, len(A)) if A[i][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for i in range(len(A)):
            f = A[i][c]
            if i != c and f:
                A[i] = [x - f * y if y else x for x, y in zip(A[i], A[c])]
    assert not any(x for row in A[k:] for x in row)
    return [[A[i][k + j] for i in range(k)] for j in range(len(targets))]


def _assert_same_lattice(a, b):
    """Equal Gram determinants, and each basis integral in the other."""
    gram = [[[sum(x * y for x, y in zip(u, v)) for v in B] for u in B] for B in (a, b)]
    assert _integer_det(gram[0]) == _integer_det(gram[1])
    for basis, targets in ((a, b), (b, a)):
        assert all(x.denominator == 1 for row in _coordinates(basis, targets) for x in row)


class TestSaturationPaths:
    """saturation takes each canonical nullspace vector's free coordinate as
    its pivot and skips the RREF; the lattice must be the RREF path's."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.integers(0, 1),
        st.integers(0, 2**32),
    )
    def test_random_strands(self, e, corner, seed):
        F = random_parametrization(random.Random(seed), e)
        vectors = _strand_vectors(F, region(e)[corner])
        with mock.patch.object(linalg, "_rref") as rref:
            basis = saturation(vectors)
        rref.assert_not_called()
        _assert_same_lattice(basis, _rref_saturation(vectors))

    def test_segre_at_nu55(self, segre_F):
        vectors = _strand_vectors(segre_F, (5, 5))
        assert len(vectors) == 95
        with mock.patch.object(linalg, "_rref") as rref:
            basis = saturation(vectors)
        rref.assert_not_called()
        _assert_same_lattice(basis, _rref_saturation(vectors))

    def test_without_lone_coordinates_takes_the_rref(self, monkeypatch):
        # the second vector is nonzero only where the first is, so it has no
        # coordinate of its own; the span is {(x, y, z): z = x + y}
        vectors = [[1, 1, 2], [1, -1, 0]]
        assert linalg._lone_coordinates([{0: 1, 1: 1, 2: 2}, {0: 1, 1: -1}]) is None
        rref = []
        real = linalg._rref
        monkeypatch.setattr(linalg, "_rref", lambda *args: rref.append(args) or real(*args))
        basis = saturation(vectors)
        assert len(rref) == 1
        _assert_same_lattice(basis, [[1, 0, 1], [0, 1, 1]])


def _gram_schmidt(vectors):
    """mu and the squared lengths |b*_i|^2, over Q."""
    star, mu = [], [[Fraction(0)] * len(vectors) for _ in vectors]
    for i, b in enumerate(vectors):
        v = [Fraction(x) for x in b]
        for j, w in enumerate(star):
            mu[i][j] = sum(x * y for x, y in zip(b, w)) / sum(y * y for y in w)
            v = [x - mu[i][j] * y for x, y in zip(v, w)]
        star.append(v)
    return mu, [sum(x * x for x in v) for v in star]


def _solve(columns, target):
    """The unique x with sum_j x_j * columns[j] = target; columns independent."""
    A = [[Fraction(col[i]) for col in columns] + [Fraction(t)] for i, t in enumerate(target)]
    k = len(columns)
    for c in range(k):
        p = next(i for i in range(c, len(A)) if A[i][c])
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for i in range(len(A)):
            if i != c and A[i][c]:
                A[i] = [x - A[i][c] * y for x, y in zip(A[i], A[c])]
    assert not any(row[-1] for row in A[k:])
    return [A[i][-1] for i in range(k)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(integer_bases())
def test_lll_reduce_is_a_reduced_basis_of_the_same_lattice(vectors):
    reduced = lll_reduce(vectors)
    k = len(vectors)
    assert gram_det(reduced) == gram_det(vectors)
    # every reduced vector is an integer combination of the input, so with
    # equal Gram determinants the two generate the same lattice
    for v in reduced:
        assert all(x.denominator == 1 for x in _solve(vectors, v))
    mu, norms = _gram_schmidt(reduced)
    for i in range(k):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        if i:
            assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]
