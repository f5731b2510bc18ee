from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, prod
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biimplicit import modnull
from biimplicit.modnull import (
    PANEL,
    ROW_CHUNK,
    _echelon_mod_p,
    _is_prime,
    _split_matmul_mod_p,
    crt_combine,
    det_mod_p,
    nullspace_mod_p,
    prime_stream,
    rank_mod_p,
    rational_reconstruct,
)
from biimplicit.linalg import QMatrix, exact_rank

from conftest import check_kept_rows, residues

PRIMES = (7, 101, 2**31 - 1)


def _sieve(n: int) -> list[bool]:
    flags = [True] * n
    flags[0] = flags[1] = False
    for i in range(2, isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(range(i * i, n, i))
    return flags


def _reference_nullspace(rows: list[list[int]], cols: int, p: int):
    """Pivots and canonical nullspace basis by Gauss-Jordan elimination over
    Z/p on Python ints."""
    M = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for j in range(len(M)):
            if j != r and M[j][c]:
                f = M[j][c]
                M[j] = [(a - f * b) % p for a, b in zip(M[j], M[r])]
        pivots.append(c)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = -M[i][fc] % p
        basis.append(vec)
    return pivots, basis


def _check_against_reference(rows: list[list[int]], cols: int, p: int) -> list:
    A = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    pivots, basis, kept = nullspace_mod_p(A, p)
    check_kept_rows(A, p, kept)
    ref_pivots, ref_basis = _reference_nullspace(rows, cols, p)
    assert pivots == ref_pivots
    assert [[int(x) for x in v] for v in basis] == ref_basis
    assert len(pivots) + len(basis) == cols
    for v in basis:
        for row in rows:
            assert sum(a * int(x) for a, x in zip(row, v)) % p == 0
    return basis


@st.composite
def matrices_mod_p(draw):
    p = draw(st.sampled_from(PRIMES))
    nrows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    rows: list[list[int]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "duplicate"]))
        if kind == "zero":
            rows.append([0] * cols)
        elif kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return rows, cols, p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices_mod_p())
def test_nullspace_agrees_with_gauss_jordan(case):
    rows, cols, p = case
    _check_against_reference(rows, cols, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices_mod_p(), st.integers(-2, 2))
def test_rank_mod_p_agrees_with_gauss_jordan(case, shift):
    # entries shifted by multiples of p, negative ones included, have the
    # same residues
    rows, cols, p = case
    shifted = [[x + shift * p for x in row] for row in rows]
    assert rank_mod_p(residues(shifted, cols, p), p) == len(_reference_nullspace(rows, cols, p)[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 9, -9]), min_size=n, max_size=n),
            max_size=9,
        ).map(lambda rows: (rows, n))
    ),
    st.booleans(),
)
def test_rank_mod_p_is_the_rank_over_q_for_small_entries(case, transpose):
    # with entries of size at most 9 and at most 6 columns (or rows) every
    # minor is below Hadamard's bound (9 * sqrt(6))^6 < 2^31 - 1, so no
    # nonzero minor vanishes mod p and the two ranks agree
    rows, cols = case
    if transpose:
        rows, cols = [list(c) for c in zip(*rows)] if rows else [], len(rows)
    rank = exact_rank(QMatrix(len(rows), cols, rows))
    assert rank_mod_p(residues(rows, cols, 2**31 - 1), 2**31 - 1) == rank


@st.composite
def rank_cases(draw):
    """Tall and wide matrices up to 40 x 40 with their residues mod p:
    dense or sparse random entries, or a planted low rank as the product of
    two random factors, with zero and duplicate rows mixed in."""
    p = draw(st.sampled_from(PRIMES))
    nrows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nrows, cols)))
        U = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
        V = [[rng.randrange(p) for _ in range(k)] for _ in range(cols)]
        rows = [[sum(u * v for u, v in zip(row, col)) % p for col in V] for row in U]
    else:
        density = draw(st.sampled_from([0.05, 0.3, 1.0]))
        rows = [
            [rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(nrows)
        ]
    for i in range(nrows):
        kind = rng.choice(["keep", "keep", "keep", "zero", "duplicate"])
        if kind == "zero":
            rows[i] = [0] * cols
        elif kind == "duplicate":
            rows[i] = list(rows[rng.randrange(nrows)])
    return rows, cols, p, rng


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rank_cases(), st.sampled_from(["none", "small", "huge"]))
def test_rank_mod_p_on_tall_and_wide_matrices(case, shift):
    # entries shifted by multiples of p, negative ones included; huge
    # shifts reach 2^70, past int64, and have the same residues
    rows, cols, p, rng = case
    k = {"none": 0, "small": 2, "huge": 2**70 // p}[shift]
    shifted = [[x + rng.randint(-k, k) * p for x in row] for row in rows]
    assert rank_mod_p(residues(shifted, cols, p), p) == len(_reference_nullspace(rows, cols, p)[0])


def test_rank_mod_p_is_a_lower_bound():
    # the determinant p of [[p, 1], [0, 1]] vanishes mod p only
    p = 2**31 - 1
    rows = [[p, 1], [0, 1]]
    assert exact_rank(QMatrix(2, 2, rows)) == 2
    assert rank_mod_p(residues(rows, 2, p), p) == 1
    assert rank_mod_p(residues([[3 * p**3, -(p**2)], [5, 0]], 2, p), p) == 1
    assert rank_mod_p(residues([[7 * p**3]], 1, p), p) == 0
    assert rank_mod_p(residues([], 0, p), p) == 0


def test_all_zero_matrix():
    A = np.zeros((3, 4), dtype=np.int64)
    pivots, basis, kept = nullspace_mod_p(A, 101)
    check_kept_rows(A, 101, kept)
    assert pivots == [] and kept == []
    assert [list(v) for v in basis] == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_large_entries_do_not_overflow():
    # entries just below 2^31 - 1: every product of two is close to 2^62
    p = 2**31 - 1
    rng = np.random.default_rng(7)
    A = p - 1 - rng.integers(0, 1000, size=(60, 60))
    A[58] = A[0]
    A[59] = A[1]
    assert len(_check_against_reference(A.tolist(), 60, p)) == 2


def _reference_echelon_mod_p(A: np.ndarray, p: int):
    """Row echelon form over Z/p pivot by pivot, with the rows of A its rows
    came from: each pivot is the first nonzero at or below the current row
    and clears the rows below it across the whole remaining width, reducing
    every entry after each pivot."""
    M = A.copy()
    rows, cols = M.shape
    order = list(range(rows))
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
            order[r], order[i] = order[i], order[r]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r, c:] = M[r, c:] * inv % p
        below = r + 1 + np.flatnonzero(M[r + 1 :, c])
        if below.size:
            M[below, c:] = (M[below, c:] - np.outer(M[below, c], M[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots, M[:r], order[:r]


def _check_against_reference_echelon(A: np.ndarray, p: int) -> list:
    """The panel elimination against the pivot-by-pivot reference: the same
    pivots, echelon rows and rows of A, and the same nullspace basis when the
    reference stands in for it inside `nullspace_mod_p`."""
    pivots, U, kept = _echelon_mod_p(A, p)
    ref_pivots, ref_U, ref_kept = _reference_echelon_mod_p(A, p)
    assert pivots == ref_pivots
    assert U.tolist() == ref_U.tolist()
    assert kept == ref_kept
    check_kept_rows(A, p, kept)
    got = nullspace_mod_p(A, p)
    with mock.patch.object(modnull, "_echelon_mod_p", _reference_echelon_mod_p):
        want = nullspace_mod_p(A, p)
    assert got[0] == want[0]
    assert [v.tolist() for v in got[1]] == [v.tolist() for v in want[1]]
    assert got[2] == want[2] == kept
    return got[1]


# panel boundaries and the sizes on either side of them
EDGES = [b + d for b in (PANEL, 2 * PANEL, 3 * PANEL) for d in (-1, 0, 1)]


@st.composite
def panel_matrices(draw):
    """Matrices of up to three full panels and a ragged fourth, drawn as a
    seed plus the structure imposed on the random entries."""
    p = draw(st.sampled_from(PRIMES))
    size = st.one_of(st.integers(0, 110), st.sampled_from(EDGES))
    nrows, cols = draw(size), draw(size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.one_of(st.none(), st.integers(0, 110), st.sampled_from(EDGES)))
    if rank is None:
        A = rng.integers(0, p, size=(nrows, cols))
    else:
        # rank at most `rank`; the small right factor keeps the product in int64
        left = rng.integers(0, p, size=(nrows, rank))
        A = left @ rng.integers(0, 4, size=(rank, cols)) % p
    # sparse rows force row swaps after earlier pivots of the same panel
    density = draw(st.sampled_from([1.0, 1.0, 0.3, 0.05]))
    A = A * (rng.random((nrows, cols)) < density)
    if cols > 2 and draw(st.booleans()):
        # a run of dependent columns across a panel boundary
        edge = draw(st.sampled_from([b for b in EDGES if 2 < b < cols] or [cols - 1]))
        first = max(1, edge - draw(st.integers(0, 4)))
        for c in range(first, min(edge + draw(st.integers(1, 4)), cols)):
            a, b = rng.integers(0, c, size=2)
            A[:, c] = (A[:, a] * int(rng.integers(0, p)) + A[:, b]) % p
    if draw(st.booleans()):
        # zero columns at the first and last column of each panel
        A[:, [c for c in range(cols) if c % PANEL in (0, PANEL - 1)]] = 0
    for _ in range(draw(st.integers(0, 3))):
        if nrows:
            A[rng.integers(0, nrows)] = 0
    for _ in range(draw(st.integers(0, 3))):
        if nrows:
            A[rng.integers(0, nrows)] = A[rng.integers(0, nrows)]
    return A.astype(np.int64).reshape(nrows, cols), p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(panel_matrices())
def test_panel_elimination_agrees_with_pivot_by_pivot(case):
    A, p = case
    _check_against_reference_echelon(A, p)


def test_split_matmul_at_its_limit():
    # 64 columns of p - 1 at p = 2^31 - 1: every partial sum of the split
    # products is just below 2^53
    p = 2**31 - 1
    L = np.full((3, 64), p - 1, dtype=np.int64)
    U = np.full((64, 5), p - 1, dtype=np.int64)
    assert _split_matmul_mod_p(L, U, p).tolist() == [[64 * (p - 1) ** 2 % p] * 5] * 3
    rng = np.random.default_rng(3)
    L = rng.integers(p - 1000, p, size=(40, 64))
    U = rng.integers(p - 1000, p, size=(64, 30))
    want = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in U.T] for row in L]
    assert _split_matmul_mod_p(L, U, p).tolist() == want


def test_large_entries_across_panels_and_row_chunks():
    # entries within 1000 of 2^31 - 1, over several panels and more than
    # one chunk of rows below the first panel
    p = 2**31 - 1
    rng = np.random.default_rng(11)
    A = p - 1 - rng.integers(0, 1000, size=(300, 260))
    A[:, 100] = A[:, 37]
    A[:, 259] = A[:, 200]
    assert A.shape[0] - PANEL > ROW_CHUNK and A.shape[1] > 3 * PANEL
    basis = _check_against_reference_echelon(A, p)
    assert len(basis) == 2
    for v in basis:
        assert not any(sum(int(a) * int(x) for a, x in zip(row, v)) % p for row in A)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.data())
def test_crt_and_rational_reconstruction_round_trip(k, data):
    moduli = [p for p, _ in zip(prime_stream(), range(k))]
    m = prod(moduli)
    bound = isqrt(m // 2)
    # Wang's bound: |num| and den up to isqrt(m/2), the extremes included
    num = data.draw(
        st.one_of(st.sampled_from([-bound, 0, bound]), st.integers(-bound, bound))
    )
    den = data.draw(st.one_of(st.just(bound), st.integers(1, bound)))
    residues = [num * pow(den, -1, q) % q for q in moduli]
    value, modulus = crt_combine(residues, moduli)
    assert modulus == m
    assert value == num * pow(den, -1, m) % m
    assert rational_reconstruct(value, modulus, bound, bound) == Fraction(num, den)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.data())
def test_rational_reconstruction_unbalanced_bounds(k, data):
    # any split of the room 2 * N * D < m between numerator and denominator,
    # the oracle's small denominators included; a/b round-trips for every
    # |a| <= N and b <= D, the extremes included
    m = prod(islice(prime_stream(), k))
    den_bound = data.draw(
        st.one_of(st.integers(1, 2**16), st.integers(1, (m - 1) // 2))
    )
    num_bound = (m - 1) // (2 * den_bound)
    assert 2 * num_bound * den_bound < m
    num = data.draw(
        st.one_of(
            st.sampled_from([-num_bound, 0, num_bound]),
            st.integers(-num_bound, num_bound),
        )
    )
    den = data.draw(st.one_of(st.just(den_bound), st.integers(1, den_bound)))
    assume(gcd(den, m) == 1)
    value = num * pow(den, -1, m) % m
    assert rational_reconstruct(value, m, num_bound, den_bound) == Fraction(num, den)


def test_is_prime_matches_sieve():
    flags = _sieve(10**5)
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n, is_p in enumerate(flags) if is_p
    ]


def test_is_prime_rejects_carmichael_numbers():
    for n in (561, 41041, 825265):
        assert not _is_prime(n)


def test_prime_stream():
    small = [n for n, is_p in enumerate(_sieve(isqrt(2**31) + 1)) if is_p]
    primes = [p for p, _ in zip(prime_stream(), range(40))]
    assert len(primes) == 40
    assert all(2**30 < p < 2**31 for p in primes)
    assert all(a > b for a, b in zip(primes, primes[1:]))
    for p in primes:
        assert all(p % q for q in small)


def test_prime_stream_matches_a_fresh_walk():
    fresh, n = [], 2**31 - 1
    while len(fresh) < 200:
        if _is_prime(n):
            fresh.append(n)
        n -= 2
    assert list(islice(prime_stream(), 200)) == fresh
    assert list(islice(prime_stream(), 200)) == fresh


def test_prime_stream_tests_each_number_once(monkeypatch):
    tested = []
    monkeypatch.setattr(modnull, "_is_prime", lambda n: tested.append(n) or _is_prime(n))
    known = len(modnull._PRIMES)
    first = list(islice(prime_stream(), known + 20))
    assert len(tested) == len(set(tested)) and min(tested) == first[-1]
    tested.clear()
    stream = prime_stream()
    assert list(islice(stream, known + 20)) == first
    assert tested == []
    next(stream)
    assert tested and max(tested) == first[-1] - 2


def _reference_det(rows: list[list[int]], p: int) -> int:
    """Determinant over Z/p by Gaussian elimination on Python ints."""
    M = [[x % p for x in row] for row in rows]
    det = 1
    for c in range(len(M)):
        i = next((i for i in range(c, len(M)) if M[i][c]), None)
        if i is None:
            return 0
        if i != c:
            M[c], M[i] = M[i], M[c]
            det = -det
        det = det * M[c][c] % p
        inv = pow(M[c][c], -1, p)
        for j in range(c + 1, len(M)):
            f = M[j][c] * inv % p
            M[j] = [(a - f * b) % p for a, b in zip(M[j], M[c])]
    return det % p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(PRIMES),
    st.integers(1, 7).flatmap(
        lambda m: st.lists(
            st.lists(
                st.lists(st.sampled_from([0, 0, 1, 2, -1, 2**31 - 2, 10**6]), min_size=m, max_size=m),
                min_size=m,
                max_size=m,
            ),
            min_size=1,
            max_size=6,
        )
    ),
    st.integers(1, 6),
)
def test_det_mod_p_agrees_with_gaussian_elimination(p, matrices, split):
    # zero entries force row swaps and singular matrices; the batch is cut
    # into two chunks
    A = np.array([[[x % p for x in row] for row in rows] for rows in matrices], dtype=np.int64)
    A = np.ascontiguousarray(A.transpose(1, 2, 0))
    got = det_mod_p([A[:, :, :split], A[:, :, split:]], p)
    assert [int(d) for d in got] == [_reference_det(rows, p) for rows in matrices]
    assert all(0 <= int(d) < p for d in got)


def test_det_mod_p_needs_no_headroom():
    # entries just below 2^31 - 1: every product stays below 2^62
    p = 2**31 - 1
    rng = np.random.default_rng(5)
    A = rng.integers(p - 1000, p, size=(20, 9, 9), dtype=np.int64)
    want = [_reference_det(m.tolist(), p) for m in A]
    assert det_mod_p([np.ascontiguousarray(A.transpose(1, 2, 0))], p).tolist() == want
