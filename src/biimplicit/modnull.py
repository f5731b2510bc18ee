"""Arithmetic modulo word-sized primes: the nullspace of a matrix over a
prime field (forward elimination to row echelon form, then back
substitution) behind the interpolation cross-check, determinants of batches
of matrices behind the minor determinants, division-free with all their
scalings inverted at once on a product tree (Montgomery's trick), exact
products mod p of any length on 16-bit halves, and Chinese remaindering,
all vectorized with numpy; rational reconstruction under separate numerator
and denominator bounds, so that the oracle recovers fractions with a small
denominator from a smaller modulus than Wang's balanced bounds need; and
the rank of an integer matrix mod p behind the Koszul-slice dimensions,
taken in place on the int64 residues a slice gives, pivot by pivot, each
pivot updating only the rows that are nonzero in its column.  On the
slices of a strand, a few hundred rows and columns with most entries zero,
that is about twice as fast as the panels below, whose products only pay
off on larger, denser matrices.

The forward elimination takes the columns in panels.  Only a panel's top
block of rows is eliminated pivot by pivot, in the panel's columns, with
its multipliers recorded; the rows below the block take all of theirs in
one product with the inverse of the block's unit upper-triangular factor
U11, unless one of them would have been the first nonzero of a column,
and then the whole panel goes pivot by pivot.  The rest of the matrix
catches up once per panel, the pivot rows through one product with the
inverse of the panel's k x k lower-triangular factor L11 and the rows
below them through one product L21 @ U12 mod p.  Each product runs as two
float64 BLAS products on 16-bit halves of its left factor, whose partial
sums stay below 2^53 and so are exact, taken over chunks of rows to bound
the float temporaries.  This is the delayed reduction of Dumas, Giorgi and
Pernet (FFLAS-FFPACK, ACM TOMS 2008); taking the first nonzero of each
column as pivot keeps the column rank profile (Jeannerod, Pernet and
Storjohann, J. Symb. Comput. 2013), so the pivots and echelon rows are
those of elimination pivot by pivot.  The rows of the matrix that the
echelon rows came from are reported too.

Callers stay exact: the interpolation oracle certifies every answer with
integer arithmetic, so a bad prime can cost time but never correctness; the
determinant takes primes until their product exceeds a proven bound on
the coefficients it reconstructs; and a rank mod p, never more than the
rank over Q, is kept only where it meets an upper bound on that rank.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes below 2^31 found so far, descending; every stream reads this
# one table and extends it, so no number is tested twice in a process
_PRIMES = [2**31 - 1]


def prime_stream():
    """Deterministic stream of distinct primes descending from 2^31 - 1;
    squares of these fit comfortably in int64."""
    for i in itertools.count():
        if i == len(_PRIMES):
            n = _PRIMES[-1] - 2
            while not _is_prime(n):
                n -= 2
            _PRIMES.append(n)
        yield _PRIMES[i]


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank over Z/p, p < 2^31, of a 2-d int64 array of residues in [0, p),
    such as a Koszul slice's `residues(p)`; at most the rank over Q of the
    integer matrix they came from.  A may be overwritten, as `det_mod_p`
    overwrites its chunks.

    A matrix with more rows than columns is ranked as its transpose.  Each
    column then takes its first nonzero at or below the current row as
    pivot, clears the rows below that are nonzero there with one outer
    product, and moves the row it displaces into the pivot's place; the
    pivot row itself is not needed again.  Entries stay in [0, p), so every
    product stays below 2^62, and the loop ends once every row has a pivot.
    """
    n, cols = A.shape
    if n > cols:
        A = np.ascontiguousarray(A.T)
        n, cols = cols, n
    r = 0
    for c in range(cols):
        if r == n:
            break
        nz = A[r:, c].nonzero()[0]
        if not len(nz):
            continue
        i = r + nz[0]
        if len(nz) > 1:
            below = r + nz[1:]
            f = A[below, c] * pow(int(A[i, c]), -1, p) % p
            block = A[below, c + 1 :]
            block -= f[:, None] * A[i, c + 1 :]
            _reduce(block, p)
            A[below, c + 1 :] = block
        A[i] = A[r]
        r += 1
    return r


# Columns eliminated per panel; rows of a panel's top block, which takes the
# panel's pivots unless a row below it must take one; and rows per
# trailing-update product, which bounds the float64 temporaries.
PANEL = 32
TOP_ROWS = 2 * PANEL
ROW_CHUNK = 128


def _reduce(x: np.ndarray, p: int) -> None:
    """x mod p, in place, for an int64 array x, as x - (x // p) * p: numpy's
    floor division by a scalar is about four times as fast as its
    remainder, so on large arrays these three passes cost less than one
    `%`."""
    q = x // p
    q *= p
    x -= q


def _split_matmul(L: np.ndarray, Uf: np.ndarray, p: int) -> np.ndarray:
    """An int64 matrix congruent to L @ U mod p, with entries in
    [0, 2^47 + 2^53), for L an int64 matrix with entries in [0, p),
    p < 2^31, and at most 64 columns, and Uf = U as float64 with entries
    in [0, p): two float64 (BLAS) products.

    L is split into 16-bit halves, L = Lhi * 2^16 + Llo.  Each term of
    Lhi @ U and Llo @ U is below 2^16 * 2^31 = 2^47, so every partial sum of
    at most 64 terms stays below 2^53: both products are exact in any
    summation order, with or without fused multiply-add.  They are combined
    in int64 as (Lhi @ U mod p) * 2^16 + Llo @ U.
    """
    out = ((L >> 16).astype(np.float64) @ Uf).astype(np.int64)
    _reduce(out, p)
    out <<= 16
    out += ((L & 0xFFFF).astype(np.float64) @ Uf).astype(np.int64)
    return out


def _split_matmul_mod_p(L: np.ndarray, U: np.ndarray, p: int) -> np.ndarray:
    """L @ U mod p for int64 matrices with entries in [0, p), p < 2^31, by
    `_split_matmul` on each run of 64 columns of L: each run's product is
    below 2^54, so the sum of up to 2^9 runs stays in int64."""
    Uf = U.astype(np.float64)
    out = _split_matmul(L[:, :64], Uf[:64], p)
    for c in range(64, L.shape[1], 64):
        out += _split_matmul(L[:, c : c + 64], Uf[c : c + 64], p)
    _reduce(out, p)
    return out


def _echelon_mod_p(A: np.ndarray, p: int) -> tuple[list[int], np.ndarray, list[int]]:
    """Row echelon form of an int64 matrix over Z/p with unit pivots.

    Returns (pivot column indices, the nonzero rows U of the echelon form,
    the rows of A they came from, whose own echelon form is U): the rows
    and pivots of pivot-by-pivot elimination in which each pivot is the
    first nonzero at or below the current row and clears only the rows
    below it, from its column rightwards.  The pivots are the column rank
    profile, the ones Gauss-Jordan elimination would pick.  Entries of A
    must already lie in [0, p), so every product stays below 2^62.

    The columns are taken in panels of PANEL, c0 <= c < c1, starting at row
    r0.  Only the panel's top block, its first TOP_ROWS rows from r0 down
    (to their left, M is zero there), is eliminated pivot by pivot, by
    `_panel_echelon`; a row that is zero in a pivot column sinks inside the
    block, whose row order then reaches M's trailing columns and the row
    order once per panel.  The rows below the block take their multipliers
    all at once, L21 = A21 @ U11^-1 mod p by `_lower_multipliers`, and
    become zero in the panel's columns.  That is pivot-by-pivot elimination
    unless a row below the block is nonzero in a column where the block has
    no pivot, the one case in which a row below would have been the first
    nonzero; the whole panel is then eliminated pivot by pivot instead.
    The trailing columns catch up: the k pivot rows by one product with
    the inverse of their lower-triangular factor L11, and the rows below
    them all at once, M[r:, c1:] -= L21 @ U12 mod p, as one exact
    `_split_matmul` product per ROW_CHUNK rows on U12 converted to float64
    once per panel, with one reduction mod p after the subtraction.
    """
    M = A.copy()
    rows, cols = M.shape
    order = np.arange(rows)
    pivots: list[int] = []
    r = 0
    for c0 in range(0, cols, PANEL):
        if r >= rows:
            break
        c1 = min(c0 + PANEL, cols)
        r0 = r
        top = min(rows - r0, TOP_ROWS)
        while True:
            P = M[r0 : r0 + top, c0:c1].copy()
            piv, d, perm = _panel_echelon(P, p)
            k = len(piv)
            L = np.tril(P[:, piv], -1)
            P[:, piv] -= L
            L21 = _lower_multipliers(M[r0 + top :, c0:c1], P[:k], piv, p)
            if L21 is not None:
                break
            top = rows - r0
        M[r0 : r0 + top, c0:c1] = P
        M[r0 + top :, c0:c1] = 0
        M[r0 : r0 + top, c1:] = M[r0 : r0 + top, c1:][perm]
        order[r0 : r0 + top] = order[r0 : r0 + top][perm]
        pivots += [c0 + c for c in piv]
        r = r0 + k
        if k == 0 or c1 == cols:
            continue
        U = M[r0:r, c1:]
        U[:] = _split_matmul_mod_p(_lower_inverse_mod_p(L[:k], d, p), U, p)
        Uf = U.astype(np.float64)
        L21 = np.concatenate([L[k:], L21])
        for i in range(r, rows, ROW_CHUNK):
            block = M[i : i + ROW_CHUNK, c1:]
            block -= _split_matmul(L21[i - r : i - r + ROW_CHUNK], Uf, p)
            _reduce(block, p)
    return pivots, M[:r], order[:r].tolist()


def _panel_echelon(P: np.ndarray, p: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Pivot-by-pivot elimination, in place, of a panel's rows P in the
    panel's columns: each column takes the first nonzero at or below the
    current row k as pivot, swaps it up, scales it to 1 and clears the rows
    below, which keep their multiplier in the pivot's column, as in LAPACK.
    Returns (the pivot columns, the pivots' inverses, the order of P's rows
    by their index at the start)."""
    perm = np.arange(len(P))
    piv: list[int] = []
    d: list[int] = []
    for c in range(P.shape[1]):
        k = len(piv)
        if k == len(P):
            break
        if not P[k, c]:
            nz = np.flatnonzero(P[k:, c])
            if nz.size == 0:
                continue
            i = k + int(nz[0])
            P[[k, i]] = P[[i, k]]
            perm[[k, i]] = perm[[i, k]]
        d.append(pow(int(P[k, c]), -1, p))
        P[k, c] = 1
        row = P[k, c + 1 :]
        row *= d[-1]
        row %= p
        rest = P[k + 1 :, c + 1 :]
        rest -= P[k + 1 :, c, None] * row
        rest %= p
        piv.append(c)
    return piv, np.array(d, dtype=np.int64), perm


def _lower_multipliers(A21: np.ndarray, U: np.ndarray, piv: list[int], p: int):
    """The multipliers L21 = A21[:, piv] @ U11^-1 mod p of the rows A21 below
    a panel's top block, one column per pivot, where U holds the block's k
    eliminated pivot rows in the panel's columns and U11 = U[:, piv] is unit
    upper triangular.  None if A21 - L21 @ U is nonzero, which it can only
    be in a column of the panel that is not in `piv`."""
    if not len(A21):
        return np.zeros((0, len(piv)), dtype=np.int64)
    U11 = U[:, piv]
    L21 = _split_matmul_mod_p(A21[:, piv], _unipotent_inverse_mod_p(np.triu(U11, 1), p), p)
    free = [c for c in range(U.shape[1]) if c not in piv]
    if free and (_split_matmul_mod_p(L21, U[:, free], p) != A21[:, free]).any():
        return None
    return L21


def _lower_inverse_mod_p(L: np.ndarray, d: np.ndarray, p: int) -> np.ndarray:
    """L11^-1 mod p for a panel's k pivot rows, whose factor L11 has the
    multipliers L (k x k, strictly lower) below its diagonal and the pivots
    1 / d on it: with D = diag(d), L11 = (I + L D) D^-1, so
    L11^-1 = D (I + L D)^-1."""
    return _unipotent_inverse_mod_p(L * d % p, p) * d[:, None] % p


def _unipotent_inverse_mod_p(N: np.ndarray, p: int) -> np.ndarray:
    """(I + N)^-1 mod p for a strictly triangular k x k matrix N with
    entries in [0, p): since N^k = 0, it is (I - N)(I + N^2)(I + N^4)..."""
    k = len(N)
    S = -N % p
    X = np.eye(k, dtype=np.int64) + S
    span = 2
    while span < k:
        S = _split_matmul_mod_p(S, S, p)
        X += _split_matmul(X, S.astype(np.float64), p)
        X %= p
        span *= 2
    return X


def nullspace_mod_p(A: np.ndarray, p: int) -> tuple[list[int], list, list[int]]:
    """Pivot columns and the canonical basis of the nullspace of A over Z/p,
    one vector per free column, 1 there and 0 in the other free columns, and
    the rows of A the echelon form came from: A[rows] has the same pivots
    and nullspace.

    The pivot coordinates come from back substitution on the echelon form,
    for all free columns at once: `rhs` holds, row by row, the value the
    pivot variable of that row must take given the pivots solved so far.
    """
    pivots, U, rows = _echelon_mod_p(A, p)
    cols = A.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    X = np.zeros((cols, len(free)), dtype=np.int64)
    X[free, range(len(free))] = 1
    rhs = (-U[:, free]) % p
    for k in range(len(pivots) - 1, -1, -1):
        X[pivots[k]] = rhs[k]
        rhs[:k] = (rhs[:k] - np.outer(U[:k, pivots[k]], rhs[k])) % p
    return pivots, list(X.T), rows


def _inverse_mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the nonzero int64 residues x by Montgomery's trick
    on a product tree: x padded with 1 to a power of two, each level the
    products of pairs of the one below, one `pow` inverting the root, and a
    node's inverse times its sibling the inverse of its child."""
    pad = np.ones((1 << (len(x) - 1).bit_length()) - len(x), dtype=np.int64)
    tree = [np.concatenate([x, pad])]
    while len(tree[-1]) > 1:
        tree.append(tree[-1][0::2] * tree[-1][1::2] % p)
    inverse = np.array([pow(int(tree.pop()[0]), -1, p)], dtype=np.int64)
    for level in reversed(tree):
        inverse = (inverse[:, None] * level.reshape(-1, 2)[:, ::-1] % p).ravel()
    return inverse[: len(x)]


def det_mod_p(chunks, p: int) -> np.ndarray:
    """Determinants modulo the prime p < 2^31 of square int64 matrices,
    given in chunks, in input order.

    Each chunk A has shape (m, m, batch), one matrix per index of the last
    axis, and is overwritten; its entries must lie in [0, p), so every
    product stays below 2^62.  The elimination is division-free: step k
    swaps in the first row with a nonzero entry in column k when the pivot
    is zero, then replaces each row i below the pivot row by
    piv * row_i - a_ik * row_k, which multiplies the determinant by
    piv^(m-1-k).  With P_k the product of the first k + 1 pivots the
    determinant is +-P_(m-1) / (P_0 * ... * P_(m-2)), and the inverses of
    the scalings of all chunks, taken at once by `_inverse_mod_p`, undo
    them.  A zero pivot after the swap makes P_(m-1), and so the result,
    zero; such a matrix's zero scaling is taken as 1.
    """
    tops, bottoms, signs = [], [], []
    for A in chunks:
        m, _, batch = A.shape
        prefix = np.ones(batch, dtype=np.int64)
        scaling = np.ones(batch, dtype=np.int64)
        negate = np.zeros(batch, dtype=bool)
        for k in range(m):
            if not A[k, k].all():
                r = k + (A[k:, k] != 0).argmax(axis=0)
                swap = np.flatnonzero(r != k)
                held = A[k, :, swap]
                A[k, :, swap] = A[r[swap], :, swap]
                A[r[swap], :, swap] = held
                negate[swap] ^= True
            piv = A[k, k].copy()
            prefix = prefix * piv % p
            if k < m - 1:
                scaling = scaling * prefix % p
                rest = A[k + 1 :, k + 1 :]
                rest *= piv
                rest -= A[k + 1 :, k, None] * A[k, None, k + 1 :]
                _reduce(rest, p)
        tops.append(prefix)
        bottoms.append(scaling)
        signs.append(negate)
    det = np.concatenate(tops) * _inverse_mod_p(np.maximum(np.concatenate(bottoms), 1), p) % p
    return np.where(np.concatenate(signs) & (det != 0), p - det, det)


def crt_combine(residues, moduli) -> tuple[int, int]:
    """Combine residues into a single residue modulo the product.

    Each residue may also be an integer array (dtype object when the values
    outgrow int64) of one common shape; the combination is then elementwise.
    """
    value, modulus = 0, 1
    for r, m in zip(residues, moduli):
        # solve x = value (mod modulus), x = r (mod m)
        inv = pow(modulus % m, m - 2, m)
        t = ((r - value) * inv) % m
        value += modulus * t
        modulus *= m
    return value % modulus, modulus


def rational_reconstruct(
    a: int, m: int, num_bound: int, den_bound: int
) -> Fraction | None:
    """Rational number p/q with p = q*a (mod m), |p| <= num_bound and
    0 < q <= den_bound, if one exists.

    The extended Euclidean algorithm on (m, a) stops at the first remainder
    at most num_bound; when 2 * num_bound * den_bound < m, a fraction within
    the bounds is unique and is that remainder over its cofactor (von zur
    Gathen and Gerhard, Modern Computer Algebra, Thm. 5.26).  Both bounds
    sqrt(m/2) give Wang's balanced reconstruction; unbalanced ones trade
    numerator room for denominator room.
    """
    a %= m
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    p, q = r1, s1
    if q < 0:
        p, q = -p, -q
    if q == 0 or q > den_bound or gcd(q, m) != 1:
        return None
    if gcd(abs(p), q) != 1:
        return None
    return Fraction(p, q)
