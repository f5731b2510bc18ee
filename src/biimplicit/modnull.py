"""Arithmetic modulo word-sized primes: the nullspace of a matrix over a
prime field (forward elimination to row echelon form, then back
substitution) behind the interpolation cross-check, determinants of batches
of matrices behind the minor determinants, and Chinese remaindering, all
vectorized with numpy; rational reconstruction under separate numerator
and denominator bounds, so that the oracle recovers fractions with a small
denominator from a smaller modulus than Wang's balanced bounds need; and
the rank of an integer matrix mod p behind the Koszul-slice dimensions,
taken in place on the int64 residues a slice gives, pivot by pivot, each
pivot updating only the rows that are nonzero in its column.  On the
slices of a strand, a few hundred rows and columns with most entries zero,
that is about twice as fast as the panels below, whose products only pay
off on larger, denser matrices.

The forward elimination takes the columns in panels.  Pivots inside a panel
touch only the panel's columns and record their multipliers; the rest of
the matrix then catches up once per panel, the pivot rows through one
product with the inverse of the panel's k x k lower-triangular factor L11
and the rows below them through one product L21 @ U12 mod p.  Each product
runs as two float64 BLAS products on 16-bit halves of its left factor,
whose partial sums stay below 2^53 and so are exact, taken over chunks of
rows to bound the float temporaries.  This is the delayed reduction of
Dumas, Giorgi and Pernet (FFLAS-FFPACK, ACM TOMS 2008); taking the first
nonzero of each column as pivot keeps the column rank profile, so the
pivots and echelon rows are those of elimination pivot by pivot.  The
rows of the matrix that the echelon rows came from are reported too.

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
            block %= p
            A[below, c + 1 :] = block
        A[i] = A[r]
        r += 1
    return r


# Columns eliminated per panel, and rows per trailing-update product; the
# chunk bounds the float64 temporaries of `_split_matmul_mod_p`.
PANEL = 32
ROW_CHUNK = 128


def _split_matmul_mod_p(L: np.ndarray, U: np.ndarray, p: int) -> np.ndarray:
    """L @ U mod p for int64 matrices with entries in [0, p), p < 2^31, and
    at most 64 columns in L, from two float64 (BLAS) products.

    L is split into 16-bit halves, L = Lhi * 2^16 + Llo.  Each term of
    Lhi @ U and Llo @ U is below 2^16 * 2^31 = 2^47, so every partial sum of
    at most 64 terms stays below 2^53: both products are exact in any
    summation order, with or without fused multiply-add.  They are combined
    in int64 as (Lhi @ U mod p) * 2^16 + Llo @ U < 2^47 + 2^53.
    """
    Uf = U.astype(np.float64)
    out = ((L >> 16).astype(np.float64) @ Uf).astype(np.int64)
    out %= p
    out <<= 16
    out += ((L & 0xFFFF).astype(np.float64) @ Uf).astype(np.int64)
    out %= p
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
    r0.  The panel's rows from r0 down are copied out (to their left, M is
    zero there) and eliminated in the panel's columns only: each pivot
    swaps rows, scales its row and clears the rows below.  The multiplier
    of every row it clears, and its own inverse on the pivot row, go into a
    rows x PANEL array L whose rows swap with the panel's and with M's
    trailing columns.  Those columns then catch up: the k pivot rows by one
    product with the inverse of their lower-triangular factor L11, and the
    rows below all at once, M[r:, c1:] -= L21 @ U12 mod p, as one exact
    `_split_matmul_mod_p` product per ROW_CHUNK rows.
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
        P = M[r0:, c0:c1].copy()
        L = np.zeros_like(P)
        k = 0
        for c in range(c1 - c0):
            if k == len(P):
                break
            if not P[k, c]:
                nz = np.flatnonzero(P[k:, c])
                if nz.size == 0:
                    continue
                i = k + int(nz[0])
                P[[k, i]] = P[[i, k]]
                L[[k, i]] = L[[i, k]]
                M[[r0 + k, r0 + i], c1:] = M[[r0 + i, r0 + k], c1:]
                order[[r0 + k, r0 + i]] = order[[r0 + i, r0 + k]]
            inv = pow(int(P[k, c]), -1, p)
            L[k, k] = inv
            P[k, c:] = P[k, c:] * inv % p
            L[k + 1 :, k] = P[k + 1 :, c]
            P[k + 1 :, c:] -= np.outer(L[k + 1 :, k], P[k, c:])
            P[k + 1 :, c:] %= p
            pivots.append(c0 + c)
            k += 1
        M[r0:, c0:c1] = P
        r = r0 + k
        if k == 0 or c1 == cols:
            continue
        U = M[r0:r, c1:]
        U[:] = _split_matmul_mod_p(_lower_inverse_mod_p(L[:k], p), U, p)
        for i in range(r, rows, ROW_CHUNK):
            block = M[i : i + ROW_CHUNK, c1:]
            block -= _split_matmul_mod_p(L[i - r0 : i - r0 + ROW_CHUNK, :k], U, p)
            block %= p
    return pivots, M[:r], order[:r].tolist()


def _lower_inverse_mod_p(L: np.ndarray, p: int) -> np.ndarray:
    """L11^-1 mod p for a panel's k pivot rows: L11 has the multipliers
    L[:, :k] below its diagonal and the pivots 1 / diag(L) on it, so with
    D = diag(L) and N = tril(L, -1) @ D, L11^-1 = D (I - N)(I + N^2)(I + N^4)..."""
    k = len(L)
    d = np.diagonal(L[:, :k])
    S = (-np.tril(L[:, :k], -1) * d) % p
    X = np.eye(k, dtype=np.int64) + S
    span = 2
    while span < k:
        S = _split_matmul_mod_p(S, S, p)
        X = (X + _split_matmul_mod_p(X, S, p)) % p
        span *= 2
    return X * d[:, None] % p


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


def _pow_mod(base: np.ndarray, exponent: int, p: int) -> np.ndarray:
    """Elementwise base^exponent mod p by square and multiply; p < 2^31."""
    result = np.ones_like(base)
    base = base % p
    while exponent:
        if exponent & 1:
            result = result * base % p
        base = base * base % p
        exponent >>= 1
    return result


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
    determinant is +-P_(m-1) / (P_0 * ... * P_(m-2)), so one Fermat inverse
    per matrix, taken for all chunks at once, undoes the scaling.  A zero
    pivot after the swap makes P_(m-1), and so the result, zero.
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
                rest %= p
        tops.append(prefix)
        bottoms.append(scaling)
        signs.append(negate)
    det = np.concatenate(tops) * _pow_mod(np.concatenate(bottoms), p - 2, p) % p
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
