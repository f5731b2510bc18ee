"""Arithmetic modulo word-sized primes, vectorized with numpy: the
nullspace of a matrix over a prime field (forward elimination to row echelon
form, then back substitution) behind the interpolation cross-check,
determinants of batches of matrices behind the minor determinants, Chinese
remaindering, and rational reconstruction.

Callers stay exact: the interpolation oracle certifies every answer with
integer arithmetic, so a bad prime can cost time but never correctness, and
the determinant takes primes until their product exceeds a proven bound on
the coefficients it reconstructs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

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


def prime_stream():
    """Deterministic stream of distinct primes descending from 2^31 - 1;
    squares of these fit comfortably in int64."""
    n = 2**31 - 1
    while n > 2**30:
        if _is_prime(n):
            yield n
        n -= 2


def _echelon_mod_p(A: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Row echelon form of an int64 matrix over Z/p with unit pivots.

    Returns (pivot column indices, the nonzero rows of the echelon form).
    Each pivot clears only the rows below it, from its column rightwards;
    the pivots are the ones Gauss-Jordan elimination would pick.  Entries of
    A must already lie in [0, p), so every product stays below 2^62.
    """
    M = A.copy()
    rows, cols = M.shape
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
        inv = pow(int(M[r, c]), p - 2, p)
        M[r, c:] = M[r, c:] * inv % p
        below = r + 1 + np.flatnonzero(M[r + 1 :, c])
        if below.size:
            M[below, c:] = (M[below, c:] - np.outer(M[below, c], M[r, c:])) % p
        pivots.append(c)
        r += 1
    return pivots, M[:r]


def nullspace_mod_p(A: np.ndarray, p: int) -> tuple[list[int], list[np.ndarray]]:
    """Pivot columns and the canonical basis of the nullspace of A over Z/p:
    one vector per free column, 1 there and 0 in the other free columns.

    The pivot coordinates come from back substitution on the echelon form,
    for all free columns at once: `rhs` holds, row by row, the value the
    pivot variable of that row must take given the pivots solved so far.
    """
    pivots, U = _echelon_mod_p(A, p)
    cols = A.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    X = np.zeros((cols, len(free)), dtype=np.int64)
    X[free, range(len(free))] = 1
    rhs = (-U[:, free]) % p
    for k in range(len(pivots) - 1, -1, -1):
        X[pivots[k]] = rhs[k]
        rhs[:k] = (rhs[:k] - np.outer(U[:k, pivots[k]], rhs[k])) % p
    return pivots, list(X.T)


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


def rational_reconstruct(a: int, m: int) -> Fraction | None:
    """Rational number p/q with p = q*a (mod m), |p|, q <= sqrt(m/2), if one
    exists (Wang's algorithm)."""
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    p, q = r1, s1
    if q < 0:
        p, q = -p, -q
    if q == 0 or abs(q) > bound or gcd(q, m) != 1:
        return None
    if gcd(abs(p), q) != 1:
        return None
    return Fraction(p, q)
