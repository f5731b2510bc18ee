"""Matrix representations of the image surface and their determinants.

The degree-nu syzygies of the parametrization are rewritten as a matrix of
linear forms in T1..T4 over the monomial basis of the degree-nu graded
piece.  Each column is held as it comes from K1's elimination, a primitive
integer syzygy with each entry's four integer coefficients, plus one
positive rational content that gives the exact entries when they are
printed or asked for.
A square matrix is its own maximal minor; for a rectangular one a minor is
proposed by evaluating the matrix at a random point and taking the pivot
columns of the integer elimination in `linalg`, so its determinant is
nonzero at that point.  A determinant is taken on one integer matrix per
minor, in the layout of the entries, rows of coefficient 4-tuples: the
minor's integer columns, of which those left after peeling are replaced by
an LLL-reduced basis of the integer points of their span, which drops
integer content the coefficient bound would pay primes for.
It is computed exactly: rows and columns with a single nonzero entry are
peeled off, and the rest is evaluated modulo primes on the lower set of
exponents its determinant can carry, interpolated by Newton differences,
and recombined by CRT up to a proven coefficient bound.  The primitive
part of the determinant, or of the gcd of several, is the reported
implicit equation.  A single determinant is certified on the same integer
matrix by the syzygy identity: every column of it is a syzygy, so every
maximal minor vanishes on the image, and the determinant is compared with
exact elimination at one point.  A gcd is certified by exact evaluation
of eq(f1..f4) on a grid.
Rank drops at surface points, certified by the same identity, and a fully
independent interpolation oracle cross-check either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import islice, product
from math import comb, gcd, isqrt, prod

import numpy as np

from .complexes import syzygy_basis
from .linalg import (
    QMatrix,
    exact_rank,
    graded_basis,
    independent_columns,
    lll_reduce,
    saturation,
)
from .modnull import (
    _reduce,
    _split_matmul_mod_p,
    crt_combine,
    det_mod_p,
    nullspace_mod_p,
    prime_stream,
    rational_reconstruct,
)
from .poly import (
    Bidegree,
    Monomial,
    Parametrization,
    TPoly,
    as_bidegree,
    divide_content,
    evaluate_many,
    exact,
    rational_content,
    # unused here; kept because perfbench/spans.py wraps matrixrep.substitute_T
    substitute_T,  # noqa: F401
    tpoly_gcd,
)

RANDOM_COORD_BOUND = 10  # sampling box [-10, 10] keeps evaluated entries small
MAX_TRIES = 25  # random evaluation points per minor proposal
# the point T* at which certify_determinant compares the determinant with
# exact elimination; no coordinate is zero, so a wrong coefficient of a
# pure power of one Ti cannot vanish there
CHECK_POINT = (2, -3, 5, 7)
# the oracle's reconstruction bounds: a coordinate's denominator is at most
# 2^16, and numerator bound times denominator bound times 2 is at most the
# modulus over 2^20, so a wrong scale passes a coordinate with probability
# about 2^-20
ORACLE_DEN_BOUND = 2**16
ORACLE_MARGIN_BITS = 20
# grid points that verify_substitution evaluates at once; `evaluate_many`
# holds one array of this length per power of T3 and T4 that it needs
VERIFY_CHUNK = 1024


class PipelineError(Exception):
    """A well-formed input on which the pipeline finds no equation; the
    command line exits 2 on any of them."""


class RankDeficientError(PipelineError, RuntimeError):
    """No square nonsingular minor with as many columns as rows exists."""


class AllZeroError(PipelineError, ValueError):
    """Every supplied determinant is zero."""


class NoEquationError(PipelineError, RuntimeError):
    """No nonzero form of the requested degree vanishes on the image."""


class AmbiguousNullspaceError(PipelineError, RuntimeError):
    """More than one independent form of the requested degree fits the
    samples; the degree is too large or the sampling hit special fibers."""


# exponents of T1..T4, the monomials of a linear form
_T_MONOMIALS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


@dataclass(frozen=True)
class MatrixRep:
    """Rows indexed by the degree-nu monomial basis, columns by the syzygy
    basis; entry (m, j) is k_j*(c1*T1 + .. + c4*T4) with the integers
    (c1, .., c4) = integer_coefficients[m][j] and the positive rational
    k_j = column_contents[j].  In a matrix from `build_matrix`, c_i is the
    coefficient of monomial m in component i of the primitive integer
    syzygy j, and k_j is one over its value at its free coordinate, so the
    exact entries are those of K1's canonical nullspace vector.  Without
    columns, each row is an empty tuple."""

    nu: Bidegree
    row_basis: tuple[Monomial, ...]
    integer_coefficients: tuple[tuple[tuple[int, int, int, int], ...], ...]
    column_contents: tuple[Fraction, ...]

    @property
    def rows(self) -> int:
        return len(self.integer_coefficients)

    @property
    def cols(self) -> int:
        return len(self.integer_coefficients[0]) if self.integer_coefficients else 0

    @cached_property
    def coefficients(self) -> tuple[tuple[tuple, ...], ...]:
        """The exact coefficients (k_j*c1, .., k_j*c4) of every entry, built
        on first use for tests and library callers.  Rank queries, minors
        and determinants take the integer columns, and reports print each
        entry from its integers and k_j."""
        return tuple(
            tuple(
                e if k == 1 or not any(e) else tuple(exact(k * c) for c in e)
                for e, k in zip(row, self.column_contents)
            )
            for row in self.integer_coefficients
        )

    @cached_property
    def entries(self) -> tuple[tuple[TPoly, ...], ...]:
        """The exact entries as linear TPolys, for tests and library
        callers; zeros share one TPoly."""
        zero, T, raw = TPoly.zero(), _T_MONOMIALS, TPoly._raw
        return tuple(
            tuple(raw({m: c for m, c in zip(T, e) if c}) if any(e) else zero for e in row)
            for row in self.coefficients
        )

    @cached_property
    def _minors(self) -> dict:
        return {}

    def _minor(self, columns) -> tuple[tuple[tuple, ...], ...]:
        """The integer matrix a determinant on the rows-many `columns` is
        taken on, as rows of coefficient 4-tuples: M's integer columns, with
        those in `_peel`'s core replaced at full length by an LLL-reduced
        basis of the integer points of their span, integer syzygies for a
        matrix from `build_matrix`.  Built once per column set; dependent
        core columns raise RankDeficientError."""
        key = tuple(columns)
        if key not in self._minors:
            minor = [[row[j] for j in key] for row in self.integer_coefficients]
            peeled = _peel([{b: e for b, e in enumerate(row) if any(e)} for row in minor], len(key))
            core = peeled[3] if peeled else []
            basis = lll_reduce(saturation([[c for row in minor for c in row[b]] for b in core]))
            if len(basis) < len(core):
                raise RankDeficientError("the columns of the matrix are dependent")
            for b, v in zip(core, basis):
                for r, row in enumerate(minor):
                    row[b] = tuple(v[4 * r : 4 * r + 4])
            self._minors[key] = tuple(map(tuple, minor))
        return self._minors[key]

    def evaluate(self, values) -> QMatrix:
        """The integer columns at T = values: the rank and independent column
        sets that rank queries and minor selection read are M's there."""
        t1, t2, t3, t4 = values
        data = [
            [a * t1 + b * t2 + c * t3 + d * t4 for a, b, c, d in row]
            for row in self.integer_coefficients
        ]
        return QMatrix(self.rows, self.cols, data)


def build_matrix(F: Parametrization, nu) -> MatrixRep:
    """Integer entry (m, j) is (v[m], v[n+m], v[2n+m], v[3n+m]), v syzygy
    vector j, and column j's content is one over v's last nonzero
    coordinate, its free coordinate."""
    nu = as_bidegree(nu)
    vectors = syzygy_basis(F, nu)  # refuses an oversized strand before S_nu is listed
    basis = graded_basis(nu)
    n, zero = len(basis), (0, 0, 0, 0)
    columns = [
        [e if any(e) else zero for e in zip(v[:n], v[n : 2 * n], v[2 * n : 3 * n], v[3 * n :])]
        for v in vectors
    ]
    contents = tuple(Fraction(1, next(x for x in reversed(v) if x)) for v in vectors)
    return MatrixRep(nu, basis, tuple(zip(*columns)) if columns else ((),) * n, contents)


def _linear_form(coefficients) -> TPoly:
    """c1*T1 + .. + c4*T4 from (c1, c2, c3, c4)."""
    return TPoly({m: c for m, c in zip(_T_MONOMIALS, coefficients) if c})


def _peel(grid: list[dict], n: int):
    """Laplace expansion along rows and columns with one nonzero entry.

    `grid` holds each row as {column: integer coefficients}.  Returns the
    sign, the peeled entries and the rows and columns of the remaining core,
    in which every row and column has at least two nonzero entries; None
    when a row or column is zero.
    """
    rows, cols = list(range(n)), list(range(n))
    row_support = [set(row) for row in grid]
    col_support = [{i for i in rows if j in grid[i]} for j in cols]
    sign, peeled = 1, []
    while rows:
        if not all(row_support[i] for i in rows) or not all(col_support[j] for j in cols):
            return None
        hit = next(((i, *row_support[i]) for i in rows if len(row_support[i]) == 1), None)
        if hit is None:
            hit = next(((*col_support[j], j) for j in cols if len(col_support[j]) == 1), None)
        if hit is None:
            break
        i, j = hit
        peeled.append(grid[i][j])
        a, b = rows.index(i), cols.index(j)
        if (a + b) % 2:
            sign = -sign
        del rows[a], cols[b]
        for k in row_support[i]:
            col_support[k].discard(i)
        for k in col_support[j]:
            row_support[k].discard(j)
    return sign, peeled, rows, cols


def _primes_above(bits: int) -> tuple[int, ...]:
    """The shortest run of prime_stream() whose product is at least 2^bits."""
    primes, modulus = [], 1
    for p in prime_stream():
        if modulus >> bits:
            break
        primes.append(p)
        modulus *= p
    return tuple(primes)


@lru_cache(maxsize=128)
def _newton_maps(s: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton interpolation mod p on the nodes 1..s as two read-only s x s
    matrices, each its loop of row operations run on the identity: divided
    differences (the nodes are equally spaced, so level k divides by k),
    then the change from the Newton basis to monomials."""
    D = np.eye(s, dtype=np.int64)
    for k in range(1, s):
        D[k:] = (D[k:] - D[k - 1 : -1]) * pow(k, -1, p) % p
    N = np.eye(s, dtype=np.int64)
    for k in range(s - 2, -1, -1):
        N[k:-1] = (N[k:-1] - (k + 1) * N[k + 1 :]) % p
    D.flags.writeable = N.flags.writeable = False
    return D, N


def _interpolate(values: np.ndarray, inside: np.ndarray, p: int) -> np.ndarray:
    """The coefficients mod p of the polynomial with exponents in the
    lower set `inside` whose value at the node alpha + 1 is values[alpha]
    for each alpha in it; entries outside it are ignored and come back 0.
    Such nodes are unisolvent (Dyn and Floater, J. Approx. Theory 2014).
    Each axis in turn takes one exact product and moves to the back: first
    the divided differences (a difference reads only lower indices, which
    the set holds), then, with the outside of the set zeroed, the change
    to monomials."""
    for phase in range(2):
        if phase:
            values[~inside] = 0
        for _ in range(values.ndim):
            s = values.shape[0]
            out = _split_matmul_mod_p(_newton_maps(s, p)[phase], values.reshape(s, -1), p)
            values = out.reshape(values.shape).transpose((*range(1, values.ndim), 0))
    return values


def _torus_bound(A: np.ndarray) -> int:
    """bareiss_det's coefficient bound, rounded up, for the core whose entry
    (i, j) has the coefficients A[i, j] of an n x n x 4 integer array."""
    squared = min(
        prod(np.abs(B.transpose(0, 2, 1) @ B).sum(axis=(1, 2)).tolist())
        for B in (A, A.transpose(1, 0, 2))
    )
    bound = isqrt(squared)
    return bound + (bound * bound < squared)


# matrices of one evaluation batch hold about this many int64 entries
# (256 KB); smaller batches spend the time in per-chunk numpy overhead
_BATCH_ENTRIES = 2**15


def _node_values(A: np.ndarray, h: int, axes: list, nodes: np.ndarray, p: int, batch: int):
    """The core of coefficients A modulo p at T_h = 1 and T_axes = each
    node, in (n, n, batch) int64 chunks with entries in [0, p).  `nodes`
    holds each node with a fourth coordinate 1, as float64.  Each chunk is
    one float64 (BLAS) product, which is exact: a node's coordinates are at
    most n + 1, so every sum of four products stays below
    4 * 2^31 * (n + 1) < 2^53."""
    n = len(A)
    coefficients = (A % p)[:, :, axes + [h]].reshape(n * n, 4).astype(np.float64)
    for start in range(0, nodes.shape[1], batch):
        chunk = (coefficients @ nodes[:, start : start + batch]).astype(np.int64)
        _reduce(chunk, p)
        yield chunk.reshape(n, n, -1)


def _core_det(core: list[list[tuple]], n: int) -> TPoly:
    """Determinant of an n x n matrix of integer linear forms, given as
    rows of coefficient 4-tuples, by evaluation and interpolation
    modulo primes on the lower set of exponents that can carry a
    coefficient; see bareiss_det for the two bounds this relies on."""
    top = max(abs(c) for row in core for e in row for c in e)
    # int64 when every sum in _torus_bound fits
    A = np.array(core, dtype=np.int64 if 16 * n * top * top < 2**63 else object)
    held = A != 0
    degree_bounds = np.minimum(held.any(axis=1).sum(axis=0), held.any(axis=0).sum(axis=0)).tolist()
    h = degree_bounds.index(max(degree_bounds))
    axes = [t for t in range(4) if t != h]
    shape = [degree_bounds[t] + 1 for t in axes]
    inside = np.indices(shape).sum(axis=0) <= n
    exponents = np.array(np.nonzero(inside))
    nodes = np.ones((4, exponents.shape[1]))
    nodes[:3] += exponents

    primes = _primes_above((2 * _torus_bound(A)).bit_length())
    batch = max(1, _BATCH_ENTRIES // (n * n))
    residues = np.empty((len(primes), nodes.shape[1]), dtype=np.int64)
    for q, p in enumerate(primes):
        values = np.zeros(shape, dtype=np.int64)
        values[inside] = det_mod_p(_node_values(A, h, axes, nodes, p, batch), p)
        residues[q] = _interpolate(values, inside, p)[inside]

    support = np.flatnonzero(residues.any(axis=0))
    combined, modulus = crt_combine(list(residues[:, support].astype(object)), primes)
    terms = {}
    for flat, c in zip(support, combined):
        mono = [0, 0, 0, 0]
        for t, e in zip(axes, exponents[:, flat]):
            mono[t] = int(e)
        mono[h] = n - sum(mono)
        terms[tuple(mono)] = c - modulus if 2 * c > modulus else c
    return TPoly(terms)


def bareiss_det(matrix) -> TPoly:
    """Exact determinant of a square matrix of linear forms in T1..T4.

    The matrix is given as rows of coefficient 4-tuples (c1, .., c4) of
    exact numbers, entry c1*T1 + .. + c4*T4, the layout of
    `MatrixRep.coefficients`; a non-square matrix or an entry that is not a
    4-tuple raises ValueError.  Each row's rational content is pulled out
    first, leaving integer coefficients; a row of content 1 is kept as it
    stands.  Rows and columns with a single nonzero entry are peeled off by
    Laplace expansion (a zero row or column gives 0), and the remaining
    core is evaluated modulo primes and interpolated:

    * degree bound: deg_Tt det <= min(rows, columns of the core holding Tt),
      since each term of the permutation expansion takes one entry from
      every row and every column.  The variable with the largest bound is
      set to 1 (the core's determinant is homogeneous of degree its size
      n, which restores that exponent), so the exponents alpha of the other
      three lie in the lower set {alpha_t <= bound_t, sum alpha <= n}; the
      determinant at each node alpha + 1 comes from `modnull.det_mod_p` and
      the coefficients from Newton interpolation on that set.
    * coefficient bound: every coefficient of D is at most max |D| on the
      torus |T_t| = 1, where by Hadamard |D| <= prod_i ||row i||_2 and
      ||row i||_2^2 <= sum_{t,u} |G_i[t,u]|, G_i = sum_j a_ij a_ij^T the
      Gram matrix of row i's coefficients; B is the smaller of this bound
      and its column version, never above prod_i sum_j ||a_ij||_1.  Primes
      are taken until their product exceeds 2B, so CRT into the symmetric
      range recovers every coefficient exactly.

    The result for an n x n matrix is 0 or homogeneous of degree n.  The
    nodes leave no surplus values to check the coefficients against; check
    (b) of `certify_determinant` and `verify_substitution` guard the
    result.  The name is kept because it is part of the public API.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    for row in matrix:
        for entry in row:
            if not isinstance(entry, tuple) or len(entry) != 4:
                raise ValueError(f"matrix entries must be coefficient 4-tuples, got {entry!r}")

    scale = Fraction(1)
    grid: list[dict] = []
    for row in matrix:
        content = rational_content(c for coeffs in row for c in coeffs)
        if not content:
            return TPoly.zero()
        if content != 1:
            scale *= content
            row = [tuple(divide_content(c, content) for c in coeffs) for coeffs in row]
        grid.append({j: coeffs for j, coeffs in enumerate(row) if any(coeffs)})

    peeled = _peel(grid, n)
    if peeled is None:
        return TPoly.zero()
    sign, factors, core_rows, core_cols = peeled
    det = TPoly.constant(1)
    if core_rows:
        core = [[grid[i].get(j, (0, 0, 0, 0)) for j in core_cols] for i in core_rows]
        det = _core_det(core, len(core))
    for coeffs in factors:
        det = det * _linear_form(coeffs)
    return det * (scale * sign)


def _proposals(M: MatrixRep, seed: int, shuffle: bool = False):
    """Column sets of full row size, independent at a random evaluation
    point, from up to MAX_TRIES points drawn from random.Random(seed).
    With shuffle=True the columns are scanned in a random order, drawn after
    each point, so that different seeds explore different minors."""
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        tau = [rng.randint(-RANDOM_COORD_BOUND, RANDOM_COORD_BOUND) for _ in range(4)]
        order = None
        if shuffle:
            order = list(range(M.cols))
            rng.shuffle(order)
        chosen = independent_columns(M.evaluate(tau), order)
        if len(chosen) == M.rows:
            yield chosen


def minor_determinants(M: MatrixRep, seed: int, count: int):
    """Column sets and determinants for up to `count` distinct maximal
    minors; returns (columns of the first minor, list of determinants).

    Every determinant is `bareiss_det` of `MatrixRep._minor` at the
    minor's columns, whose core columns are replaced by integer columns of
    the same Q-span, so it is the minor's determinant times a nonzero
    constant, which `reduce_equation`'s primitive part removes.  A matrix
    with fewer columns than rows has no maximal minor, and a square one has
    only the one, all of its columns.

    Otherwise the first minor is the first proposal, and each extra minor
    is the first proposal of a shuffled scan under its own seed; repeated
    column sets are skipped.  A proposal's columns are independent in
    `M.evaluate` at its point, so its determinant is nonzero there.
    RankDeficientError is raised when MAX_TRIES points give no proposal.
    """
    if M.rows == 0:
        return [], [TPoly.constant(1)]
    if not any(any(e) for row in M.integer_coefficients for e in row):
        raise RankDeficientError("matrix of linear forms is zero")
    if M.cols < M.rows:
        raise RankDeficientError(f"the {M.rows}x{M.cols} matrix has fewer columns than rows")
    if M.rows == M.cols:
        det = bareiss_det(M._minor(range(M.cols)))
        if det.is_zero():
            raise RankDeficientError(f"the {M.rows}x{M.rows} matrix is singular")
        return list(range(M.cols)), [det]
    columns = next(_proposals(M, seed), None)
    if columns is None:
        raise RankDeficientError(
            f"no nonsingular {M.rows}x{M.rows} minor found in {MAX_TRIES} attempts"
        )
    column_sets = [columns]
    for i in range(1, count):
        candidate = next(_proposals(M, seed + 1000 * i, shuffle=True), None)
        if candidate is not None and candidate not in column_sets:
            column_sets.append(candidate)
    return columns, [bareiss_det(M._minor(c)) for c in column_sets]


def reduce_equation(dets) -> TPoly:
    """Primitive, sign-normalized gcd of the given determinants."""
    dets = [d for d in dets if not d.is_zero()]
    if not dets:
        raise AllZeroError("all determinants are zero")
    acc = dets[0]
    for other in dets[1:]:
        acc = tpoly_gcd(acc, other)
    return acc.primitive()


def certify_determinant(M: MatrixRep, F: Parametrization, columns, det: TPoly) -> None:
    """Prove that `det`, the one determinant that `minor_determinants`
    returned for M with first minor `columns`, vanishes on the image of F;
    raise PipelineError when a check fails.

    Each column of the exact matrix the determinant was taken on is a
    degree-nu syzygy (a1..a4), and entry (m, j) is sum_i coeff_m(a_ij)*Ti.
    At T = f(x) for a point x of P1 x P1, the row vector of the degree-nu
    monomials at x times the matrix is (sum_i a_ij(x)*f_i(x))_j = 0, and that
    vector is nonzero when there is at least one row.  So the determinant of
    the matrix at f(x) is zero for every x, and det(f1..f4) = 0.  The proof
    is check (a): the matrix has a row, and sum_i a_i*f_i == 0 for every
    column, expanded exactly.  The matrix is `MatrixRep._minor` at
    `columns`, the one `minor_determinants` took the determinant on.  Check
    (b) is a guard against a wrong determinant, not part of the proof: det
    at CHECK_POINT must equal the determinant of that integer matrix there,
    computed by fraction-free elimination.  Neither check expands
    det(f1..f4).
    """
    if M.rows < 1:
        raise PipelineError("the matrix has no rows, so its minors certify nothing")
    minor = M._minor(columns)
    # the terms of m*f_i for row monomial m, shared by every column
    shifted = [
        [[((m[0] + a, m[1] + b, m[2] + c, m[3] + d), k) for (a, b, c, d), k in f.terms.items()]
         for f in F.polys]
        for m in M.row_basis
    ]
    for j, column in enumerate(zip(*minor)):
        identity: dict = {}  # sum_i a_ij*f_i, one term at a time
        for products, e in zip(shifted, column):
            for x, terms in zip(e, products):
                if x:
                    for mono, k in terms:
                        identity[mono] = identity.get(mono, 0) + x * k
        if any(identity.values()):
            raise PipelineError(
                f"column {j} of the determinant's matrix is not a syzygy of the map"
            )
    numeric = [[sum(c * t for c, t in zip(e, CHECK_POINT)) for e in row] for row in minor]
    if det.evaluate(CHECK_POINT) != _integer_det(numeric):
        raise PipelineError(
            f"the determinant disagrees with exact elimination at T = {CHECK_POINT}"
        )


def _integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 1968), in which every division is exact."""
    A = [list(row) for row in rows]
    n, sign, previous = len(A), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if A[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // previous
        previous = A[k][k]
    return sign * previous


def verify_substitution(eq: TPoly, F: Parametrization) -> bool:
    """True iff eq(f1, f2, f3, f4) is the zero polynomial, without expanding it.

    The degree-n part eq_n of eq composes to a bihomogeneous polynomial of
    bidegree (n*e1, n*e2), which is zero exactly when its dehomogenization
    g(s, t) = eq_n(f)(s, 1, t, 1) is.  g has degree at most n*e1 in s and
    n*e2 in t, so it is zero exactly when it vanishes on the integer grid
    {0..n*e1} x {0..n*e2} (Alon, Combinatorial Nullstellensatz, Lemma 2.1).
    The f_i are evaluated once on the top degree's grid, and each part at
    the images inside its own grid, by `evaluate_many` on VERIFY_CHUNK
    points at a time.  Parts of different degree are checked separately:
    dehomogenizing first would let them cancel.
    """
    parts: dict[int, dict[Monomial, object]] = {}
    for mono, coeff in eq.terms.items():
        parts.setdefault(sum(mono), {})[mono] = coeff
    if not parts:
        return True
    e1, e2 = F.bidegree
    top = max(parts)
    grid = product(range(top * e1 + 1), (1,), range(top * e2 + 1), (1,))
    while chunk := list(islice(grid, VERIFY_CHUNK)):
        images = list(zip(*(evaluate_many(f.terms, chunk) for f in F.polys)))
        for n, terms in parts.items():
            inside = [T for (s, _, t, _), T in zip(chunk, images) if s <= n * e1 and t <= n * e2]
            if any(evaluate_many(terms, inside)):
                return False
    return True


def _sample_point(rng: random.Random):
    while True:
        pt = tuple(
            rng.randint(-RANDOM_COORD_BOUND, RANDOM_COORD_BOUND) for _ in range(4)
        )
        if (pt[0], pt[1]) != (0, 0) and (pt[2], pt[3]) != (0, 0):
            return pt


def _box_points() -> int:
    """Number of distinct points of P1 x P1 that _sample_point can give: the
    coprime pairs in the sampling box, halved because (x, y) and (-x, -y)
    are one point of P1, squared for the two factors."""
    b = RANDOM_COORD_BOUND
    pairs = sum(gcd(x, y) == 1 for x in range(-b, b + 1) for y in range(-b, b + 1))
    return (pairs // 2) ** 2


def _projective_point(pt):
    """The canonical representative of a point of P1 x P1 given by integer
    coordinates (s, u, t, v): each pair divided by its gcd, with its first
    nonzero entry made positive."""
    out = []
    for x, y in (pt[:2], pt[2:]):
        g = gcd(x, y) if x > 0 or (x == 0 and y > 0) else -gcd(x, y)
        out += [x // g, y // g]
    return tuple(out)


def rank_drop_check(
    M: MatrixRep, F: Parametrization, trials: int = 100, seed: int = 0
) -> bool:
    """Evaluate the matrix at T = F(p) for random parameter points p and
    check that the rank always drops below the row count.  Base points of the
    parametrization are skipped and resampled.

    A drop is certified by a nonzero vector in the left kernel: the row of
    degree-nu monomials at p.  Every column of a matrix from `build_matrix`
    is a syzygy (a1..a4), so that row times M(F(p)) is
    (sum a_i(p) f_i(p))_j = 0.  A trial where the product is not exactly
    zero is decided by the rank from exact elimination.
    """
    rng = random.Random(seed)
    done = 0
    while done < trials:
        pt = _sample_point(rng)
        values = [f.evaluate(pt) for f in F.polys]
        if not any(values):
            continue  # base point
        numeric = M.evaluate(values)
        row = [prod(x**k for x, k in zip(pt, mono)) for mono in M.row_basis]
        in_kernel = any(row) and not any(
            sum(w * x for w, x in zip(row, column)) for column in zip(*numeric.data)
        )
        if not in_kernel and exact_rank(numeric) >= M.rows:
            return False
        done += 1
    return True


def _degree_monomials(degree: int) -> list[Monomial]:
    """The degree-`degree` monomials in T1..T4, in descending order."""
    return [
        (a, b, c, degree - a - b - c)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
        for c in range(degree - a - b, -1, -1)
    ]


def interpolation_oracle(F: Parametrization, degree: int, seed: int = 0) -> TPoly:
    """Independent reconstruction of the implicit equation of the image.

    Samples random parameter points, distinct in P1 x P1 and away from base
    points, and keeps each one as its image point T = (f1..f4)(pt).  For
    each word-sized prime, up to 32 per sample, the matrix of every
    degree-`degree` monomial in T at the image points is formed modulo that
    prime and its nullspace found by forward elimination and back
    substitution; the first prime with nullity 1 picks the rows the later
    ones take.  One-dimensional nullspaces are grouped by their pivot
    columns, and every prime that joins a group is a chance to stop: the
    group's vectors are combined by CRT and `_lattice_reconstruct` recovers
    the integer form from them, which is returned only if it vanishes
    exactly at every sample, so the only probabilistic ingredient is
    running time.  A nullity >= 2 is an unlucky prime or too few points
    (rank only ever grows with more), so the second one grows the sample,
    as do 32 primes without a certified form, a few times before giving up.

    Raises NoEquationError when the nullspace is certified trivial (degree
    too small) and AmbiguousNullspaceError when a one-dimensional nullspace
    cannot be certified (degree too large or degenerate sampling), which
    includes a sample larger than the points the sampling box holds.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    monos = _degree_monomials(degree)
    assert len(monos) == comb(degree + 3, 3)
    exponents = np.array(monos, dtype=np.intp)

    rng = random.Random(seed)
    seen: set[tuple] = set()
    images: list[tuple[int, ...]] = []
    box_points = _box_points()
    primes = prime_stream()
    target = len(monos) + 60
    for _ in range(4):
        while len(images) < target:
            if target - len(images) > box_points - len(seen):
                raise AmbiguousNullspaceError(
                    f"the sampling box has {box_points} points of P1 x P1, too "
                    f"few to give the {target} samples that degree {degree} needs"
                )
            # projectively equal points have proportional images, which
            # give dependent rows
            batch: list[tuple] = []
            while len(batch) < target - len(images):
                pt = _projective_point(_sample_point(rng))
                if pt not in seen:
                    seen.add(pt)
                    batch.append(pt)
            for values in zip(*(evaluate_many(f.terms, batch) for f in F.polys)):
                if not any(values):
                    continue  # base point
                # the same point of P3 in coprime integers, for the residues
                content = rational_content(values)
                images.append(tuple(divide_content(x, content) for x in values))

        groups: dict[tuple[int, ...], list] = {}
        fat_primes = 0
        sample = images
        for p in islice(primes, 32):
            pivots, basis, rows = nullspace_mod_p(
                _sample_matrix_mod_p(sample, exponents, degree, p), p
            )
            if len(basis) == 0:
                raise NoEquationError(
                    f"no nonzero degree-{degree} form vanishes on the samples"
                )
            if len(basis) >= 2:
                # an unlucky prime (true nullity 1) or too few rows; a second
                # one means the sample itself should grow
                fat_primes += 1
                if fat_primes == 2:
                    break
                continue
            if sample is images:
                # these rows are independent mod p, hence over Q, so the
                # later primes of this round need only them; the
                # certificate still takes every sample
                sample = [images[i] for i in rows]
            group = groups.setdefault(tuple(pivots), [])
            group.append((p, basis[0]))
            moduli, vectors = zip(*group)
            combined, modulus = crt_combine(np.array(vectors, dtype=object), moduli)
            free = min(set(range(len(monos))).difference(pivots))
            coefficients = _lattice_reconstruct(
                list(combined), modulus, free, len(group) - 1
            )
            if coefficients is not None:
                equation = TPoly(dict(zip(monos, coefficients))).primitive()
                if not any(evaluate_many(equation.terms, images)):
                    return equation
        target += max(150, len(monos) // 2)
    raise AmbiguousNullspaceError(
        f"could not certify a one-dimensional space of degree-{degree} forms "
        "from the samples (degree too large or degenerate sampling)"
    )


def _lattice_reconstruct(
    v: list[int], m: int, free: int, attempt: int
) -> list[int] | None:
    """The primitive integer vector c, up to sign, with c = lambda * v
    (mod m) for some scale lambda, if the modulus m suffices; else None.

    With v scaled to v[free] = 1 (None if v[free] is not a unit mod m), the
    scale that makes every coordinate small is c[free].  It is found on a few
    coordinates: the free one and three other nonzero ones, which
    successive attempts rotate through.  Their lattice, spanned by
    (1, v_a, v_b, v_c) and m times the last three unit vectors, has
    determinant m^3 and holds (c_free, c_a, c_b, c_c) / g, g the gcd of
    those four entries; LLL finds it as its short vector once m^(3/4) is
    well above its length (Bright and Storjohann, "Vector rational number
    reconstruction", ISSAC 2011).  Every lambda * v_i mod m is then c_i / g,
    recovered by `rational_reconstruct` with a denominator up to
    ORACLE_DEN_BOUND: the coordinates of a form often share a factor with
    c_free, so g is often more than 1.  The product of the numerator and
    denominator bounds stays 2^ORACLE_MARGIN_BITS below m, so a wrong scale
    fails on the first coordinates outside the lattice, and at one word
    prime the bounds still admit small forms such as T1*T4 - T2*T3.  A g
    above ORACLE_DEN_BOUND (a change of coordinates Ti -> K*Ti puts powers
    of K into whole blocks of coefficients) gets a second pass with
    balanced bounds, which succeeds once m covers |c_i| and g with the same
    margin, about when Wang's reconstruction of c_i / c_free would.  With
    four or fewer nonzero coordinates none is left outside the lattice, and
    a modulus too small for c can give another short vector; the oracle's
    exact certificate rejects it.  The fractions are divided by their
    rational content.
    """
    if gcd(v[free], m) != 1:
        return None
    if v[free] != 1:
        inv = pow(v[free], -1, m)
        v = [x * inv % m for x in v]
    others = [i for i, x in enumerate(v) if x and i != free]
    if len(others) > 3:
        others = [others[(3 * attempt + j) % len(others)] for j in range(3)]
    k = len(others)
    lattice = [[1] + [v[i] for i in others]]
    lattice += [[0] * (j + 1) + [m] + [0] * (k - 1 - j) for j in range(k)]
    scale = abs(lll_reduce(lattice)[0][0])
    if scale == 0:
        return None
    budget = m >> ORACLE_MARGIN_BITS
    balanced = isqrt(budget // 2)
    for den_bound in sorted({min(ORACLE_DEN_BOUND, balanced), balanced}):
        num_bound = budget // (2 * den_bound)
        fractions = []
        for x in v:
            f = rational_reconstruct(scale * x % m, m, num_bound, den_bound)
            if f is None:
                break
            fractions.append(f)
        else:
            content = rational_content(fractions)
            return [divide_content(f, content) for f in fractions]
    return None


def _sample_matrix_mod_p(images, exponents: np.ndarray, degree: int, p: int):
    """Monomial values at the image points modulo p, one row per point, one
    column per row of `exponents`.  Each point's products T1^a T2^b and
    T3^c T4^d mod p, a, b, c, d <= degree, fill two tables, so a monomial is
    one product of an entry of each; every product stays below 2^62."""
    V = np.array([[x % p for x in T] for T in images], dtype=np.int64)
    P = np.ones((len(images), 4, degree + 1), dtype=np.int64)
    for k in range(1, degree + 1):
        P[:, :, k] = P[:, :, k - 1] * V % p
    n = degree + 1
    T12 = (P[:, 0, :, None] * P[:, 1, None, :] % p).reshape(len(images), n * n)
    T34 = (P[:, 2, :, None] * P[:, 3, None, :] % p).reshape(len(images), n * n)
    A = T12[:, exponents[:, 0] * n + exponents[:, 1]]
    A *= T34[:, exponents[:, 2] * n + exponents[:, 3]]
    A %= p
    return A
