"""Monomial bases of graded pieces and exact linear algebra over Q.

The basis of the graded piece S_deg of k[s,u,t,v] is the plain tuple
`graded_basis(deg)` of its monomials, exponent 4-tuples in descending lex
order, and a vector over S_deg lists its coordinates in that order.

Rank and nullspace come from one fraction-free elimination over Z.  Each
row is divided by its rational content and stored as a sparse primitive
integer row {col: int}; scaling rows leaves the row space alone,
so the rank and the reduced row echelon form are those of the rational
matrix.  At each column the pivot is the waiting row with the fewest nonzeros, and
every other row with an entry there becomes the primitive part of an
integer combination of itself and the pivot row, which bounds its entries
by minors of the input (Bareiss, Math. Comp. 1968).  `exact_rank` and
`independent_columns` stop after this forward phase and read off the
number of pivots and the pivot columns; `rref_nullspace` also clears each
pivot column above its pivot and reads each kernel vector off the reduced
integer rows as its primitive integer multiple, with no rational in
between.  `saturation` and `lll_reduce` turn independent integer vectors
into a short basis of every integer point of their span.  No floats and no
modular arithmetic are involved.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, lcm

from .poly import BigradedPoly, Monomial, as_bidegree
from .poly import divide_content, integer_primitive, rational_content


@lru_cache(maxsize=None)
def graded_basis(deg) -> tuple[Monomial, ...]:
    """The monomials of bidegree `deg` in k[s,u,t,v], in descending lex
    order: (d1+1)(d2+1) of them when both components are >= 0, else none."""
    d1, d2 = deg
    return tuple(
        (i, d1 - i, j, d2 - j) for i in range(d1, -1, -1) for j in range(d2, -1, -1)
    )


class QMatrix:
    """Dense matrix over Q, stored row-major as lists of int/Fraction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("data shape does not match rows x cols")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def _integer_row(row) -> dict[int, int]:
    """Sparse primitive integer multiple of one rational row: {col: int}.

    Dividing by the rational content changes no row space, so neither the
    rank nor the RREF moves.  An integer row goes through `integer_primitive`,
    which keeps a row of content 1 as it stands.
    """
    entries = {j: x for j, x in enumerate(row) if x}
    if all(type(x) is int for x in entries.values()):
        return integer_primitive(entries)[1]
    content = rational_content(entries.values())
    return {j: divide_content(x, content) for j, x in entries.items()}


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """Primitive part of (p/g)*row - (f/g)*prow, where p = prow[c],
    f = row[c] and g = gcd(p, f); the result is zero in column c.  `row`
    is consumed: it is updated in place."""
    p = prow[c]
    f = row[c]
    g = gcd(p, f)
    a = p // g
    b = f // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, y in prow.items():
        x = row.get(j, 0) - b * y
        if x:
            row[j] = x
        else:
            del row[j]
    return integer_primitive(row)[1]


def _echelon(data: list[list], cols: int) -> tuple[list[dict], list[int]]:
    """Forward phase of fraction-free elimination over Z.

    Returns the pivot rows, sparse and primitive, in ascending pivot-column
    order, with those columns.  Every row still waiting for a pivot is
    filed under its leading column, so the rows that have an entry in
    column c are exactly those filed under c.  The pivot is the one among
    them with the fewest nonzeros (earliest on ties).
    """
    waiting: dict[int, list[dict]] = {}
    for row in data:
        irow = _integer_row(row)
        if irow:
            waiting.setdefault(min(irow), []).append(irow)
    rows: list[dict] = []
    pivots: list[int] = []
    for c in range(cols):
        bucket = waiting.pop(c, None)
        if not bucket:
            continue
        k = min(range(len(bucket)), key=lambda i: len(bucket[i]))
        prow = bucket.pop(k)
        for row in bucket:
            reduced = _eliminate(row, prow, c)
            if reduced:
                waiting.setdefault(min(reduced), []).append(reduced)
        rows.append(prow)
        pivots.append(c)
    return rows, pivots


def _rref(data: list[list], cols: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form up to one integer scale per row: the
    forward phase, then each pivot column cleared from the rows above it."""
    rows, pivots = _echelon(data, cols)
    for i in range(len(rows) - 1, 0, -1):
        prow, c = rows[i], pivots[i]
        for j in range(i):
            if c in rows[j]:
                rows[j] = _eliminate(rows[j], prow, c)
    return rows, pivots


def rref_nullspace(M: QMatrix) -> tuple[int, list[list[int]]]:
    """Exact rank and an integer nullspace basis of M over Q.

    The basis has one vector per free column fc, in ascending order: the
    primitive integer multiple, positive at fc, of the canonical vector
    that is 1 at fc, 0 at the other free columns and -row[fc]/row[pc] at
    the pivot column pc of each reduced row.  With g = gcd(row[fc],
    row[pc]) that entry is -(row[fc]/g)/(row[pc]/g) in lowest terms, so
    the vector is L at fc, L the lcm of the |row[pc]/g|, and
    -(row[fc]/g)*(L/(row[pc]/g)) at pc.  It is primitive: for each prime
    q dividing L, some row[pc]/g holds all of L's factors q, and its
    entry is then prime to q, as row[fc]/g is.  A row is zero before its
    pivot, so fc is the vector's last nonzero coordinate.  M v = 0 exactly.
    """
    rows, pivots = _rref(M.data, M.cols)
    meets: list[list[tuple[int, int, int]]] = [[] for _ in range(M.cols)]
    for row, pc in zip(rows, pivots):
        p = row[pc]
        for fc, f in row.items():
            if fc != pc:
                g = gcd(f, p)
                meets[fc].append((pc, f // g, p // g))
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for fc in range(M.cols):
        if fc in pivot_set:
            continue
        vec = [0] * M.cols
        L = vec[fc] = lcm(*(d for _, _, d in meets[fc]))
        for pc, f, d in meets[fc]:
            vec[pc] = -f * (L // d)
        basis.append(vec)
    return len(pivots), basis


def exact_rank(M: QMatrix) -> int:
    """Exact rank of M over Q, from the forward phase alone."""
    return len(_echelon(M.data, M.cols)[1])


def independent_columns(M: QMatrix, order=None) -> list[int]:
    """Ascending indices of the columns of M that are independent of every
    column scanned before them, scanning left to right or in `order`.

    These are the pivot columns of the forward phase run on M with its
    columns in scan order: a column gets a pivot exactly when it is not a
    combination of the columns before it.
    """
    if order is None:
        return _echelon(M.data, M.cols)[1]
    order = list(order)
    permuted = [[row[j] for j in order] for row in M.data]
    return sorted(order[k] for k in _echelon(permuted, len(order))[1])


def _lone_coordinates(rows: list[dict[int, int]]) -> list[int] | None:
    """For each sparse row, its first coordinate at which every other row
    is zero; None when some row has no such coordinate."""
    held = Counter(c for row in rows for c in row)
    lone = [next((c for c in row if held[c] == 1), None) for row in rows]
    return None if None in lone else lone


def saturation(vectors: list[list[int]]) -> list[list[int]]:
    """A basis of the integer points of the Q-span of integer vectors: the
    saturation of the lattice they generate.

    Each of k independent rows has a pivot coordinate P_j at which it is
    a_j != 0 and every other row is 0: its first coordinate of that kind
    when every vector has one, as each of K1's nullspace vectors from
    `rref_nullspace` does at its free coordinate, else the pivot of its
    RREF row.  Row j scaled to 1 in P_j is rho_j = row_j / a_j.  A point of
    the span is sum_j z_j rho_j, z_j its P_j coordinate, and it is integral
    exactly when z is integral with <g_c, z> integral for every coordinate c,
    g_c = (rho_j[c])_j: z lies in the dual of G = Z^k + sum_c Z g_c.
    D = lcm(a_j) clears every denominator, and D*G is an integer lattice
    that contains D*Z^k.  Its Hermite form H, upper triangular, comes from
    Euclid's algorithm on rows with entries reduced mod D; the columns of
    D*H^-1 span the dual.
    """
    N = len(vectors[0]) if vectors else 0
    rows = [{c: x for c, x in enumerate(v) if x} for v in vectors]
    pivots = _lone_coordinates(rows)
    if pivots is None:
        rows, pivots = _rref(vectors, N)
    k = len(rows)
    D = lcm(*(row[c] for row, c in zip(rows, pivots)))
    scales = [D // row[c] for row, c in zip(rows, pivots)]
    H = [[D * (i == j) for j in range(k)] for i in range(k)]
    for c in sorted(set().union(*rows) - set(pivots)):
        v = [s * row.get(c, 0) % D for s, row in zip(scales, rows)]
        for i in range(k):  # H[i] and v are 0 before i
            while v[i]:
                q = H[i][i] // v[i]
                H[i], v = v, v[:i] + [(x - q * y) % D for x, y in zip(H[i][i:], v[i:])]
    dual = [[0] * k for _ in range(k)]  # D * H^-1 by back substitution
    for j in range(k):
        dual[j][j] = D // H[j][j]
        for i in range(j - 1, -1, -1):
            total = sum(H[i][m] * dual[m][j] for m in range(i + 1, j + 1))
            dual[i][j] = -total // H[i][i]
    basis = []
    for i in range(k):
        x = [0] * N
        for j in range(i + 1):  # dual is upper triangular
            if dual[j][i]:
                t = dual[j][i] * scales[j]
                for c, y in rows[j].items():
                    x[c] += t * y
        basis.append([t // D for t in x])
    return basis


def lll_reduce(vectors: list[list[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice generated by
    independent integer vectors, in integers throughout.

    This is the integral LLL of Cohen, GTM 138, Alg. 2.6.7: with d[i] the
    Gram determinant of the first i vectors and lam[k][j] = d[j+1]*mu_kj,
    every quantity is an integer and every division exact.  The Gram-Schmidt
    data of all vectors are computed up front rather than on first visit.
    """
    b = [list(v) for v in vectors]
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u:
                d[k + 1] = u
            else:
                raise ValueError("vectors are linearly dependent")

    def size_reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * m * m:  # Lovasz fails: swap
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
            B = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (B * t + m * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


def multiplication_matrix(f: BigradedPoly, src) -> QMatrix:
    """Matrix of m -> f*m from the graded piece `src` to `src + bidegree(f)`,
    in the canonical bases of both pieces."""
    src = as_bidegree(src)
    source = graded_basis(src)
    row_of = {m: i for i, m in enumerate(graded_basis(src + f.bidegree()))}
    M = QMatrix.zeros(len(row_of), len(source))
    for j, mono in enumerate(source):
        for fm, c in f.terms.items():
            M.data[row_of[tuple(x + y for x, y in zip(mono, fm))]][j] = c
    return M
