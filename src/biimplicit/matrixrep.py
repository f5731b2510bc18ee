"""Matrix representations of the image surface and their determinants.

The degree-nu syzygies of the parametrization are rewritten as a matrix of
linear forms in T1..T4 over the monomial basis of the degree-nu graded piece.
A maximal square minor (random evaluation to pick candidate columns, then a
symbolic certificate) feeds a fraction-free Bareiss determinant over Q[T];
the gcd of several such determinants, made primitive, is the reported
implicit equation, certified by exact evaluation of eq(f1..f4) on a grid,
and cross-checkable by rank drops at surface points and by a fully
independent interpolation oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .complexes import SyzygyBasis, syzygy_basis
from .linalg import GradedBasis, QMatrix, coeff_vector, exact_rank, graded_basis
from .modnull import crt_combine, nullspace_mod_p, prime_stream, rational_reconstruct
from .poly import (
    Bidegree,
    BigradedPoly,
    Monomial,
    Parametrization,
    TPoly,
    _format_terms,
    as_bidegree,
    exact,
    # unused here; kept because perfbench/spans.py wraps matrixrep.substitute_T
    substitute_T,  # noqa: F401
)
from .polygcd import exact_div, tpoly_gcd

RANDOM_COORD_BOUND = 10  # sampling box [-10, 10] keeps evaluated entries small


class RankDeficientError(RuntimeError):
    """No square nonsingular minor with as many columns as rows exists."""


class AllZeroError(ValueError):
    """Every supplied determinant is zero."""


class NoEquationError(RuntimeError):
    """No nonzero form of the requested degree vanishes on the image."""


class AmbiguousNullspaceError(RuntimeError):
    """More than one independent form of the requested degree fits the
    samples; the degree is too large or the sampling hit special fibers."""


@dataclass(frozen=True)
class LinTForm:
    """Linear form c1*T1 + c2*T2 + c3*T3 + c4*T4 with exact coefficients."""

    coefficients: tuple

    def is_zero(self) -> bool:
        return not any(self.coefficients)

    def to_tpoly(self) -> TPoly:
        terms = {}
        for i, c in enumerate(self.coefficients):
            if c:
                e = [0, 0, 0, 0]
                e[i] = 1
                terms[tuple(e)] = c
        return TPoly(terms)

    def evaluate(self, values):
        acc = 0
        for c, v in zip(self.coefficients, values):
            if c:
                acc += c * v
        return acc

    def __str__(self) -> str:
        items = [
            ((1 if i == 0 else 0, 1 if i == 1 else 0, 1 if i == 2 else 0, 1 if i == 3 else 0), c)
            for i, c in enumerate(self.coefficients)
            if c
        ]
        items.sort(key=lambda kv: kv[0], reverse=True)
        return _format_terms(items, ("T1", "T2", "T3", "T4"))


@dataclass(frozen=True)
class MatrixRep:
    """Rows indexed by the degree-nu monomial basis, columns by the canonical
    syzygy basis; entry (m, j) collects the coefficient of monomial m in each
    component of syzygy column j as a linear form in T1..T4."""

    nu: Bidegree
    row_basis: GradedBasis
    syzygies: SyzygyBasis
    entries: tuple[tuple[LinTForm, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def submatrix(self, columns) -> list[list[LinTForm]]:
        return [[row[j] for j in columns] for row in self.entries]

    def evaluate(self, values) -> QMatrix:
        data = [[entry.evaluate(values) for entry in row] for row in self.entries]
        return QMatrix(self.rows, self.cols, data)


@dataclass(frozen=True)
class ImplicitResult:
    equation: TPoly
    degree: int
    minor_columns: tuple[int, ...]
    verified: bool


def build_matrix(F: Parametrization, nu) -> MatrixRep:
    nu = as_bidegree(nu)
    syz = syzygy_basis(F, nu)
    basis = graded_basis(nu)
    column_vectors = [
        [coeff_vector(a, basis) for a in column] for column in syz.columns
    ]
    entries = tuple(
        tuple(
            LinTForm(tuple(column_vectors[j][i][r] for i in range(4)))
            for j in range(len(syz.columns))
        )
        for r in range(basis.dim)
    )
    return MatrixRep(nu=nu, row_basis=basis, syzygies=syz, entries=entries)


def _as_tpoly(entry) -> TPoly:
    if isinstance(entry, LinTForm):
        return entry.to_tpoly()
    if isinstance(entry, TPoly):
        return entry
    raise TypeError(f"matrix entries must be LinTForm or TPoly, got {type(entry)!r}")


def _row_content(row: list[TPoly]) -> Fraction:
    nums = 0
    dens = 1
    for entry in row:
        for c in entry.terms.values():
            f = Fraction(c)
            nums = gcd(nums, abs(f.numerator))
            dens = lcm(dens, f.denominator)
    return Fraction(nums, dens)


def _tpoly_exact_div(a: TPoly, b: TPoly) -> TPoly:
    return TPoly._raw(exact_div(a.terms, b.terms))


def bareiss_det(matrix) -> TPoly:
    """Exact determinant of a square matrix of LinTForm/TPoly entries.

    Fraction-free Bareiss elimination: each row's rational content is pulled
    out first so the sweep runs over Z[T], where every division by the
    previous pivot is exact.  Pivots are chosen with full row/column swaps by
    fewest terms.  An n x n matrix of linear forms yields 0 or a homogeneous
    polynomial of total degree n.
    """
    grid = [[_as_tpoly(entry) for entry in row] for row in matrix]
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return TPoly.constant(1)

    scale = Fraction(1)
    for i, row in enumerate(grid):
        content = _row_content(row)
        if not content:
            return TPoly.zero()
        scale *= content
        inv = 1 / content
        grid[i] = [entry * inv for entry in row]

    sign = 1
    prev = TPoly.constant(1)
    for k in range(n - 1):
        best = None
        best_terms = None
        for i in range(k, n):
            for j in range(k, n):
                nterms = len(grid[i][j].terms)
                if nterms and (best is None or nterms < best_terms):
                    best, best_terms = (i, j), nterms
        if best is None:
            return TPoly.zero()
        bi, bj = best
        if bi != k:
            grid[k], grid[bi] = grid[bi], grid[k]
            sign = -sign
        if bj != k:
            for row in grid:
                row[k], row[bj] = row[bj], row[k]
            sign = -sign
        piv = grid[k][k]
        for i in range(k + 1, n):
            left = grid[i][k]
            row = grid[i]
            prow = grid[k]
            for j in range(k + 1, n):
                num = piv * row[j] - left * prow[j]
                row[j] = _tpoly_exact_div(num, prev) if num else TPoly.zero()
            row[k] = TPoly.zero()
        prev = piv
    det = grid[n - 1][n - 1]
    return det * (scale * sign)


def _greedy_independent_columns(numeric: QMatrix, target: int, order=None) -> list[int]:
    """Greedy pick of columns that stay linearly independent, scanned in the
    given order (left-to-right by default), by incremental exact elimination;
    stops after `target` columns.  Returned indices are sorted ascending."""
    rows = numeric.rows
    reduced: list[tuple[int, list]] = []  # (pivot row, reduced column)
    chosen: list[int] = []
    for j in order if order is not None else range(numeric.cols):
        vec = [numeric.data[i][j] for i in range(rows)]
        for pivot_row, basis_vec in reduced:
            f = vec[pivot_row]
            if f:
                vec = [a - f * b for a, b in zip(vec, basis_vec)]
        pivot_row = next((i for i, x in enumerate(vec) if x), None)
        if pivot_row is None:
            continue
        inv = Fraction(1) / Fraction(vec[pivot_row])
        vec = [exact(x * inv) if x else 0 for x in vec]
        reduced.append((pivot_row, vec))
        chosen.append(j)
        if len(chosen) == target:
            break
    return sorted(chosen)


def _certified_minor(M: MatrixRep, seed: int, max_tries: int = 25):
    """Column indices of a certified nonsingular maximal minor plus its exact
    determinant.  Random evaluation proposes columns; bareiss_det certifies.
    """
    if M.rows == 0:
        return [], TPoly.constant(1)
    if all(entry.is_zero() for row in M.entries for entry in row):
        raise RankDeficientError("matrix of linear forms is zero")
    rng = random.Random(seed)
    for _ in range(max_tries):
        tau = [rng.randint(-RANDOM_COORD_BOUND, RANDOM_COORD_BOUND) for _ in range(4)]
        numeric = M.evaluate(tau)
        chosen = _greedy_independent_columns(numeric, M.rows)
        if len(chosen) < M.rows:
            continue
        det = bareiss_det(M.submatrix(chosen))
        if not det.is_zero():
            return chosen, det
    raise RankDeficientError(
        f"no nonsingular {M.rows}x{M.rows} minor found in {max_tries} attempts"
    )


def select_max_minor(M: MatrixRep, seed: int = 0) -> list[int]:
    """Columns of a square minor of full row size with certified nonzero
    symbolic determinant; raises RankDeficientError when none exists."""
    columns, _ = _certified_minor(M, seed)
    return columns


def propose_minor_columns(M: MatrixRep, seed: int, max_tries: int = 25, shuffle: bool = False):
    """Numeric-only candidate column set of full row size (no certificate);
    None when random evaluations keep coming up short.  With shuffle=True the
    scan order is randomized so different seeds explore different minors."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        tau = [rng.randint(-RANDOM_COORD_BOUND, RANDOM_COORD_BOUND) for _ in range(4)]
        order = None
        if shuffle:
            order = list(range(M.cols))
            rng.shuffle(order)
        chosen = _greedy_independent_columns(M.evaluate(tau), M.rows, order)
        if len(chosen) == M.rows:
            return chosen
    return None


def minor_determinants(M: MatrixRep, seed: int, count: int, jobs: int = 1):
    """Column sets and determinants for up to `count` distinct maximal
    minors.  The first minor is certified; extra minors with zero determinant
    are dropped.  Extra determinants run in a process pool when jobs > 1.
    Returns (columns of the first minor, list of determinants)."""
    first_cols, first_det = _certified_minor(M, seed)
    column_sets = [first_cols]
    seen = {tuple(first_cols)}
    for i in range(1, count):
        candidate = propose_minor_columns(M, seed + 1000 * i, shuffle=True)
        if candidate is not None and tuple(candidate) not in seen:
            seen.add(tuple(candidate))
            column_sets.append(candidate)

    extra = [M.submatrix(cols) for cols in column_sets[1:]]
    if extra and jobs > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(jobs, len(extra))) as pool:
                extra_dets = list(pool.map(bareiss_det, extra))
        except OSError:
            extra_dets = [bareiss_det(sub) for sub in extra]
    else:
        extra_dets = [bareiss_det(sub) for sub in extra]

    dets = [first_det] + [d for d in extra_dets if not d.is_zero()]
    return column_sets[0], dets


def implicit_equation(
    M: MatrixRep, F: Parametrization, seed: int = 0, minors: int = 1, jobs: int = 1
) -> ImplicitResult:
    """Equation of the image from a matrix representation: certified maximal
    minor, fraction-free determinant (gcd over extra minors when requested),
    primitive reduction, and substitution check."""
    columns, dets = minor_determinants(M, seed, minors, jobs)
    equation = reduce_equation(dets)
    return ImplicitResult(
        equation=equation,
        degree=equation.total_degree(),
        minor_columns=tuple(columns),
        verified=verify_substitution(equation, F),
    )


def reduce_equation(dets) -> TPoly:
    """Primitive, sign-normalized gcd of the given determinants."""
    dets = [d for d in dets if not d.is_zero()]
    if not dets:
        raise AllZeroError("all determinants are zero")
    acc = dets[0]
    for other in dets[1:]:
        acc = tpoly_gcd(acc, other)
    return acc.primitive()


def verify_substitution(eq: TPoly, F: Parametrization) -> bool:
    """True iff eq(f1, f2, f3, f4) is the zero polynomial, without expanding it.

    The degree-n part eq_n of eq composes to a bihomogeneous polynomial of
    bidegree (n*e1, n*e2), which is zero exactly when its dehomogenization
    g(s, t) = eq_n(f)(s, 1, t, 1) is.  g has degree at most n*e1 in s and
    n*e2 in t, so it is zero exactly when it vanishes on the integer grid
    {0..n*e1} x {0..n*e2} (Alon, Combinatorial Nullstellensatz, Lemma 2.1).
    Parts of different degree are checked separately: dehomogenizing first
    would let them cancel.
    """
    parts: dict[int, dict[Monomial, object]] = {}
    for mono, coeff in eq.terms.items():
        parts.setdefault(sum(mono), {})[mono] = coeff
    if not parts:
        return True
    forms = {n: TPoly(terms) for n, terms in parts.items()}
    e1, e2 = F.bidegree
    top = max(forms)
    for s in range(top * e1 + 1):
        for t in range(top * e2 + 1):
            values = [f.evaluate((s, 1, t, 1)) for f in F.polys]
            for n, form in forms.items():
                if s <= n * e1 and t <= n * e2 and form.evaluate(values):
                    return False
    return True


def _sample_point(rng: random.Random):
    while True:
        pt = tuple(
            rng.randint(-RANDOM_COORD_BOUND, RANDOM_COORD_BOUND) for _ in range(4)
        )
        if (pt[0], pt[1]) != (0, 0) and (pt[2], pt[3]) != (0, 0):
            return pt


def rank_drop_check(
    M: MatrixRep, F: Parametrization, trials: int = 100, seed: int = 0
) -> bool:
    """Evaluate the matrix at T = F(p) for random parameter points p and
    check that the rank always drops below the row count.  Base points of the
    parametrization are skipped and resampled."""
    rng = random.Random(seed)
    done = 0
    while done < trials:
        pt = _sample_point(rng)
        values = [f.evaluate(pt) for f in F.polys]
        if not any(values):
            continue  # base point
        numeric = M.evaluate(values)
        if exact_rank(numeric) >= M.rows:
            return False
        done += 1
    return True


def _degree_monomials(degree: int) -> list[Monomial]:
    monos = [
        (a, b, c, degree - a - b - c)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
        for c in range(degree - a - b, -1, -1)
    ]
    monos.sort(reverse=True)
    return monos


def _monomial_values(values, degree: int) -> dict[Monomial, int]:
    """Values of every degree <= `degree` monomial at a 4-tuple of integers,
    by single-multiplication dynamic programming."""
    cache: dict[Monomial, int] = {(0, 0, 0, 0): 1}
    for total in range(1, degree + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                for c in range(total - a - b, -1, -1):
                    m = (a, b, c, total - a - b - c)
                    i = next(k for k in range(4) if m[k])
                    parent = list(m)
                    parent[i] -= 1
                    cache[m] = cache[tuple(parent)] * values[i]
    return cache


def interpolation_oracle(F: Parametrization, degree: int, seed: int = 0) -> TPoly:
    """Independent reconstruction of the implicit equation of the image.

    Samples random parameter points away from base points, evaluates every
    degree-`degree` monomial in T at the image points, and extracts the
    one-dimensional nullspace of that evaluation matrix.  The nullspace
    search runs modulo word-sized primes with CRT plus rational
    reconstruction; the answer is certified by exact integer arithmetic
    before being returned, so the only probabilistic ingredient is running
    time.  A nullity >= 2 can mean either an unlucky point configuration or a
    genuinely fat solution space, so the sample is enlarged a few times (rank
    only ever grows with more points) before giving up.

    Raises NoEquationError when the nullspace is certified trivial (degree
    too small) and AmbiguousNullspaceError when a one-dimensional nullspace
    cannot be certified (degree too large or degenerate sampling).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    monos = _degree_monomials(degree)
    ncols = len(monos)
    assert ncols == comb(degree + 3, 3)

    rng = random.Random(seed)
    seen: set[tuple] = set()
    exact_rows: list[list[int]] = []

    def extend_rows(target: int) -> None:
        while len(exact_rows) < target:
            pt = _sample_point(rng)
            if pt in seen:
                continue
            seen.add(pt)
            values = tuple(f.evaluate(pt) for f in F.polys)
            if not any(values):
                continue  # base point
            cache = _monomial_values(values, degree)
            exact_rows.append([cache[m] for m in monos])

    primes = prime_stream()
    target = ncols + 60
    for _ in range(4):
        extend_rows(target)
        equation = _oracle_attempt(exact_rows, monos, primes, degree)
        if equation is not None:
            return equation
        target += max(150, ncols // 2)
    raise AmbiguousNullspaceError(
        f"could not certify a one-dimensional space of degree-{degree} forms "
        "from the samples (degree too large or degenerate sampling)"
    )


def _oracle_attempt(exact_rows, monos, primes, degree):
    """One pass over the current sample: gather nullity-1 primes, CRT, and
    verify exactly.  Returns the equation, raises NoEquationError on a
    certified empty nullspace, or returns None when the sample looks too thin
    (persistent nullity >= 2) or the prime budget runs out."""
    ncols = len(monos)
    used: list[tuple[int, tuple[int, ...], np.ndarray]] = []
    fat_primes = 0
    batch = 4
    max_primes = 32
    consumed = 0
    while True:
        while len(used) < batch:
            if fat_primes >= 2 or consumed >= max_primes:
                return None
            p = next(primes)
            consumed += 1
            A = np.array(
                [[x % p for x in row] for row in exact_rows], dtype=np.int64
            )
            pivots, basis = nullspace_mod_p(A, p)
            if len(basis) == 0:
                raise NoEquationError(
                    f"no nonzero degree-{degree} form vanishes on the samples"
                )
            if len(basis) == 1:
                used.append((p, tuple(pivots), basis[0]))
            else:
                # either an unlucky prime (true nullity 1) or too few rows;
                # two in a row means the sample itself should grow
                fat_primes += 1
        pattern_counts: dict[tuple[int, ...], int] = {}
        for _, piv, _ in used:
            pattern_counts[piv] = pattern_counts.get(piv, 0) + 1
        pivot_pattern = max(pattern_counts, key=pattern_counts.get)
        group = [(p, vec) for p, piv, vec in used if piv == pivot_pattern]
        candidate = _reconstruct_vector(group, ncols)
        if candidate is not None:
            vec = _primitive_integer_vector(candidate)
            if all(
                sum(a * v for a, v in zip(row, vec) if v) == 0 for row in exact_rows
            ):
                terms = {m: c for m, c in zip(monos, vec) if c}
                return TPoly(terms).primitive()
        if batch >= max_primes:
            return None
        batch = min(batch * 2, max_primes)


def _reconstruct_vector(group, ncols):
    """CRT-combine per-prime nullspace vectors and rationally reconstruct
    each coordinate; None when any coordinate fails."""
    moduli = [p for p, _ in group]
    out = []
    for j in range(ncols):
        residues = [int(vec[j]) for _, vec in group]
        value, modulus = crt_combine(residues, moduli)
        f = rational_reconstruct(value, modulus)
        if f is None:
            return None
        out.append(f)
    return out


def _primitive_integer_vector(coords) -> list[int]:
    """Clear denominators, divide by the content, and normalize the sign of
    the first nonzero coordinate to positive."""
    denom = 1
    for f in coords:
        denom = lcm(denom, Fraction(f).denominator)
    ints = [int(f * denom) for f in coords]
    content = 0
    for x in ints:
        content = gcd(content, abs(x))
    if content > 1:
        ints = [x // content for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints
