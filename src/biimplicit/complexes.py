"""Degree slices of the Koszul complex of a parametrization, syzygy bases,
Hilbert-style dimension summaries, and the bidegree region where the
determinant construction is valid.

The Koszul complex on f1..f4 has K_p = sum of free summands e_I over the
size-p subsets I of {1,2,3,4}, with differential
    e_I -> sum over i in I of (-1)^pos(i, I) * f_i * e_(I minus i),
pos 0-based within the sorted subset.  Slicing in one bidegree mu turns each
summand into the graded piece of bidegree mu - p*d (d the bidegree of the
f_i) and each differential into an exact rational block matrix.

`koszul_slice` places the blocks in one numpy array, of int64 entries when
every coefficient fits, by index arithmetic: s^a u^(k-a) t^b v^(l-b) is entry
(k-a)*(l+1) + l-b of the basis of bidegree (k, l).  Elimination over Q reads
the slice as rows of Python numbers, rank mod p as int64 residues.

A run builds each slice once.  K1 is eliminated over Q in `syzygy_basis`,
whose canonical nullspace vectors give the matrix columns.  `complex_summary`
reads dim Z3 off the bidegree of gcd(f1..f4) and builds no K3.  It ranks K2,
a slice of the f_i's primitive parts, modulo a word-sized prime, which can
only underestimate a rank, and keeps the rank when it meets an upper bound
that the complex gives (a differential's image lies in the kernel of the
next one down), building K1 at nu+2d for the second; otherwise fraction-free
elimination over Z finds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .linalg import (
    GradedBasis,
    QMatrix,
    exact_rank,
    graded_basis,
    # unused here; kept because perfbench/spans.py wraps complexes.multiplication_matrix
    multiplication_matrix,  # noqa: F401
    poly_from_vector,
    rref_nullspace,
)
from .modnull import prime_stream, rank_mod_p
from .poly import Bidegree, BigradedPoly, InputError, Parametrization, _gcd, as_bidegree

# Most cells (rows x cols) of one dense Koszul slice, checked before the slice
# is allocated.  The largest slice of a strand, K2, has
# 24 * dim S_nu * dim S_(nu+d) cells: 73,728 for a bidegree-(4,4) map at its
# default nu=(7,3).  The method is meant for small examples; `hilbert` on a
# strand at the limit takes about a second, while the K1 slice of the (60,60)
# monomial map at its default nu alone has 622 million cells.
MAX_SLICE_CELLS = 2**17


class InvalidBidegreeError(InputError):
    """Parametrization bidegree components must be >= 1."""


@dataclass(frozen=True, eq=False)
class KoszulSlice:
    """One bidegree slice of a Koszul differential, with its block layout.

    Blocks of columns are indexed by size-p subsets of {1,2,3,4}, blocks of
    rows by size-(p-1) subsets, both in lexicographic subset order; each
    carries the graded basis of the corresponding shifted piece.
    """

    p: int
    degree: Bidegree
    array: np.ndarray
    row_blocks: tuple[tuple[tuple[int, ...], GradedBasis], ...]
    col_blocks: tuple[tuple[tuple[int, ...], GradedBasis], ...]

    @cached_property
    def matrix(self) -> QMatrix:
        """The exact entries as rows of Python numbers."""
        return QMatrix(*self.array.shape, self.array.tolist())

    def residues(self, prime: int) -> np.ndarray:
        """The entries mod prime, as int64; the entries must be integers."""
        if self.array.dtype == object and any(type(x) is not int for x in self.array.flat):
            raise TypeError("a slice with non-integer entries has no residues")
        return (self.array % prime).astype(np.int64, copy=False)


@dataclass(frozen=True)
class SyzygyBasis:
    """Independent degree-nu syzygies of f1..f4: K1's canonical nullspace
    vectors, component i of vector v being v[i*n : (i+1)*n] over S_nu."""

    nu: Bidegree
    vectors: list[list]

    @cached_property
    def columns(self) -> tuple[tuple[BigradedPoly, BigradedPoly, BigradedPoly, BigradedPoly], ...]:
        """Each syzygy as its four components, built on first use."""
        basis, n = graded_basis(self.nu), _dim(self.nu)
        return tuple(
            tuple(poly_from_vector(v[i * n : (i + 1) * n], basis) for i in range(4))
            for v in self.vectors
        )

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class RegionSpec:
    """Corners of the two shifted quadrants whose union is the set of
    bidegrees where the determinant construction applies."""

    e: Bidegree
    corners: tuple[Bidegree, Bidegree]


@dataclass(frozen=True)
class ComplexSummary:
    nu: Bidegree
    dims: tuple[int, int, int, int]
    euler: int
    macrae_degree: int


def koszul_slice(F: Parametrization, p: int, target_degree) -> KoszulSlice:
    """Exact matrix of the p-th Koszul differential in one bidegree slice."""
    if not 1 <= p <= 4:
        raise ValueError("homological index must be in 1..4")
    mu = as_bidegree(target_degree)
    d = F.bidegree
    col_deg = mu - p * d
    row_deg = mu - (p - 1) * d
    cells = _dim(row_deg) * comb(4, p - 1) * _dim(col_deg) * comb(4, p)
    if cells > MAX_SLICE_CELLS:
        raise InputError(
            f"strand too large: its Koszul slice K{p} would have more than "
            f"{MAX_SLICE_CELLS} cells"
        )
    col_basis = graded_basis(col_deg)
    row_basis = graded_basis(row_deg)
    col_subsets = list(combinations((1, 2, 3, 4), p))
    row_subsets = list(combinations((1, 2, 3, 4), p - 1))
    m, n = row_basis.dim, col_basis.dim
    small = all(type(c) is int and abs(c) < 2**63 for f in F.polys for c in f.terms.values())
    A = np.zeros((m * len(row_subsets), n * len(col_subsets)), np.int64 if small else object)
    # the target row of each term of f_i at each source column, and its coefficient
    k1, k2 = row_deg
    index = np.array([(k1 - a) * (k2 + 1) + k2 - b for a, _, b, _ in col_basis.monomials], int)
    rows = [index - np.array([[a * (k2 + 1) + b] for a, _, b, _ in f.terms]) for f in F.polys]
    values = [np.array([[c] for c in f.terms.values()], A.dtype) for f in F.polys]
    for bj, I in enumerate(col_subsets):
        for pos, i in enumerate(I):
            r0 = row_subsets.index(I[:pos] + I[pos + 1 :]) * m
            A[r0 + rows[i - 1], bj * n + np.arange(n)] = (-1) ** pos * values[i - 1]
    return KoszulSlice(
        p=p,
        degree=mu,
        array=A,
        row_blocks=tuple((J, row_basis) for J in row_subsets),
        col_blocks=tuple((I, col_basis) for I in col_subsets),
    )


def _dim(deg: Bidegree) -> int:
    """Size of `graded_basis(deg)`, without building it."""
    return (deg.d1 + 1) * (deg.d2 + 1) if min(deg) >= 0 else 0


def syzygy_basis(F: Parametrization, nu) -> SyzygyBasis:
    """Canonical basis of the degree-nu syzygies of f1..f4.

    Its vectors are the canonical nullspace of the first Koszul slice;
    every syzygy (a1..a4) satisfies sum(a_i * f_i) = 0 exactly.
    """
    nu = as_bidegree(nu)
    _, nullbasis = rref_nullspace(koszul_slice(F, 1, nu + F.bidegree).matrix)
    return SyzygyBasis(nu=nu, vectors=nullbasis)


def region(e) -> RegionSpec:
    """Corners (2*e1-1, e2-1) and (e1-1, 2*e2-1) bounding the two quadrants
    of usable evaluation bidegrees for a parametrization of bidegree e."""
    e = as_bidegree(e)
    if e.d1 < 1 or e.d2 < 1:
        raise InvalidBidegreeError(f"bidegree components must be >= 1, got {e}")
    return RegionSpec(
        e=e,
        corners=(
            Bidegree(2 * e.d1 - 1, e.d2 - 1),
            Bidegree(e.d1 - 1, 2 * e.d2 - 1),
        ),
    )


def suggested_nu(e) -> Bidegree:
    """Default evaluation bidegree: the corner (2*e1-1, e2-1)."""
    return region(e).corners[0]


def in_good_region(e, nu) -> bool:
    """True iff nu dominates one of the two corners, i.e. the degree-nu slice
    is outside the torsion-affected region."""
    nu = as_bidegree(nu)
    return any(nu.dominates(c) for c in region(e).corners)


def complex_summary(F: Parametrization, M) -> ComplexSummary:
    """Slice dimensions (dim S_nu, dim Z1, dim Z2, dim Z3) of the strand
    behind the matrix M = build_matrix(F, nu), plus the Euler characteristic
    and the predicted determinant degree.  dim S_nu and dim Z1 are M's rows
    and columns.

    Write f = g*f' with g = gcd(f1..f4) of bidegree delta.  Each d_p(f) is
    g*d_p(f'), so both have the same kernels.  The f'_i are coprime, so
    grade(f') >= 2, H3(f') = 0 (Bruns-Herzog, Thm 1.6.17: H_i = 0 for
    i > 4 - grade) and ker d3 = im d4(f'), d4(f') being injective.  So
    dim Z3 = dim S_(nu-d+delta), and d3 at nu+2d has rank
    4*dim S_(nu-d) - dim S_(nu-2d+delta).

    dim Z2 is K2's columns minus the rank of K2 = d2 at nu+2d.  That rank
    is taken mod p, a lower bound, and kept when it meets an upper bound:
    K2's columns minus the rank of d3 at nu+2d, as im d3 lies in ker d2;
    or else dim ker d1 at nu+2d, which contains im d2, bounded by the rank
    mod p of that K1 slice.  Its columns are K2's rows and its rows
    dim S_(nu+2d), so it is built only when it has no more cells than K2.
    Exact elimination finds a rank that meets neither bound.  K2 and K1
    are slices of `_integer_multiple(F)`: the same ranks, integer entries.
    """
    d, nu = F.bidegree, M.nu
    F = _integer_multiple(F)
    K2 = koszul_slice(F, 2, nu + 2 * d)
    cols = K2.array.shape[1]
    # delta from the f_i at u = v = 1, whose gcd has g's degrees less the
    # powers of u and v in g, the least exponents of u and v in any term
    g: dict = {}
    for f in F.polys:
        g = _gcd(g, {(a, c): x for (a, _, c, _), x in f.terms.items()})
        if set(g) == {(0, 0)}:
            break
    monomials = [m for f in F.polys for m in f.terms]
    delta = Bidegree(
        max(a for a, _ in g) + min(m[1] for m in monomials),
        max(c for _, c in g) + min(m[3] for m in monomials),
    )
    p = next(prime_stream())
    r2 = rank_mod_p(K2.residues(p), p)
    bound = cols - 4 * _dim(nu - d) + _dim(nu - 2 * d + delta)
    if r2 != bound and _dim(nu + 2 * d) <= cols:
        K1 = koszul_slice(F, 1, nu + 2 * d).residues(p)
        bound = K1.shape[1] - rank_mod_p(K1, p)
    if r2 != bound:
        r2 = exact_rank(K2.matrix)
    h0, h1, h2, h3 = M.rows, M.cols, cols - r2, _dim(nu - d + delta)
    return ComplexSummary(
        nu=nu,
        dims=(h0, h1, h2, h3),
        euler=h0 - h1 + h2 - h3,
        macrae_degree=h1 - 2 * h2 + 3 * h3,
    )


def _integer_multiple(F: Parametrization) -> Parametrization:
    """F with each f_i replaced by its primitive part c_i * f_i, c_i a
    nonzero rational.  The map e_I -> prod_(i in I) c_i * e_I carries the
    Koszul complex of (c_i f_i) isomorphically onto that of (f_i), so every
    slice rank is the same."""
    return Parametrization(tuple(f.primitive() for f in F.polys), F.bidegree)

