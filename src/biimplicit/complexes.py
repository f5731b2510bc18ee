"""Degree slices of the Koszul complex of a parametrization, syzygy bases,
Hilbert-style dimension summaries, and the bidegree region where the
determinant construction is valid.

The Koszul complex on f1..f4 has K_p = sum of free summands e_I over the
size-p subsets I of {1,2,3,4}, with differential
    e_I -> sum over i in I of (-1)^pos(i, I) * f_i * e_(I minus i),
pos 0-based within the sorted subset.  Slicing in one bidegree mu turns each
summand into the graded piece of bidegree mu - p*d (d the bidegree of the
f_i) and each differential into an exact rational block matrix.

A run builds each slice once.  K1 is eliminated over Q in `syzygy_basis`,
whose nullspace gives the matrix columns.  `complex_summary` ranks K2 and
K3 modulo a word-sized prime, which can only underestimate a rank, and
keeps a rank when it meets an upper bound that the complex itself gives
(a differential's image lies in the kernel of the next one down); these
bounds may build K3 and K1 at nu+2d too.  Only a rank that meets no bound
is found by fraction-free elimination over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm

from .linalg import (
    GradedBasis,
    QMatrix,
    exact_rank,
    graded_basis,
    multiplication_matrix,
    poly_from_vector,
    rref_nullspace,
)
from .modnull import prime_stream, rank_mod_p
from .poly import Bidegree, BigradedPoly, InputError, Parametrization, as_bidegree

# Most cells (rows x cols) of one dense Koszul slice, checked before the slice
# is allocated.  The largest slice of a strand, K2 or K3, has
# 24 * dim S_nu * dim S_(nu+d) cells: 73,728 for a bidegree-(4,4) map at its
# default nu=(7,3).  The method is meant for small examples; `hilbert` on a
# strand at the limit takes about a second, while the K1 slice of the (60,60)
# monomial map at its default nu alone has 622 million cells.
MAX_SLICE_CELLS = 2**17


class InvalidBidegreeError(InputError):
    """Parametrization bidegree components must be >= 1."""


@dataclass(frozen=True)
class KoszulSlice:
    """One bidegree slice of a Koszul differential, with its block layout.

    Blocks of columns are indexed by size-p subsets of {1,2,3,4}, blocks of
    rows by size-(p-1) subsets, both in lexicographic subset order; each
    carries the graded basis of the corresponding shifted piece.
    """

    p: int
    degree: Bidegree
    matrix: QMatrix
    row_blocks: tuple[tuple[tuple[int, ...], GradedBasis], ...]
    col_blocks: tuple[tuple[tuple[int, ...], GradedBasis], ...]


@dataclass(frozen=True)
class SyzygyBasis:
    """Independent degree-nu syzygies of f1..f4, one 4-tuple per column."""

    nu: Bidegree
    columns: tuple[tuple[BigradedPoly, BigradedPoly, BigradedPoly, BigradedPoly], ...]

    def __len__(self) -> int:
        return len(self.columns)


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
    row_offset = {J: k * row_basis.dim for k, J in enumerate(row_subsets)}

    mult = [multiplication_matrix(f, col_deg) for f in F.polys]

    M = QMatrix.zeros(row_basis.dim * len(row_subsets), col_basis.dim * len(col_subsets))
    for bj, I in enumerate(col_subsets):
        c0 = bj * col_basis.dim
        for pos, i in enumerate(I):
            J = tuple(x for x in I if x != i)
            r0 = row_offset[J]
            sign = -1 if pos % 2 else 1
            block = mult[i - 1]
            for src, dst in zip(block.data, M.data[r0:]):
                for c, val in enumerate(src):
                    if val:
                        dst[c0 + c] = sign * val
    return KoszulSlice(
        p=p,
        degree=mu,
        matrix=M,
        row_blocks=tuple((J, row_basis) for J in row_subsets),
        col_blocks=tuple((I, col_basis) for I in col_subsets),
    )


def _dim(deg: Bidegree) -> int:
    """Size of `graded_basis(deg)`, without building it."""
    return (deg.d1 + 1) * (deg.d2 + 1) if min(deg) >= 0 else 0


def syzygy_basis(F: Parametrization, nu) -> SyzygyBasis:
    """Canonical basis of the degree-nu syzygies of f1..f4.

    Columns come from the canonical nullspace of the first Koszul slice;
    every column (a1..a4) satisfies sum(a_i * f_i) = 0 exactly.
    """
    nu = as_bidegree(nu)
    _, nullbasis = rref_nullspace(koszul_slice(F, 1, nu + F.bidegree).matrix)
    basis = graded_basis(nu)
    n = basis.dim
    columns = tuple(
        tuple(poly_from_vector(vec[i * n : (i + 1) * n], basis) for i in range(4))
        for vec in nullbasis
    )
    return SyzygyBasis(nu=nu, columns=columns)


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
    and columns; dim Z2 and dim Z3 come from the ranks of the K2 and K3
    slices.

    Each of those ranks is taken mod p, a lower bound on the rank over Q,
    and is proven when it meets an upper bound that the complex gives (see
    `_k2_rank_bounds`): for K3 at nu+3d, its columns minus dim S_(nu-d),
    since d4 there is injective and im d4 lies in ker d3.  A rank that
    meets none is found by exact elimination instead, so the prime can
    only ever cost time.  The K2, K3 and bound slices are those of
    `_integer_multiple(F)`, which have the same ranks and integer entries.
    """
    d, nu = F.bidegree, M.nu
    F = _integer_multiple(F)
    K2 = koszul_slice(F, 2, nu + 2 * d).matrix
    K3 = koszul_slice(F, 3, nu + 3 * d).matrix
    p = next(prime_stream())
    r3 = rank_mod_p(K3.data, K3.cols, p)
    if r3 != K3.cols - _dim(nu - d):
        r3 = exact_rank(K3)
    r2 = rank_mod_p(K2.data, K2.cols, p)
    if not any(r2 == bound for bound in _k2_rank_bounds(F, nu, K2, p)):
        r2 = exact_rank(K2)
    h0, h1, h2, h3 = M.rows, M.cols, K2.cols - r2, K3.cols - r3
    return ComplexSummary(
        nu=nu,
        dims=(h0, h1, h2, h3),
        euler=h0 - h1 + h2 - h3,
        macrae_degree=h1 - 2 * h2 + 3 * h3,
    )


def _integer_multiple(F: Parametrization) -> Parametrization:
    """F with each f_i multiplied by c_i, the lcm of its denominators.  The
    map e_I -> prod_(i in I) c_i * e_I carries the Koszul complex of
    (c_i f_i) isomorphically onto that of (f_i), so every slice rank is the
    same."""
    polys = []
    for f in F.polys:
        c = lcm(*(x.denominator for x in f.terms.values()))
        polys.append(BigradedPoly({m: x * c for m, x in f.terms.items()}))
    return Parametrization(tuple(polys), F.bidegree)


def _k2_rank_bounds(F: Parametrization, nu: Bidegree, K2: QMatrix, p: int):
    """Upper bounds on the rank of K2 = d2 at nu+2d, the second computed
    only when the first has not met the rank mod p: its columns minus the
    rank mod p of d3 at nu+2d, whose image lies in ker d2; and the
    dimension of ker d1 at nu+2d, which contains im d2, bounded by the rank
    mod p of d1 there.  (K2's row count is a bound too, but never a tight
    one: d1 is nonzero, so ker d1 is smaller than its domain, whose basis
    indexes K2's rows.)  That K1 slice has K2's rows as its columns and
    dim S_(nu+2d) rows, so it is built only when it has no more cells than
    K2, and then never exceeds MAX_SLICE_CELLS."""
    d = F.bidegree
    if _dim(nu - d):
        K3 = koszul_slice(F, 3, nu + 2 * d).matrix
        yield K2.cols - rank_mod_p(K3.data, K3.cols, p)
    else:
        yield K2.cols
    if _dim(nu + 2 * d) <= K2.cols:
        K1 = koszul_slice(F, 1, nu + 2 * d).matrix
        yield K1.cols - rank_mod_p(K1.data, K1.cols, p)
