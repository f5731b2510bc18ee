"""The canonical-rational nullspace that `biimplicit.linalg.rref_nullspace`
replaced, kept as the reference for the properties in tests/test_linalg.py.

`rref_nullspace` below is the old function's text unchanged: it reads each
kernel vector off the same reduced integer rows as exact rationals, 1 at
its free coordinate.  `reference_coefficients` is the old `build_matrix`'s
layout of those vectors as matrix columns, whose entries the old reports
printed.
"""

from __future__ import annotations

from fractions import Fraction

from biimplicit.complexes import koszul_slice
from biimplicit.linalg import QMatrix, _rref, graded_basis
from biimplicit.poly import as_bidegree, exact


def rref_nullspace(M: QMatrix) -> tuple[int, list[list]]:
    """Exact rank and canonical nullspace basis of M over Q.

    The basis has one vector per free column, in ascending free-column order;
    each vector carries 1 in its own free coordinate, the negated reduced
    entries in the pivot coordinates, and 0 elsewhere.  M v = 0 exactly.
    """
    rows, pivots = _rref(M.data, M.cols)
    pivot_set = set(pivots)
    basis: list[list] = []
    for fc in range(M.cols):
        if fc in pivot_set:
            continue
        vec = [0] * M.cols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            val = row.get(fc)
            if val:
                vec[pc] = exact(Fraction(-val, row[pc]))
        basis.append(vec)
    return len(pivots), basis


def reference_coefficients(F, nu) -> tuple:
    """The exact coefficient rows of the degree-nu strand, built from the
    canonical vectors above as the old `build_matrix` built them."""
    nu = as_bidegree(nu)
    vectors = rref_nullspace(koszul_slice(F, 1, nu + F.bidegree).matrix)[1]
    n, zero = len(graded_basis(nu)), (0, 0, 0, 0)
    columns = [
        [e if any(e) else zero for e in zip(v[:n], v[n : 2 * n], v[2 * n : 3 * n], v[3 * n :])]
        for v in vectors
    ]
    return tuple(zip(*columns)) if columns else ((),) * n
