"""The `evaluate_many` that `biimplicit.poly` replaced, kept as the
reference for tests/test_poly.py's property.

It multiplies each term's coefficient by its powers of the third and fourth
coordinates separately, so every term costs two products of rows.  The text
below the imports is the old function's unchanged, with the `_horner` it
called copied beside it, so that the reference shares no kernel with the
code it checks.
"""

from __future__ import annotations

import numpy as np

from biimplicit.poly import exact


def evaluate_many(terms: dict, points) -> list:
    """The values `evaluate` gives at each of many integer points, computed
    over numpy object arrays of Python ints: the terms grouped by (a, b) are
    sums over power tables of the third and fourth coordinates, combined by
    Horner's rule in the second coordinate, then the first."""
    x1, x2, x3, x4 = np.array(points, dtype=object).reshape(-1, 4).T
    if not terms:
        return [0] * len(x1)
    groups: dict[int, dict[int, list]] = {}
    for (a, b, c, d), coeff in terms.items():
        groups.setdefault(a, {}).setdefault(b, []).append((c, d, coeff))
    p3, p4 = [[np.ones(len(x1), dtype=object)] for _ in range(2)]
    for x, table, i in ((x3, p3, 2), (x4, p4, 3)):
        for _ in range(max((m[i] for m in terms), default=0)):
            table.append(table[-1] * x)

    def in_x2(row: dict):
        descending = sorted(row.items(), reverse=True)
        return _horner(((b, sum(k * p3[c] * p4[d] for c, d, k in g)) for b, g in descending), x2)

    rows = ((a, in_x2(row)) for a, row in sorted(groups.items(), reverse=True))
    return [exact(x) for x in _horner(rows, x1)]


def _horner(pairs, x):
    """The sum of v * x**k over (k, v) pairs in descending k, by Horner's
    rule; a gap between exponents, as in a sparse high-degree form, is
    crossed by one power instead of one product per missing exponent."""
    total = last = None
    for k, v in pairs:
        total = v if total is None else total * (x if last - k == 1 else x ** (last - k)) + v
        last = k
    return total * x**last if last else total
