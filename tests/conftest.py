import random
import re
from fractions import Fraction

import numpy as np
import pytest

from biimplicit.matrixrep import MatrixRep
from biimplicit.modnull import _echelon_mod_p
from biimplicit.parser import parse_poly
from biimplicit.poly import Bidegree, BigradedPoly, Parametrization, TPoly
from biimplicit.poly import divide_content, rational_content
from biimplicit.linalg import QMatrix, graded_basis

# one-line descriptions registered by test_acceptance, printed per criterion
ACCEPTANCE_LINES: dict[str, str] = {}

_CRITERION_RE = re.compile(r"test_criterion_(\w+)")


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    key = match.group(1)
    status = "PASS" if report.outcome == "passed" else "FAIL"
    label = key.split("_")[0]
    desc = ACCEPTANCE_LINES.get(key, "")
    suffix = f" - {desc}" if desc else ""
    print(f"\n[acceptance] criterion {label}: {status}{suffix}")

# Golden bidegree-(2,3) example used throughout: four dense bihomogeneous
# polynomials whose image surface has a degree-12 implicit equation.
GOLDEN_STRINGS = (
    "1*s^2*t^3+2*s*u*t^3+3*u^2*t^3+4*s^2*t^2*v+5*s*u*t^2*v+6*u^2*t^2*v"
    "+7*s^2*t*v^2+8*s*u*t*v^2+9*u^2*t*v^2+10*s^2*v^3+1*s*u*v^3+2*u^2*v^3",
    "2*s^2*t^3-3*s^2*t^2*v-s^2*t*v^2+s*u*t^2*v+3*s*u*t*v^2-3*u^2*t^2*v"
    "+2*u^2*t*v^2-u^2*v^3",
    "2*s^2*t^3-3*s^2*t^2*v-2*s*u*t^3+s^2*t*v^2+5*s*u*t^2*v-3*s*u*t*v^2"
    "-3*u^2*t^2*v+4*u^2*t*v^2-u^2*v^3",
    "3*s^2*t^2*v-2*s*u*t^3-s^2*t*v^2+s*u*t^2*v-3*s*u*t*v^2-u^2*t^2*v"
    "+4*u^2*t*v^2-u^2*v^3",
)

# The Segre embedding of P1 x P1: quadric surface T1*T4 = T2*T3.
SEGRE_STRINGS = ("s*t", "s*v", "u*t", "u*v")


def golden_polys():
    return tuple(parse_poly(text) for text in GOLDEN_STRINGS)


@pytest.fixture(scope="session")
def golden_F():
    return Parametrization.from_polys(golden_polys())


@pytest.fixture(scope="session")
def segre_F():
    return Parametrization.from_polys(parse_poly(t) for t in SEGRE_STRINGS)


def syzygy_columns(vectors, nu) -> list[tuple]:
    """Each vector of `syzygy_basis(F, nu)` as its components (a1, a2, a3,
    a4), component i being v[i*n : (i+1)*n] over `graded_basis(nu)`."""
    monomials = graded_basis(nu)
    n = len(monomials)
    return [
        tuple(
            BigradedPoly({m: c for m, c in zip(monomials, v[i * n : (i + 1) * n]) if c})
            for i in range(4)
        )
        for v in vectors
    ]


def random_bipoly(rng: random.Random, deg, density=0.8, bound=9) -> BigradedPoly:
    """Random nonzero bihomogeneous polynomial of the given bidegree."""
    basis = graded_basis(deg)
    while True:
        terms = {
            m: rng.randint(-bound, bound)
            for m in basis
            if rng.random() < density
        }
        p = BigradedPoly(terms)
        if not p.is_zero():
            return p


def random_parametrization(rng: random.Random, deg) -> Parametrization:
    return Parametrization.from_polys(
        random_bipoly(rng, deg) for _ in range(4)
    )


LINEAR_EXPONENTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def lin(c1=0, c2=0, c3=0, c4=0) -> TPoly:
    """The linear form c1*T1 + c2*T2 + c3*T3 + c4*T4."""
    return TPoly(dict(zip(LINEAR_EXPONENTS, (c1, c2, c3, c4))))


def coefficient_rows(entries) -> tuple:
    """Rows of linear TPolys as rows of their coefficient 4-tuples, the
    layout of `MatrixRep.coefficients` that `bareiss_det` takes."""
    return tuple(
        tuple(tuple(e.coefficient(m) for m in LINEAR_EXPONENTS) for e in row)
        for row in entries
    )


def matrix_of(entries, nu=Bidegree(0, 0), row_basis=None) -> MatrixRep:
    """The MatrixRep whose entries are the given linear TPolys, rows over
    `row_basis` (the degree-nu basis by default): each column is held as
    its primitive integer multiple and its positive rational content, 1
    for a zero column."""
    basis = graded_basis(nu) if row_basis is None else row_basis
    rows = coefficient_rows(entries)
    columns, contents = [], []
    for column in zip(*rows):
        content = rational_content(c for e in column for c in e) or Fraction(1)
        columns.append([tuple(divide_content(c, content) for c in e) for e in column])
        contents.append(content)
    return MatrixRep(nu, basis, tuple(zip(*columns)) or rows, tuple(contents))


def identity(n: int) -> QMatrix:
    """The n x n identity matrix."""
    m = QMatrix.zeros(n, n)
    for i in range(n):
        m.data[i][i] = 1
    return m


def matmul(A: QMatrix, B: QMatrix) -> QMatrix:
    """The exact product A B."""
    if A.cols != B.rows:
        raise ValueError("incompatible shapes")
    out = QMatrix.zeros(A.rows, B.cols)
    for i, row in enumerate(A.data):
        orow = out.data[i]
        for k, a in enumerate(row):
            if not a:
                continue
            for j, b in enumerate(B.data[k]):
                if b:
                    orow[j] += a * b
    return out


def matvec(M: QMatrix, vec: list) -> list:
    """The exact product M vec."""
    if M.cols != len(vec):
        raise ValueError("incompatible shapes")
    return [sum(a * x for a, x in zip(row, vec) if a and x) for row in M.data]


def check_kept_rows(A, p: int, kept: list[int]) -> None:
    """The rows that `nullspace_mod_p` and `_echelon_mod_p` report are
    distinct rows of A, and on their own they have the same pivots and
    echelon form mod p, reached without a row swap."""
    assert len(set(kept)) == len(kept) and all(0 <= i < len(A) for i in kept)
    pivots, U, _ = _echelon_mod_p(A, p)
    sub_pivots, sub_U, sub_kept = _echelon_mod_p(A[kept], p)
    assert sub_pivots == pivots and sub_U.tolist() == U.tolist()
    assert sub_kept == list(range(len(kept)))


def residues(rows, cols: int, p: int) -> np.ndarray:
    """The residues mod p of an integer matrix of `cols`-wide rows, as the
    int64 array in [0, p) that `modnull.rank_mod_p` takes."""
    return np.array([[x % p for x in row] for row in rows], np.int64).reshape(len(rows), cols)


def gram_det(vectors) -> int:
    """det of the Gram matrix of independent integer vectors, by elimination
    over Q; the Gram matrix is positive definite, so no pivot is zero."""
    G = [[Fraction(sum(a * b for a, b in zip(u, v))) for v in vectors] for u in vectors]
    det = Fraction(1)
    for c in range(len(G)):
        det *= G[c][c]
        for r in range(c + 1, len(G)):
            f = G[r][c] / G[c][c]
            G[r] = [x - f * y for x, y in zip(G[r], G[c])]
    return int(det)
