"""Implicitization of rational surfaces parametrized over P1 x P1.

Given four bihomogeneous polynomials of bidegree (e1, e2) in k[s,u,t,v], the
package assembles, over exact rational arithmetic, the matrix of linear forms
in T1..T4 whose maximal minors vanish on the image surface in P3, computes
its determinant exactly by evaluation modulo primes up to a proven
coefficient bound, and reduces and verifies the resulting implicit equation.
"""

from .cli import InputSpec, OutputReport, run_implicitize
from .complexes import (
    ComplexSummary,
    InvalidBidegreeError,
    KoszulSlice,
    RegionSpec,
    SyzygyBasis,
    complex_summary,
    in_good_region,
    koszul_slice,
    region,
    suggested_nu,
    syzygy_basis,
)
from .linalg import (
    DegreeMismatchError,
    GradedBasis,
    QMatrix,
    coeff_vector,
    graded_basis,
    multiplication_matrix,
    poly_from_vector,
    rref_nullspace,
)
from .matrixrep import (
    AllZeroError,
    AmbiguousNullspaceError,
    MatrixRep,
    NoEquationError,
    PipelineError,
    RankDeficientError,
    bareiss_det,
    build_matrix,
    interpolation_oracle,
    minor_determinants,
    rank_drop_check,
    reduce_equation,
    verify_substitution,
)
from .parser import ParseError, UnknownVariableError, parse_poly, parse_tpoly
from .poly import (
    Bidegree,
    BigradedPoly,
    InputError,
    NotBihomogeneousError,
    Parametrization,
    Rational,
    TPoly,
    ZeroPolynomialError,
    substitute_T,
    tpoly_gcd,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroError",
    "AmbiguousNullspaceError",
    "Bidegree",
    "BigradedPoly",
    "ComplexSummary",
    "DegreeMismatchError",
    "GradedBasis",
    "InputError",
    "InputSpec",
    "InvalidBidegreeError",
    "KoszulSlice",
    "MatrixRep",
    "NoEquationError",
    "NotBihomogeneousError",
    "OutputReport",
    "ParseError",
    "Parametrization",
    "PipelineError",
    "QMatrix",
    "RankDeficientError",
    "Rational",
    "RegionSpec",
    "SyzygyBasis",
    "TPoly",
    "UnknownVariableError",
    "ZeroPolynomialError",
    "bareiss_det",
    "build_matrix",
    "coeff_vector",
    "complex_summary",
    "graded_basis",
    "in_good_region",
    "interpolation_oracle",
    "koszul_slice",
    "minor_determinants",
    "multiplication_matrix",
    "parse_poly",
    "parse_tpoly",
    "poly_from_vector",
    "rank_drop_check",
    "reduce_equation",
    "region",
    "rref_nullspace",
    "run_implicitize",
    "substitute_T",
    "suggested_nu",
    "syzygy_basis",
    "tpoly_gcd",
    "verify_substitution",
]
