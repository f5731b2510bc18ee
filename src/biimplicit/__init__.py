"""Implicitization of rational surfaces parametrized over P1 x P1.

Given four bihomogeneous polynomials of bidegree (e1, e2) in k[s,u,t,v], the
package assembles, over exact rational arithmetic, the matrix of linear forms
in T1..T4 whose maximal minors vanish on the image surface in P3, computes
its determinant exactly by evaluation modulo primes up to a proven
coefficient bound, and reduces and verifies the resulting implicit equation.

The package exports the names of README's Library section and the two error
bases; everything else is imported from its own module.
"""

from .cli import InputSpec, run_implicitize
from .complexes import complex_summary
from .matrixrep import (
    PipelineError,
    build_matrix,
    interpolation_oracle,
    minor_determinants,
    reduce_equation,
    verify_substitution,
)
from .parser import parse_poly
from .poly import Bidegree, InputError, Parametrization

__version__ = "0.1.0"

__all__ = [
    "Bidegree",
    "InputError",
    "InputSpec",
    "Parametrization",
    "PipelineError",
    "build_matrix",
    "complex_summary",
    "interpolation_oracle",
    "minor_determinants",
    "parse_poly",
    "reduce_equation",
    "run_implicitize",
    "verify_substitution",
]
