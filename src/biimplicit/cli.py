"""Command-line interface and pipeline orchestration.

Input is a JSON document with the fields `bidegree`, `polynomials` (four
expression strings), and optional `nu`, `seed`, `minors`.  Reports are JSON
on stdout; exit code 0 on success, 1 on input errors, 2 on pipeline errors.
The environment variable BIIMPLICIT_JOBS (default 1) bounds the number of
worker processes used for the determinants of extra minors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .complexes import (
    ComplexSummary,
    InvalidBidegreeError,
    RegionSpec,
    complex_summary,
    in_good_region,
    region,
    suggested_nu,
)
from .matrixrep import (
    AllZeroError,
    AmbiguousNullspaceError,
    MatrixRep,
    NoEquationError,
    RankDeficientError,
    build_matrix,
    minor_determinants,
    reduce_equation,
    verify_substitution,
)
from .parser import ParseError, parse_poly, parse_tpoly
from .poly import (
    Bidegree,
    NotBihomogeneousError,
    Parametrization,
    TPoly,
    ZeroPolynomialError,
)

INPUT_KEYS = {"bidegree", "polynomials", "nu", "seed", "minors"}


class InputError(ValueError):
    """Malformed input document or command line."""


@dataclass(frozen=True)
class InputSpec:
    bidegree: Bidegree
    polynomials: tuple[str, str, str, str]
    nu: Bidegree | None = None
    seed: int = 0
    minors: int = 1

    def __post_init__(self):
        # every source of nu (the JSON field and --nu) ends up here
        if self.nu is not None and min(self.nu) < 0:
            raise InputError(f"nu must be nonnegative, got {tuple(self.nu)}")


@dataclass
class OutputReport:
    bidegree: Bidegree
    region: RegionSpec
    nu_used: Bidegree
    summary: ComplexSummary
    matrix: MatrixRep
    minor_columns: list[int] | None
    equation: TPoly | None
    equation_degree: int | None
    verified: bool | None
    seed: int
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bidegree": list(self.bidegree),
            "region": region_dict(self.region),
            "nu_used": list(self.nu_used),
            "summary": summary_dict(self.summary),
            "matrix": matrix_dict(self.matrix),
            "minor_columns": (
                list(self.minor_columns) if self.minor_columns is not None else None
            ),
            "equation": format_equation(self.equation)
            if self.equation is not None
            else None,
            "equation_degree": self.equation_degree,
            "verified": self.verified,
            "seed": self.seed,
            "warnings": list(self.warnings),
            "timings": dict(self.timings),
        }


def region_dict(spec: RegionSpec) -> dict:
    return {
        "bidegree": list(spec.e),
        "corners": [list(c) for c in spec.corners],
    }


def summary_dict(summary: ComplexSummary) -> dict:
    return {
        "nu": list(summary.nu),
        "dims": list(summary.dims),
        "euler": summary.euler,
        "macrae_degree": summary.macrae_degree,
    }


def matrix_dict(M: MatrixRep) -> dict:
    from .poly import _format_terms

    return {
        "nu": list(M.nu),
        "rows": M.rows,
        "cols": M.cols,
        "row_basis": [
            _format_terms([(mono, 1)], ("s", "u", "t", "v"))
            for mono in M.row_basis.monomials
        ],
        "entries": [[str(entry) for entry in row] for row in M.entries],
    }


def format_equation(eq: TPoly) -> str:
    """Canonical serialization: descending lex T-terms with integer
    coefficients after clearing denominators."""
    denom = 1
    for c in eq.terms.values():
        denom = lcm(denom, Fraction(c).denominator)
    if denom != 1:
        eq = eq * denom
    return str(eq)


def load_input(path: str) -> InputSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read input file: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"input file is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise InputError("input document must be a JSON object")
    unknown = set(raw) - INPUT_KEYS
    if unknown:
        raise InputError(f"unknown input fields: {sorted(unknown)}")
    for key in ("bidegree", "polynomials"):
        if key not in raw:
            raise InputError(f"missing required field {key!r}")

    bidegree = _parse_pair(raw["bidegree"], "bidegree")
    polys = raw["polynomials"]
    if not isinstance(polys, list) or len(polys) != 4 or not all(
        isinstance(p, str) for p in polys
    ):
        raise InputError("'polynomials' must be a list of 4 expression strings")
    nu = _parse_pair(raw["nu"], "nu") if raw.get("nu") is not None else None
    seed = raw.get("seed", 0)
    if not _is_int(seed):
        raise InputError("'seed' must be an integer")
    minors = raw.get("minors", 1)
    if not _is_int(minors) or minors < 1:
        raise InputError("'minors' must be a positive integer")
    return InputSpec(
        bidegree=bidegree,
        polynomials=tuple(polys),
        nu=nu,
        seed=seed,
        minors=minors,
    )


def _is_int(value) -> bool:
    """JSON integer; bool is a subclass of int, so true/false must be excluded."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_pair(value, name: str) -> Bidegree:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(_is_int(x) for x in value)
    ):
        raise InputError(f"'{name}' must be a pair of integers")
    return Bidegree(value[0], value[1])


def build_parametrization(spec: InputSpec) -> Parametrization:
    """Parse and validate the four polynomial strings against the declared
    bidegree.  ParseError, ZeroPolynomialError, and NotBihomogeneousError
    propagate to the caller; the CLI treats all three as input errors."""
    polys = []
    for i, text in enumerate(spec.polynomials):
        try:
            p = parse_poly(text)
        except ParseError as err:
            raise InputError(f"polynomial {i + 1}: {err}") from err
        polys.append(p)
    return Parametrization(tuple(polys), spec.bidegree)


def _worker_jobs() -> int:
    value = os.environ.get("BIIMPLICIT_JOBS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def _region_warning(bidegree: Bidegree, nu_used: Bidegree) -> str | None:
    if in_good_region(bidegree, nu_used):
        return None
    return (
        f"nu={tuple(nu_used)} is inside the torsion-affected region; "
        "the determinant may be zero or miss the implicit equation"
    )


def run_implicitize(
    spec: InputSpec, matrix_only: bool = False, verify: bool = True
) -> OutputReport:
    """Full pipeline: region and degree selection, slice dimensions, matrix
    assembly, minor selection, determinants (gcd over extra minors when
    requested), primitive reduction, substitution check."""
    timings: dict[str, float] = {}
    warnings: list[str] = []
    total_start = time.perf_counter()

    F = build_parametrization(spec)
    reg = region(spec.bidegree)

    start = time.perf_counter()
    nu_used = spec.nu if spec.nu is not None else suggested_nu(spec.bidegree)
    region_note = _region_warning(spec.bidegree, nu_used)
    if region_note:
        warnings.append(region_note)
    timings["region_ms"] = _ms(start)

    start = time.perf_counter()
    summary = complex_summary(F, nu_used)
    timings["summary_ms"] = _ms(start)

    start = time.perf_counter()
    M = build_matrix(F, nu_used)
    timings["matrix_ms"] = _ms(start)

    if matrix_only:
        timings["total_ms"] = _ms(total_start)
        warnings.append("determinant and verification skipped (matrix only)")
        return OutputReport(
            bidegree=spec.bidegree,
            region=reg,
            nu_used=nu_used,
            summary=summary,
            matrix=M,
            minor_columns=None,
            equation=None,
            equation_degree=None,
            verified=None,
            seed=spec.seed,
            warnings=warnings,
            timings=timings,
        )

    start = time.perf_counter()
    minor_columns, dets = minor_determinants(M, spec.seed, spec.minors, _worker_jobs())
    if spec.minors > 1 and len(dets) == 1 and M.rows == M.cols:
        warnings.append(
            "matrix is square; extra minors coincide with the full matrix"
        )
    timings["determinant_ms"] = _ms(start)

    start = time.perf_counter()
    equation = reduce_equation(dets)
    timings["reduce_ms"] = _ms(start)
    if equation.total_degree() < summary.macrae_degree:
        warnings.append(
            "gcd over minors removed an extraneous factor; the reported "
            "equation may still be a power of the irreducible one"
        )

    start = time.perf_counter()
    verified = verify_substitution(equation, F) if verify else None
    timings["verify_ms"] = _ms(start)
    if verified is False:
        warnings.append("substitution check FAILED: equation does not vanish")

    timings["total_ms"] = _ms(total_start)
    return OutputReport(
        bidegree=spec.bidegree,
        region=reg,
        nu_used=nu_used,
        summary=summary,
        matrix=M,
        minor_columns=minor_columns,
        equation=equation,
        equation_degree=equation.total_degree(),
        verified=verified,
        seed=spec.seed,
        warnings=warnings,
        timings=timings,
    )


def _ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1000.0, 3)


# -- command line ---------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _pair_argument(text: str, name: str) -> Bidegree:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{name} must be two comma-separated integers")
    try:
        return Bidegree(int(parts[0]), int(parts[1]))
    except ValueError as err:
        raise InputError(f"{name} must be two comma-separated integers") from err


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_region(args) -> int:
    e = _pair_argument(args.bidegree, "--bidegree")
    spec = region(e)
    _emit(
        {
            "bidegree": list(spec.e),
            "corners": [list(c) for c in spec.corners],
            "suggested_nu": list(suggested_nu(e)),
        }
    )
    return 0


def _load_common(args) -> tuple[InputSpec, Parametrization, Bidegree, list[str]]:
    spec = load_input(args.input)
    if getattr(args, "nu", None):
        spec = InputSpec(
            bidegree=spec.bidegree,
            polynomials=spec.polynomials,
            nu=_pair_argument(args.nu, "--nu"),
            seed=spec.seed,
            minors=spec.minors,
        )
    F = build_parametrization(spec)
    nu_used = spec.nu if spec.nu is not None else suggested_nu(spec.bidegree)
    note = _region_warning(spec.bidegree, nu_used)
    return spec, F, nu_used, [note] if note else []


def _cmd_hilbert(args) -> int:
    spec, F, nu_used, warnings = _load_common(args)
    reg = region(spec.bidegree)
    summary = complex_summary(F, nu_used)
    _emit(
        {
            "bidegree": list(spec.bidegree),
            "region": region_dict(reg),
            "nu_used": list(nu_used),
            "summary": summary_dict(summary),
            "warnings": warnings,
        }
    )
    return 0


def _cmd_matrix(args) -> int:
    spec, F, nu_used, warnings = _load_common(args)
    reg = region(spec.bidegree)
    summary = complex_summary(F, nu_used)
    M = build_matrix(F, nu_used)
    _emit(
        {
            "bidegree": list(spec.bidegree),
            "region": region_dict(reg),
            "nu_used": list(nu_used),
            "summary": summary_dict(summary),
            "matrix": matrix_dict(M),
            "warnings": warnings,
        }
    )
    return 0


def _cmd_implicitize(args) -> int:
    spec = load_input(args.input)
    overrides = {}
    if args.nu:
        overrides["nu"] = _pair_argument(args.nu, "--nu")
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.minors is not None:
        if args.minors < 1:
            raise InputError("--minors must be a positive integer")
        overrides["minors"] = args.minors
    if overrides:
        spec = InputSpec(
            bidegree=spec.bidegree,
            polynomials=spec.polynomials,
            nu=overrides.get("nu", spec.nu),
            seed=overrides.get("seed", spec.seed),
            minors=overrides.get("minors", spec.minors),
        )
    # emit the degree warning before the pipeline so it survives failures
    nu_used = spec.nu if spec.nu is not None else suggested_nu(spec.bidegree)
    region_note = _region_warning(spec.bidegree, nu_used)
    if region_note:
        print(f"warning: {region_note}", file=sys.stderr)
    report = run_implicitize(spec, matrix_only=args.matrix_only, verify=args.verify)
    for message in report.warnings:
        if message != region_note:
            print(f"warning: {message}", file=sys.stderr)
    _emit(report.to_dict())
    return 0


def _cmd_verify(args) -> int:
    spec = load_input(args.input)
    F = build_parametrization(spec)
    try:
        with open(args.equation, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    except OSError as err:
        raise InputError(f"cannot read equation file: {err}") from err
    try:
        equation = parse_tpoly(text)
    except ParseError as err:
        raise InputError(f"equation file: {err}") from err
    _emit(
        {
            "verified": verify_substitution(equation, F),
            "equation_degree": equation.total_degree(),
        }
    )
    return 0


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="biimplicit",
        description=(
            "Matrix representations and implicit equations of rational "
            "surfaces given by four bihomogeneous polynomials on P1 x P1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_region = sub.add_parser(
        "region", help="corners of the usable evaluation-degree region"
    )
    p_region.add_argument("--bidegree", required=True, metavar="E1,E2")
    p_region.set_defaults(func=_cmd_region)

    p_hilbert = sub.add_parser(
        "hilbert", help="slice dimensions and determinant degree prediction"
    )
    p_hilbert.add_argument("input")
    p_hilbert.add_argument("--nu", metavar="A,B")
    p_hilbert.set_defaults(func=_cmd_hilbert)

    p_matrix = sub.add_parser("matrix", help="assemble the matrix representation")
    p_matrix.add_argument("input")
    p_matrix.add_argument("--nu", metavar="A,B")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_impl = sub.add_parser("implicitize", help="full implicitization pipeline")
    p_impl.add_argument("input")
    p_impl.add_argument("--nu", metavar="A,B")
    p_impl.add_argument("--minors", type=int, metavar="K")
    p_impl.add_argument("--seed", type=int, metavar="N")
    p_impl.add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="check the equation by substitution (default: on)",
    )
    p_impl.add_argument(
        "--matrix-only",
        action="store_true",
        help="skip determinant computation for large instances",
    )
    p_impl.set_defaults(func=_cmd_implicitize)

    p_verify = sub.add_parser(
        "verify", help="substitute the parametrization into an equation file"
    )
    p_verify.add_argument("input")
    p_verify.add_argument("--equation", required=True, metavar="FILE")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (
        InputError,
        ParseError,
        InvalidBidegreeError,
        NotBihomogeneousError,
        ZeroPolynomialError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (
        RankDeficientError,
        AllZeroError,
        NoEquationError,
        AmbiguousNullspaceError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
