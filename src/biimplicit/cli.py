"""Command-line interface and pipeline orchestration.

Input is a JSON document with the fields `bidegree`, `polynomials` (four
expression strings), and optional `nu`, `seed`, `minors`; the options
`--nu`, `--seed` and `--minors` override the document's values.
`run_implicitize` is the one pipeline behind every strand command:
`hilbert` and `matrix` print parts of its matrix-only report.  Reports are
JSON on stdout; exit code 0 on success, 1 on any `InputError`, 2 on any
`PipelineError`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace

from .complexes import (
    ComplexSummary,
    complex_summary,
    in_good_region,
    region,
    suggested_nu,
)
from .matrixrep import (
    MatrixRep,
    PipelineError,
    build_matrix,
    certify_determinant,
    minor_determinants,
    reduce_equation,
    verify_substitution,
)
from .parser import MAX_DEGREE, ParseError, parse_poly, parse_tpoly
from .poly import (
    Bidegree,
    BigradedPoly,
    InputError,
    Parametrization,
    TPoly,
    as_bidegree,
    linear_form_rows,
)

INPUT_KEYS = {"bidegree", "polynomials", "nu", "seed", "minors"}

# the most maximal minors one run takes the gcd over; each extra minor is
# one more Bareiss determinant, and the largest count in use is 3
MAX_MINORS = 100

# the largest component of `region --bidegree`: a map the parser reads has
# terms of total degree e1 + e2 <= MAX_DEGREE, so this admits the bidegree
# of every such map
MAX_BIDEGREE = MAX_DEGREE

# the most grid points x terms x degree that `verify` evaluates (the grid
# runs only there and on `implicitize`'s gcd path): a degree-n
# equation of a map of bidegree (e1, e2) is evaluated at
# (n*e1 + 1)(n*e2 + 1) points.  A dense equation costs 13-16 ns a unit, so
# rand33's own (degree 18, 1330 terms, 72.4 million units) checks in about
# 1 s; a sparse one of degree 128 near the limit takes 20-40 s.
MAX_VERIFY_WORK = 2**27

# the matrix-only report's warning, left out by `hilbert` and `matrix`
MATRIX_ONLY_NOTE = "determinant and verification skipped (matrix only)"


@dataclass(frozen=True)
class InputSpec:
    bidegree: Bidegree
    polynomials: tuple[str, str, str, str]
    nu: Bidegree | None = None
    seed: int = 0
    minors: int = 1

    def __post_init__(self):
        # every source of nu and minors (the JSON fields and the options)
        # ends up here; a plain pair becomes the Bidegree the polynomials
        # are compared with
        object.__setattr__(self, "bidegree", as_bidegree(self.bidegree))
        if self.nu is not None:
            object.__setattr__(self, "nu", as_bidegree(self.nu))
        if self.nu is not None and min(self.nu) < 0:
            raise InputError(f"nu must be nonnegative, got {tuple(self.nu)}")
        if self.minors < 1:
            raise InputError(f"minors must be a positive integer, got {self.minors}")
        if self.minors > MAX_MINORS:
            raise InputError(f"minors must be at most {MAX_MINORS}, got {self.minors}")


@dataclass
class OutputReport:
    bidegree: Bidegree
    region: tuple[Bidegree, Bidegree]
    nu_used: Bidegree
    summary: ComplexSummary
    matrix: MatrixRep
    seed: int
    minor_columns: list[int] | None = None
    equation: TPoly | None = None
    equation_degree: int | None = None
    verified: bool | None = None
    warnings: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self, keys=None) -> dict:
        """The JSON report; with `keys`, only those keys are built."""
        S, M = self.summary, self.matrix
        builders = {
            "bidegree": lambda: list(self.bidegree),
            "region": lambda: region_dict(self.bidegree, self.region),
            "nu_used": lambda: list(self.nu_used),
            "summary": lambda: {
                "nu": list(S.nu),
                "dims": list(S.dims),
                "euler": S.euler,
                "macrae_degree": S.macrae_degree,
            },
            "matrix": lambda: {
                "nu": list(M.nu),
                "rows": M.rows,
                "cols": M.cols,
                "row_basis": [str(BigradedPoly.monomial(m)) for m in M.row_basis],
                "entries": linear_form_rows(M.integer_coefficients, M.column_contents),
            },
            "minor_columns": lambda: (
                list(self.minor_columns) if self.minor_columns is not None else None
            ),
            "equation": lambda: None if self.equation is None else str(self.equation),
            "equation_degree": lambda: self.equation_degree,
            "verified": lambda: self.verified,
            "seed": lambda: self.seed,
            "warnings": lambda: list(self.warnings),
            "timings": lambda: dict(self.timings),
        }
        wanted = builders if keys is None else keys
        return {key: build() for key, build in builders.items() if key in wanted}


def region_dict(e, corners) -> dict:
    return {"bidegree": list(e), "corners": [list(c) for c in corners]}


def load_input(path: str) -> InputSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read input file: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"input file is not valid JSON: {err}") from err
    except ValueError as err:  # a number with more digits than int() converts
        raise InputError(f"input file cannot be read: {err}") from err
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
    counts = {key: raw[key] for key in ("seed", "minors") if key in raw}
    for key, value in counts.items():
        if not _is_int(value):
            raise InputError(f"'{key}' must be an integer")
    return InputSpec(
        bidegree=bidegree,
        polynomials=tuple(polys),
        nu=nu,
        **counts,
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
    bidegree; every failure is an InputError."""
    polys = []
    for i, text in enumerate(spec.polynomials):
        try:
            polys.append(parse_poly(text))
        except ParseError as err:
            raise InputError(f"polynomial {i + 1}: {err}") from err
    return Parametrization(tuple(polys), spec.bidegree)


def _degree(spec: InputSpec) -> tuple[Bidegree, str | None]:
    """The degree in use, and a warning when it dominates neither corner."""
    nu_used = spec.nu if spec.nu is not None else suggested_nu(spec.bidegree)
    if in_good_region(spec.bidegree, nu_used):
        return nu_used, None
    return nu_used, (
        f"nu={tuple(nu_used)} is inside the torsion-affected region; "
        "the determinant may be zero or miss the implicit equation"
    )


def run_implicitize(
    spec: InputSpec, matrix_only: bool = False, verify: bool = True
) -> OutputReport:
    """Full pipeline: region and degree selection, matrix assembly, slice
    dimensions, minor selection, determinants (gcd over extra minors when
    requested), primitive reduction, and the certificate.  A single
    determinant is certified by `certify_determinant` (its matrix's columns
    are syzygies), a gcd by the substitution grid; an equation that fails
    its check is a PipelineError, and verify=False skips both."""
    timings: dict[str, float] = {}
    total_start = time.perf_counter()

    def timed(key, stage, *args):
        start = time.perf_counter()
        result = stage(*args)
        timings[key] = _ms(start)
        return result

    F = build_parametrization(spec)
    nu_used, region_note = timed("region_ms", _degree, spec)
    M = timed("matrix_ms", build_matrix, F, nu_used)
    summary = timed("summary_ms", complex_summary, F, M)
    report = OutputReport(
        bidegree=spec.bidegree,
        region=region(spec.bidegree),
        nu_used=nu_used,
        summary=summary,
        matrix=M,
        seed=spec.seed,
        warnings=[region_note] if region_note else [],
        timings=timings,
    )
    warnings = report.warnings
    if matrix_only:
        timings["total_ms"] = _ms(total_start)
        warnings.append(MATRIX_ONLY_NOTE)
        return report

    report.minor_columns, dets = timed(
        "determinant_ms", minor_determinants, M, spec.seed, spec.minors
    )
    if spec.minors > 1 and len(dets) == 1 and M.rows == M.cols:
        warnings.append(
            "matrix is square; extra minors coincide with the full matrix"
        )
    equation = report.equation = timed("reduce_ms", reduce_equation, dets)
    degree = report.equation_degree = equation.total_degree()
    if degree < summary.macrae_degree:
        warnings.append(
            "gcd over minors removed an extraneous factor; the reported "
            "equation may still be a power of the irreducible one"
        )
    elif degree > summary.macrae_degree:
        warnings.append(
            f"equation degree {degree} exceeds the MacRae degree "
            f"{summary.macrae_degree}: the minor carries an extraneous factor"
        )

    def check():
        if len(dets) > 1:
            return verify_substitution(equation, F)
        certify_determinant(M, F, report.minor_columns, dets[0])
        return True

    report.verified = timed("verify_ms", check if verify else lambda: None)
    if report.verified is False:
        raise PipelineError(
            f"substitution check failed: the degree-{degree} equation does not "
            "vanish on the image"
        )

    timings["total_ms"] = _ms(total_start)
    return report


def _ms(start: float) -> float:
    return round((time.perf_counter() - start) * 1000.0, 3)


# -- command line ---------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _integer_argument(text: str, name: str, what: str = "an integer") -> int:
    """An optional '-' and ASCII digits, as in the input language; int()
    alone would also take spaces, '_' and the digits of other scripts."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"{name} must be {what}, got {text!r}")


def _pair_argument(text: str, name: str) -> Bidegree:
    what = "two comma-separated integers"
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"{name} must be {what}, got {text!r}")
    return Bidegree(*(_integer_argument(part, name, what) for part in parts))


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_region(args) -> int:
    e = _pair_argument(args.bidegree, "--bidegree")
    corners = region(e)
    if max(e) > MAX_BIDEGREE:
        raise InputError(f"--bidegree components must be at most {MAX_BIDEGREE}")
    _emit({**region_dict(e, corners), "suggested_nu": list(suggested_nu(e))})
    return 0


def _load_spec(args) -> InputSpec:
    """The input document with the values given by --nu, --seed and
    --minors put in place of its own."""
    spec = load_input(args.input)
    overrides = {}
    if args.nu:
        overrides["nu"] = _pair_argument(args.nu, "--nu")
    for name in ("seed", "minors"):
        if getattr(args, name, None) is not None:
            overrides[name] = _integer_argument(getattr(args, name), f"--{name}")
    return replace(spec, **overrides)


def _cmd_summary(args) -> int:
    """`hilbert` and `matrix`: the matrix-only report up to the slice
    summary, with the matrix for `matrix`, and its warnings."""
    report = run_implicitize(_load_spec(args), matrix_only=True)
    keys = {"bidegree", "region", "nu_used", "summary"}
    if args.command == "matrix":
        keys.add("matrix")
    document = report.to_dict(keys)
    document["warnings"] = [w for w in report.warnings if w != MATRIX_ONLY_NOTE]
    _emit(document)
    return 0


def _cmd_implicitize(args) -> int:
    spec = _load_spec(args)
    # emit the degree warning before the pipeline so it survives failures
    region_note = _degree(spec)[1]
    if region_note:
        print(f"warning: {region_note}", file=sys.stderr)
    report = run_implicitize(spec, matrix_only=args.matrix_only, verify=args.verify)
    for message in report.warnings:
        if message != region_note:
            print(f"warning: {message}", file=sys.stderr)
    _emit(report.to_dict())
    return 0


def _cmd_verify(args) -> int:
    F = build_parametrization(load_input(args.input))
    try:
        with open(args.equation, "r", encoding="utf-8") as handle:
            text = handle.read().strip()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read equation file: {err}") from err
    try:
        equation = parse_tpoly(text)
    except ParseError as err:
        raise InputError(f"equation file: {err}") from err
    if equation.is_zero():  # it vanishes on every surface
        raise InputError("equation file: the equation is the zero polynomial")
    n = equation.total_degree()
    e1, e2 = F.bidegree
    if (n * e1 + 1) * (n * e2 + 1) * len(equation.terms) * n > MAX_VERIFY_WORK:
        raise InputError(
            f"equation file: the degree-{n} equation with {len(equation.terms)} "
            f"terms is too large to check: grid points x terms x degree above "
            f"{MAX_VERIFY_WORK}"
        )
    _emit({"verified": verify_substitution(equation, F), "equation_degree": n})
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
    for name, func, help_text in (
        ("region", _cmd_region, "corners of the usable evaluation-degree region"),
        ("hilbert", _cmd_summary, "slice dimensions and determinant degree prediction"),
        ("matrix", _cmd_summary, "assemble the matrix representation"),
        ("implicitize", _cmd_implicitize, "full implicitization pipeline"),
        ("verify", _cmd_verify, "substitute the parametrization into an equation file"),
    ):
        sub.add_parser(name, help=help_text).set_defaults(func=func)
    command = sub.choices
    command["region"].add_argument("--bidegree", required=True, metavar="E1,E2")
    for name in ("hilbert", "matrix", "implicitize", "verify"):
        command[name].add_argument("input")
    for name in ("hilbert", "matrix", "implicitize"):
        command[name].add_argument("--nu", metavar="A,B")
    command["implicitize"].add_argument("--minors", metavar="K")
    command["implicitize"].add_argument("--seed", metavar="N")
    command["implicitize"].add_argument(
        "--verify",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "certify the equation: a single determinant by the syzygy identity "
            "of its matrix, a gcd over minors by substitution (default: on)"
        ),
    )
    command["implicitize"].add_argument(
        "--matrix-only",
        action="store_true",
        help="skip determinant computation for large instances",
    )
    command["verify"].add_argument("--equation", required=True, metavar="FILE")
    return parser


def _join_pairs(argv) -> list[str]:
    """argv with '--nu -1,2' joined as '--nu=-1,2', and so for --bidegree
    and abbreviations of both: argparse takes '-1,2' for an option and
    reports a missing argument."""
    joined: list[str] = []
    for word in argv:
        last = joined[-1] if joined else ""
        pair = len(last) > 2 and ("--nu".startswith(last) or "--bidegree".startswith(last))
        if pair and word[:1] == "-" and word[1:2].isdigit():
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_pairs(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except PipelineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
