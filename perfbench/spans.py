"""Spans around the program's public functions, installed from outside.

Each wrapper replaces a function at the module attribute that its callers
look up at call time (for example `complexes.rref_nullspace`, which
`z_dim` and `syzygy_basis` call), so the program itself is unchanged.  The
wrappers exist only while a `Tracer` is installed.  Spans stay in memory as
(id, parent, op, name, start, end) and are written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
from fractions import Fraction
from time import perf_counter

# (span name, module of the call site, attribute); the span name is the
# module that defines the function.  "matrixrep.MatrixRep" is a class.
SITES = (
    ("parser.parse_poly", "cli", "parse_poly"),
    ("cli.run_implicitize", "cli", "run_implicitize"),
    ("complexes.complex_summary", "cli", "complex_summary"),
    ("matrixrep.build_matrix", "cli", "build_matrix"),
    ("matrixrep.minor_determinants", "cli", "minor_determinants"),
    ("matrixrep.reduce_equation", "cli", "reduce_equation"),
    ("matrixrep.verify_substitution", "cli", "verify_substitution"),
    ("complexes.syzygy_basis", "matrixrep", "syzygy_basis"),
    ("complexes.koszul_slice", "complexes", "koszul_slice"),
    ("linalg.rref_nullspace", "complexes", "rref_nullspace"),
    ("linalg.multiplication_matrix", "complexes", "multiplication_matrix"),
    ("matrixrep.MatrixRep.evaluate", "matrixrep.MatrixRep", "evaluate"),
    ("matrixrep.bareiss_det", "matrixrep", "bareiss_det"),
    ("polygcd.tpoly_gcd", "matrixrep", "tpoly_gcd"),
    ("poly.substitute_T", "matrixrep", "substitute_T"),
    ("linalg.exact_rank", "matrixrep", "exact_rank"),
    ("matrixrep.rank_drop_check", "matrixrep", "rank_drop_check"),
    ("matrixrep.interpolation_oracle", "matrixrep", "interpolation_oracle"),
    ("modnull.nullspace_mod_p", "matrixrep", "nullspace_mod_p"),
    ("modnull.crt_combine", "matrixrep", "crt_combine"),
    ("modnull.rational_reconstruct", "matrixrep", "rational_reconstruct"),
)

# per-layer metrics: (name, unit, better); see README.md for which
# end-to-end metric each should move
PER_LAYER = (
    ("poly.substitute_T.calls", "count", "lower"),
    ("poly.substitute_T.self_s", "s", "lower"),
    ("matrixrep.verify_substitution.s", "s", "lower"),
    ("matrixrep.minor_determinants.s", "s", "lower"),
    ("matrixrep.bareiss_det.calls", "count", "lower"),
    ("matrixrep.bareiss_det.self_s", "s", "lower"),
    ("matrixrep.minor_yield", "ratio", "higher"),
    ("matrixrep.det_terms.max", "count", "lower"),
    ("matrixrep.det_coeff_bits.max", "bits", "lower"),
    ("polygcd.tpoly_gcd.calls", "count", "lower"),
    ("polygcd.tpoly_gcd.self_s", "s", "lower"),
    ("matrixrep.reduce_equation.s", "s", "lower"),
    ("complexes.complex_summary.s", "s", "lower"),
    ("complexes.koszul_slice.calls", "count", "lower"),
    ("complexes.koszul_slice.self_s", "s", "lower"),
    ("complexes.syzygy_basis.s", "s", "lower"),
    ("complexes.slice_cells", "count", "lower"),
    ("linalg.rref_nullspace.calls", "count", "lower"),
    ("linalg.rref_nullspace.self_s", "s", "lower"),
    ("linalg.multiplication_matrix.self_s", "s", "lower"),
    ("matrixrep.build_matrix.self_s", "s", "lower"),
    ("linalg.exact_rank.calls", "count", "lower"),
    ("linalg.exact_rank.self_s", "s", "lower"),
    ("matrixrep.rank_drop_check.s", "s", "lower"),
    ("modnull.nullspace_mod_p.calls", "count", "lower"),
    ("modnull.nullspace_mod_p.self_s", "s", "lower"),
    ("modnull.fat_primes", "count", "lower"),
    ("modnull.prime_yield", "ratio", "higher"),
    ("modnull.rational_reconstruct.calls", "count", "lower"),
    ("modnull.crt_combine.self_s", "s", "lower"),
    ("matrixrep.interpolation_oracle.s", "s", "lower"),
    ("matrixrep.oracle_points", "count", "lower"),
    ("parser.parse_poly.calls", "count", "lower"),
    ("parser.parse_poly.self_s", "s", "lower"),
    ("cli.run_implicitize.s", "s", "lower"),
    ("cli.report_serialize.s", "s", "lower"),
    ("matrixrep.matrix_rows", "count", "lower"),
    ("matrixrep.matrix_cols", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _coeff_bits(c) -> int:
    f = Fraction(c)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


class Tracer:
    """In-memory span recorder with the wrappers that feed it."""

    def __init__(self):
        # [id, parent, op, name, start, end, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = None

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the body; yields its record."""
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.op, name, perf_counter(), None, None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[5] = perf_counter()
            self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][3] == name for i in self._stack)

    def _observe(self, name: str, record: list, args, result) -> None:
        """Deterministic facts about a call, kept on its span."""
        if name == "matrixrep.bareiss_det":
            record[6] = {
                "terms": len(result.terms),
                "bits": max((_coeff_bits(c) for c in result.terms.values()), default=0),
                "certified": self._inside("matrixrep.minor_determinants")
                and not result.is_zero(),
            }
        elif name == "matrixrep.MatrixRep.evaluate":
            record[6] = {"proposal": self._inside("matrixrep.minor_determinants")}
        elif name == "complexes.koszul_slice":
            record[6] = {"cells": result.matrix.rows * result.matrix.cols}
        elif name == "complexes.complex_summary":
            record[6] = {"dims": list(result.dims)}
        elif name == "matrixrep.build_matrix":
            record[6] = {"shape": [result.rows, result.cols]}
        elif name == "modnull.nullspace_mod_p":
            rows = int(args[0].shape[0])
            record[6] = {"rows": rows, "nullity": len(result[1])}
            for i in self._stack:
                if self.spans[i][3] == "matrixrep.interpolation_oracle":
                    info = self.spans[i][6] or {}
                    info["points"] = max(info.get("points", 0), rows)
                    self.spans[i][6] = info

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        from biimplicit import cli, complexes, matrixrep

        owners = {
            "cli": cli,
            "complexes": complexes,
            "matrixrep": matrixrep,
            "matrixrep.MatrixRep": matrixrep.MatrixRep,
        }
        for name, owner_name, attr in SITES:
            owner = owners[owner_name]
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._saved.append((owner, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            tracer._observe(name, record, args, result)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover (one
        thread, so children never overlap)."""
        out = [end - start for _, _, _, _, start, end, _ in self.spans]
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def counters(self) -> dict:
        """The deterministic counters: they repeat exactly between runs."""
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span[3]] = calls.get(span[3], 0) + 1
        infos = [(span[3], span[6]) for span in self.spans if span[6]]

        def pick(name, key):
            return [info[key] for n, info in infos if n == name]

        nullities = pick("modnull.nullspace_mod_p", "nullity")
        return {
            "calls": dict(sorted(calls.items())),
            "matrix_shapes": pick("matrixrep.build_matrix", "shape"),
            "z_dims": pick("complexes.complex_summary", "dims"),
            "slice_cells": sum(pick("complexes.koszul_slice", "cells")),
            "minor_proposals": sum(pick("matrixrep.MatrixRep.evaluate", "proposal")),
            "minors_certified": sum(pick("matrixrep.bareiss_det", "certified")),
            "det_terms_max": max(pick("matrixrep.bareiss_det", "terms"), default=0),
            "det_coeff_bits_max": max(pick("matrixrep.bareiss_det", "bits"), default=0),
            "primes_used": len(nullities),
            "fat_primes": sum(1 for k in nullities if k >= 2),
            "useful_primes": sum(1 for k in nullities if k == 1),
            "oracle_points": sum(pick("matrixrep.interpolation_oracle", "points")),
        }

    def per_layer(self, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric of the traced pass."""
        selfs = self.self_times()
        inclusive: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for span, own in zip(self.spans, selfs):
            name = span[3]
            self_s[name] = self_s.get(name, 0.0) + own
            parent = span[1]
            nested = False
            while parent is not None:
                if self.spans[parent][3] == name:
                    nested = True
                    break
                parent = self.spans[parent][1]
            if not nested:
                inclusive[name] = inclusive.get(name, 0.0) + (span[5] - span[4])
        counters = self.counters()
        calls = counters["calls"]
        shapes = counters["matrix_shapes"]
        values = {
            "matrixrep.minor_yield": _ratio(
                counters["minors_certified"], counters["minor_proposals"]
            ),
            "matrixrep.det_terms.max": counters["det_terms_max"],
            "matrixrep.det_coeff_bits.max": counters["det_coeff_bits_max"],
            "complexes.slice_cells": counters["slice_cells"],
            "modnull.fat_primes": counters["fat_primes"],
            "modnull.prime_yield": _ratio(
                counters["useful_primes"], counters["primes_used"]
            ),
            "matrixrep.oracle_points": counters["oracle_points"],
            "matrixrep.matrix_rows": max((r for r, _ in shapes), default=0),
            "matrixrep.matrix_cols": max((c for _, c in shapes), default=0),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name, _, _ in PER_LAYER:
            if name in values:
                continue
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls.get(layer, 0)
            elif kind == "self_s":
                values[name] = self_s.get(layer, 0.0)
            elif kind == "s":
                values[name] = inclusive.get(layer, 0.0)
            else:
                raise KeyError(name)
        return {name: values[name] for name, _, _ in PER_LAYER}

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end, info in self.spans:
                row = {"id": sid, "parent": parent, "op": op, "name": name,
                       "start": start, "end": end}
                if info:
                    row["info"] = info
                handle.write(json.dumps(row) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
