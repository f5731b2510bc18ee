"""Correctness check of the benchmark's outputs, independent of the program.

An implicit equation E is accepted when E(f1..f4) vanishes identically.
E(f) is bihomogeneous of bidegree (n*e1, n*e2) for n = deg E, so it is zero
exactly when g(s, t) = E(f)(s, 1, t, 1) is; g has degree at most n*e1 in s
and n*e2 in t, so it is zero exactly when it vanishes on an
(n*e1 + 1) x (n*e2 + 1) grid of integers (Alon, Combinatorial
Nullstellensatz, Lemma 2.1).  The evaluation is exact integer arithmetic
and shares no code with `verify_substitution`.
"""

from __future__ import annotations

import re

TARGET_VARS = ("T1", "T2", "T3", "T4")
_SIGNED_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_terms(text: str, names) -> dict:
    """Sum of signed monomial terms, as the program prints them
    (`3*s^2*t - u*v`, `T1*T4 - T2*T3`), into {exponents: int}."""
    index = {name: i for i, name in enumerate(names)}
    compact = text.replace(" ", "")
    if compact == "0":
        return {}
    if "".join(sign + body for sign, body in _SIGNED_TERM.findall(compact)) != compact:
        raise ValueError(f"not a sum of terms: {text!r}")
    terms: dict = {}
    for sign, body in _SIGNED_TERM.findall(compact):
        coeff = -1 if sign == "-" else 1
        exps = [0] * len(names)
        for factor in body.split("*"):
            if factor.isascii() and factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index or not (power == "" or power.isdigit()):
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            exps[index[name]] += int(power) if power else 1
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    return {m: c for m, c in terms.items() if c}


def degree(terms: dict) -> int:
    """Total degree when every term has the same degree, else -1."""
    degrees = {sum(m) for m in terms}
    return degrees.pop() if len(degrees) == 1 else -1


def vanishes_on_image(equation: dict, polys, bidegree) -> bool:
    """True iff the homogeneous form `equation` in T1..T4 vanishes
    identically on the image of the map (f1..f4) of the given bidegree."""
    n = degree(equation)
    if n < 1:
        return False
    e1, e2 = bidegree
    for s in range(n * e1 + 1):
        for t in range(n * e2 + 1):
            values = [
                sum(c * s**a * t**cc for (a, _, cc, _), c in f.items()) for f in polys
            ]
            powers = []
            for x in values:
                row = [1] * (n + 1)
                for k in range(1, n + 1):
                    row[k] = row[k - 1] * x
                powers.append(row)
            p1, p2, p3, p4 = powers
            total = sum(
                c * p1[a] * p2[b] * p3[cc] * p4[d]
                for (a, b, cc, d), c in equation.items()
            )
            if total:
                return False
    return True


def check_equation(text: str, instance) -> tuple[bool, bool, int]:
    """(vanishes on the image, has the image degree, degree) of an equation
    printed by the program, against the benchmark's own copy of the map."""
    terms = parse_terms(text, TARGET_VARS)
    n = degree(terms)
    ok = vanishes_on_image(terms, instance.polys, instance.bidegree)
    return ok, n == instance.image_degree, n
