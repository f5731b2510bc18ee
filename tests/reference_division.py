"""The tuple-keyed trial division that `biimplicit.poly.exact_div` replaced,
kept as the reference for tests/test_gcd.py's division tests.

It finds each leading term with one `max` over the remainder and adds
exponent tuples term by term.  The function below is the old one unchanged.
"""

from __future__ import annotations


def exact_div(a: dict, b: dict) -> dict:
    """Quotient of integer term dicts by trial division in descending lex
    order; raises ArithmeticError when b does not divide a over Z."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a)
    quo: dict = {}
    lead_b = max(b)
    lb = b[lead_b]
    rest = [(m, c) for m, c in b.items() if m != lead_b]
    while rem:
        lead = max(rem)
        mono = tuple(x - y for x, y in zip(lead, lead_b))
        c, r = divmod(rem.pop(lead), lb)
        if r or min(mono) < 0:
            raise ArithmeticError("inexact polynomial division")
        quo[mono] = c
        for mb, cb in rest:
            m = tuple(x + y for x, y in zip(mono, mb))
            val = rem.get(m, 0) - c * cb
            if val:
                rem[m] = val
            else:
                del rem[m]
    return quo
