"""Exact gcd of multivariate polynomials over Z by heuristic evaluation
(GCDHEU: Char, Geddes and Gonnet, J. Symb. Comp. 1989; Geddes, Czapor and
Labahn, *Algorithms for Computer Algebra*, section 7.7).

Polynomials are plain dicts mapping exponent tuples to integer coefficients.
For nonzero primitive f, g in Z[x1..xk] the last variable is evaluated at
an integer xi >= 2*min(|f|, |g|) + 2 (|.| the largest absolute coefficient),
and the gcd gamma of f(xi), g(xi) in Z[x1..x(k-1)] is found the same way,
down to the integer gcd.  The xi-adic expansion of gamma with digits in the
symmetric range is a polynomial h with h(xi) = gamma exactly.  Its primitive
part is accepted only when it divides both f and g exactly over Z, and by
GCL Theorem 7.7 that trial division alone proves it is the gcd: the xi bound
is what makes any common divisor of f, g that passes it the greatest one.

Otherwise xi grows and the attempt is repeated.  This ends: with f = G*u and
g = G*v for coprime u, v, gamma = G(xi)*E where E = gcd(u(xi), v(xi)).  A
nonconstant E survives only at the finitely many xi where a nonzero
resultant of u and v vanishes, and otherwise E is an integer dividing a
fixed integer of u and v alone (the univariate resultant when k = 1).  Once
xi also exceeds 2*|E*G|, the expansion of gamma is E*G itself, whose
primitive part is G.

The evaluations are large integers (their size multiplies with each
variable), but one gcd of those integers replaces the polynomial remainder
sequences of a classical method; the only polynomial arithmetic left is the
trial division.  Results are primitive with a positive leading coefficient
in descending lex order.
"""

from __future__ import annotations

from math import gcd, isqrt

from .poly import TPoly


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


def _primitive(p: dict) -> tuple[int, dict]:
    cont = gcd(*p.values())
    return cont, {m: c // cont for m, c in p.items()}


def _evaluate_last(p: dict, xi: int, degree: int) -> dict:
    """p with its last variable set to xi, on exponent tuples one shorter."""
    powers = [1]
    for _ in range(degree):
        powers.append(powers[-1] * xi)
    out: dict = {}
    for mono, c in p.items():
        key = mono[:-1]
        out[key] = out.get(key, 0) + c * powers[mono[-1]]
    return {m: c for m, c in out.items() if c}


def _lift(gamma: dict, xi: int) -> dict:
    """The polynomial h in one more variable with h(xi) = gamma, each
    coefficient expanded in base xi with digits in (-xi/2, xi/2]."""
    half = xi // 2
    out: dict = {}
    for mono, c in gamma.items():
        e = 0
        while c:
            c, d = divmod(c, xi)
            if d > half:
                d -= xi
                c += 1
            if d:
                out[mono + (e,)] = d
            e += 1
    return out


def _gcd(f: dict, g: dict) -> dict:
    """A gcd of integer term dicts, not both zero, over Z in the variables
    of their (equal-length) exponent tuples; the sign is not normalized."""
    if not f:
        return g
    if not g:
        return f
    nvars = len(next(iter(f)))
    if nvars == 0:
        return {(): gcd(f[()], g[()])}
    cf, f = _primitive(f)
    cg, g = _primitive(g)
    content = gcd(cf, cg)
    df = max(m[-1] for m in f)
    dg = max(m[-1] for m in g)
    if df == dg == 0:
        # the last variable is absent: drop it rather than evaluate
        h = _gcd(
            {m[:-1]: c for m, c in f.items()}, {m[:-1]: c for m, c in g.items()}
        )
        return {m + (0,): c * content for m, c in h.items()}
    norm = min(max(map(abs, f.values())), max(map(abs, g.values())))
    xi = 2 * norm + 2
    while True:
        gamma = _gcd(_evaluate_last(f, xi, df), _evaluate_last(g, xi, dg))
        _, h = _primitive(_lift(gamma, xi))
        try:
            exact_div(f, h)
            exact_div(g, h)
        except ArithmeticError:
            xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
            continue
        return {m: c * content for m, c in h.items()}


def tpoly_gcd(a: TPoly, b: TPoly) -> TPoly:
    """Primitive, sign-normalized gcd of two target-ring polynomials."""
    if a.is_zero() and b.is_zero():
        return TPoly.zero()
    g = _gcd(a.primitive().terms, b.primitive().terms)
    return TPoly(g).primitive()
