"""Instances and operations of the four benchmark workloads.

Everything here is plain data built from the workload seed; nothing imports
`biimplicit`.  A map is four coefficient dicts {(a, b, c, d): int} for the
monomials s^a u^b t^c v^d, and the program only ever receives them rendered
as expression strings.

Instances come in two kinds:

* fresh random patches, drawn from `random.Random(seed)` with the recipe of
  `tests/conftest.py:random_parametrization` (copied below, so that the
  draws match it exactly);
* fixed reference maps (golden, Segre, and the first draw of
  `random_parametrization(random.Random(7), e)` used by the ROADMAP table),
  whose four polynomials get seed-chosen signs.  f_i -> -f_i maps the image
  by T_i -> -T_i, so the instance changes with the seed while its cost and
  its known defects stay the same.  A fresh draw would not do here: the
  multi-minor gcd path costs from 0.03 s to minutes depending on the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from check import parse_terms

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
SEGRE_STRINGS = ("s*t", "s*v", "u*t", "u*v")
SOURCE_VARS = ("s", "u", "t", "v")

WORKLOADS = ("square", "strand", "rect", "oracle")

# square: 25 rounds of four low-bidegree patches plus two dense maps, so
# that a pass has over 100 operations
PATCH_ROUNDS = 25
PATCH_BIDEGREES = ((1, 1), (1, 2), (2, 1), (1, 3))
# membership queries issued after each operation
QUERIES = {"square": 2, "strand": 6, "rect": 8, "oracle": 20}
POINT_BOUND = 10


@dataclass(frozen=True)
class Instance:
    name: str
    bidegree: tuple[int, int]
    polys: tuple[dict, dict, dict, dict]
    # degree of the image surface, i.e. of its irreducible equation H
    image_degree: int

    def strings(self) -> tuple[str, str, str, str]:
        return tuple(format_terms(p) for p in self.polys)


@dataclass(frozen=True)
class Op:
    """One operation: `kind` is "implicitize" (run_implicitize, full
    pipeline), "matrix" (run_implicitize with matrix_only) or "oracle"
    (interpolation_oracle at the image degree)."""

    kind: str
    instance: Instance
    nu: tuple[int, int] | None = None
    minors: int = 1
    # equation queries: image points T = f(p); matrix queries: seeds
    queries: tuple = field(default=())

    @property
    def name(self) -> str:
        label = f"{self.kind} {self.instance.name}"
        if self.nu is not None:
            label += f" nu={self.nu}"
        if self.minors != 1:
            label += f" minors={self.minors}"
        return label


def monomials(e) -> list[tuple[int, int, int, int]]:
    """Monomials of bidegree e in the order of `linalg.graded_basis`."""
    e1, e2 = e
    return [
        (i, e1 - i, j, e2 - j) for i in range(e1, -1, -1) for j in range(e2, -1, -1)
    ]


def random_poly(rng: random.Random, e, density=0.8, bound=9) -> dict:
    """Nonzero random polynomial of bidegree e (the conftest recipe)."""
    monos = monomials(e)
    while True:
        terms = {
            m: rng.randint(-bound, bound) for m in monos if rng.random() < density
        }
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return terms


def random_map(rng: random.Random, e) -> tuple:
    return tuple(random_poly(rng, e) for _ in range(4))


def format_terms(poly: dict) -> str:
    chunks = []
    for mono in sorted(poly, reverse=True):
        c = poly[mono]
        factors = [
            name if k == 1 else f"{name}^{k}"
            for name, k in zip(SOURCE_VARS, mono)
            if k
        ]
        body = "*".join([str(abs(c))] + factors)
        chunks.append(("-" if c < 0 else "+") + body)
    return "".join(chunks).lstrip("+")


def evaluate(poly: dict, point) -> int:
    s, u, t, v = point
    return sum(c * s**a * u**b * t**cc * v**d for (a, b, cc, d), c in poly.items())


def image_points(rng: random.Random, polys, count: int) -> tuple:
    """`count` image points T = f(p) at random integer p off the base locus."""
    points = []
    while len(points) < count:
        p = tuple(rng.randint(-POINT_BOUND, POINT_BOUND) for _ in range(4))
        if p[:2] == (0, 0) or p[2:] == (0, 0):
            continue
        values = tuple(evaluate(f, p) for f in polys)
        if any(values):
            points.append(values)
    return tuple(points)


def _reference(name: str, e, polys, rng: random.Random, image_degree: int) -> Instance:
    signs = [rng.choice((1, -1)) for _ in range(4)]
    flipped = tuple({m: s * c for m, c in f.items()} for s, f in zip(signs, polys))
    tag = "".join("+" if s > 0 else "-" for s in signs)
    return Instance(f"{name}[{tag}]", tuple(e), flipped, image_degree)


def _golden(rng):
    polys = tuple(parse_terms(text, SOURCE_VARS) for text in GOLDEN_STRINGS)
    return _reference("golden", (2, 3), polys, rng, 12)


def _segre(rng):
    polys = tuple(parse_terms(text, SOURCE_VARS) for text in SEGRE_STRINGS)
    return _reference("segre", (1, 1), polys, rng, 2)


def _first_draw(e, rng):
    polys = random_map(random.Random(7), e)
    return _reference(f"rand{e[0]}{e[1]}", e, polys, rng, 2 * e[0] * e[1])


def _with_queries(op: Op, rng: random.Random, count: int) -> Op:
    if op.kind == "matrix":
        queries = tuple(rng.randrange(2**31) for _ in range(count))
    else:
        queries = image_points(rng, op.instance.polys, count)
    return Op(op.kind, op.instance, op.nu, op.minors, queries)


def generate(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "square":
        ops = []
        for k in range(PATCH_ROUNDS):
            for e in PATCH_BIDEGREES:
                inst = Instance(
                    f"patch{e[0]}{e[1]}#{k}", e, random_map(rng, e), 2 * e[0] * e[1]
                )
                ops.append(Op("implicitize", inst))
        ops += [
            Op("implicitize", _first_draw((2, 2), rng)),
            Op("implicitize", _first_draw((1, 4), rng)),
        ]
    elif workload == "strand":
        ops = [
            Op("matrix", _first_draw((2, 2), rng), nu=(6, 4)),
            Op("matrix", _golden(rng), nu=(5, 4)),
        ]
    elif workload == "rect":
        ops = [
            Op("implicitize", _segre(rng), nu=(2, 1), minors=3),
            Op("implicitize", _first_draw((1, 1), rng), nu=(3, 1), minors=3),
            Op("implicitize", _first_draw((1, 1), rng), nu=(3, 2), minors=3),
            Op("implicitize", _first_draw((1, 2), rng), nu=(2, 1), minors=3),
            Op("implicitize", _first_draw((2, 1), rng), nu=(3, 1), minors=3),
            Op("implicitize", _segre(rng), nu=(5, 5)),
            Op("implicitize", _first_draw((1, 2), rng), nu=(2, 2)),
        ]
    elif workload == "oracle":
        ops = [
            Op("oracle", _golden(rng)),
            Op("oracle", _first_draw((2, 2), rng)),
            Op("oracle", _first_draw((1, 4), rng)),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [_with_queries(op, rng, QUERIES[workload]) for op in ops]
