"""Seeded operation lists for the three benchmark workloads.

Every input is generated here, before anything is timed, from the seed
alone; the program under test only ever sees the resulting command lines
and polygon files.  Nothing here imports `mbl`.

Parameters follow additive-recurrence sequences u_j = frac(j * alpha),
each point moved by a seeded jitter of up to JITTER / 2 either way.  Every
prefix of such a sequence covers [0, 1) evenly, so a run that gets through
only its first few dozen operations still sees the whole parameter range,
and runs with different seeds do nearly the same amount of work on
different inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("order", "skewed-width", "verify")

# irrational steps, one per drawn parameter, so that streams do not align
_ALPHAS = (
    (math.sqrt(5) - 1) / 2,
    math.sqrt(2) - 1,
    math.sqrt(3) - 1,
    math.sqrt(7) - 2,
    math.sqrt(11) - 3,
    math.sqrt(13) - 3,
    math.sqrt(17) - 4,
)


@dataclass(frozen=True)
class Op:
    """One `mbl` invocation and what its oracle needs to judge it."""

    kind: str
    argv: tuple[str, ...]  # arguments after `python -m mbl.cli`
    expect: dict
    files: dict = field(default_factory=dict)  # name in the work dir -> text


JITTER = 1 / 8


class _Draws:
    """Low-discrepancy draws in [0, 1) with seeded jitter."""

    def __init__(self, rng: random.Random, alpha: float):
        self.rng = rng
        self.alpha = alpha
        self.j = 0

    def next(self) -> float:
        self.j += 1
        return (self.j * self.alpha + (self.rng.random() - 0.5) * JITTER) % 1.0

    def integer(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi]."""
        return lo + min(int(self.next() * (hi - lo + 1)), hi - lo)


def _streams(rng: random.Random, count: int) -> list[_Draws]:
    return [_Draws(rng, _ALPHAS[i]) for i in range(count)]


# ---------------------------------------------------------------- order

# One block of 16 operations, repeated.  The order interleaves the kinds so
# that every prefix of the list keeps close to the block's proportions:
# 8 limits, 4 complete, 4 irregularities.  One complete and one
# irregularities run per block take n_max in [794, 850]; today that range
# meets the span-3 irregularity at n = 794, which the program reports as a
# failed check, so 2/16 of the operations fail until the catalogue learns
# longer spans.
ORDER_BLOCK = (
    "limits", "complete", "irregularities", "limits",
    "limits", "complete-high", "limits", "irregularities-450",
    "complete", "limits", "irregularities", "limits",
    "limits", "irregularities-high", "complete", "limits",
)
ORDER_BLOCKS = 16
ORDER_N_MAX = {  # --n-max range per kind; limits take --n in [100, 450]
    "complete": (450, 793),
    "complete-high": (794, 850),
    "irregularities": (451, 793),
    "irregularities-450": (450, 450),
    "irregularities-high": (794, 850),
}


def threshold(e: int) -> Fraction:
    """1/3 + 2*10^-e as an exact fraction."""
    return Fraction(1, 3) + Fraction(2, 10 ** e)


def order_ops(seed: int) -> list[Op]:
    rng = random.Random(f"order:{seed}")
    exponent, count, *n_streams = _streams(rng, 2 + len(ORDER_N_MAX))
    n_draws = dict(zip(ORDER_N_MAX, n_streams))
    ops = []
    for _ in range(ORDER_BLOCKS):
        for kind in ORDER_BLOCK:
            if kind == "limits":
                n = count.integer(100, 450)
                argv, expect = ("limits", "--n", str(n)), {"n": n}
            else:
                n_max = n_draws[kind].integer(*ORDER_N_MAX[kind])
                if kind.startswith("complete"):
                    t = threshold(exponent.integer(30, 44))
                    argv = ("complete", "--threshold", str(t), "--n-max", str(n_max))
                    expect = {"threshold": str(t), "n_max": n_max}
                else:
                    argv = ("irregularities", "--n-max", str(n_max))
                    argv += ("--fixture",) if n_max == 450 else ()
                    expect = {"n_max": n_max, "fixture": n_max == 450}
            ops.append(Op(kind, argv + ("--format", "json"), expect))
    return ops


# --------------------------------------------------------- skewed-width

SKEW = 30  # largest matrix entry of every map lies in [SKEW, 2 * SKEW)
# Uniform maps in the band give searches of 40 to 90 000 directions, so a
# few polygons would dominate a run and its tail.  Instead each polygon gets
# a target, spread log-uniformly over this range, and maps are drawn in the
# band until the estimated count (estimated_directions) is near it.
DIRECTIONS = (2_000, 25_000)
SKEWED_OPS = 192
BASE_TRIPLES_USED = 6


def markov_triples(count: int) -> list[tuple[int, int, int]]:
    """The first `count` Markov triples (a >= b >= c) ordered by a.

    A plain walk of the tree from (1, 1, 1) by Vieta jumps, with a bound
    large enough to hold `count` triples.
    """
    bound = 8
    while True:
        seen = {(1, 1, 1)}
        stack = [(1, 1, 1)]
        while stack:
            a, b, c = stack.pop()
            for x, y, z in ((3 * b * c - a, b, c), (a, 3 * a * c - b, c),
                            (a, b, 3 * a * b - c)):
                t = tuple(sorted((x, y, z), reverse=True))
                if t[0] <= bound and t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) >= count:
            return sorted(seen)[:count]
        bound *= 4


def base_triangle(a: int, b: int, c: int) -> list[tuple[Fraction, Fraction]]:
    """Normal-form base triangle of (a, b, c): area 1/2, lattice width bc/a.

    Vertices (0, 0), (a/(bc), 0), (uc/(ab), bc/a) counterclockwise, where
    u is the least residue with u c^2 = a^2 (mod b^2).
    """
    u = 0 if b == 1 else a * a * pow(c, -2, b * b) % (b * b)
    return [(Fraction(0), Fraction(0)), (Fraction(a, b * c), Fraction(0)),
            (Fraction(u * c, a * b), Fraction(b * c, a))]


def _bezout(p: int, q: int) -> tuple[int, int]:
    """(x, y) with p x + q y = gcd(p, q), |x| <= |q|, |y| <= |p|."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while q:
        k, r = divmod(p, q)
        p, q = q, r
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return (x0, y0) if p > 0 else (-x0, -y0)


def skew_map(rng: random.Random, skew: int = SKEW) -> tuple[int, int, int, int]:
    """A unimodular matrix (m00, m01, m10, m11) with largest |entry| in
    [skew, 2 skew).  Raises if the construction ever breaks either rule."""
    while True:
        p = rng.randrange(skew, 2 * skew)
        q = rng.randrange(1 - p, p)
        if math.gcd(p, q) == 1:
            break
    x, y = _bezout(p, q)
    m = [[p, q], [-y, x]]  # det = p x + q y = 1
    if rng.random() < 0.5:
        m = [[m[0][1], m[0][0]], [m[1][1], m[1][0]]]  # swap columns
    if rng.random() < 0.5:
        m = [m[1], m[0]]  # swap rows
    if rng.random() < 0.5:
        m = [[m[0][0], m[1][0]], [m[0][1], m[1][1]]]  # transpose
    if rng.random() < 0.5:
        m = [[-m[0][0], -m[0][1]], m[1]]  # negate a row
    m00, m01, m10, m11 = m[0][0], m[0][1], m[1][0], m[1][1]
    if abs(m00 * m11 - m01 * m10) != 1:
        raise AssertionError(f"map {m} is not unimodular")
    if not skew <= max(abs(v) for v in (m00, m01, m10, m11)) < 2 * skew:
        raise AssertionError(f"map {m} is outside the skew band")
    return m00, m01, m10, m11


def apply_map(m, shift, vertices):
    """Image of a counterclockwise polygon, kept counterclockwise."""
    m00, m01, m10, m11 = m
    out = [(m00 * x + m01 * y + shift[0], m10 * x + m11 * y + shift[1])
           for x, y in vertices]
    return out[::-1] if m00 * m11 - m01 * m10 < 0 else out


def _spread(vs, p, q):
    values = [x * p + y * q for x, y in vs]
    return max(values) - min(values)


def estimated_directions(vertices, cap: float = math.inf) -> float:
    """Directions the current pruned lattice-width search tries, estimated.

    The search scans rows q = 1, 2, ... of primitive directions (p, q) with
    |(p, q)| * W <= best, W the Euclidean minimal width and best the
    smallest width seen so far.  Each row is costed at its half-chord
    length times the density 6/pi^2 of primitive vectors, then best is
    lowered to the row's minimum, which sits next to a breakpoint of the
    piecewise-linear width in p.  Floats are fine: the estimate only
    spreads search sizes evenly across a run and never judges an output.
    It stops counting once the estimate passes `cap`.
    """
    vs = [(float(x), float(y)) for x, y in vertices]
    n = len(vs)
    w2 = math.inf
    for i in range(n):
        (x0, y0), (x1, y1) = vs[i], vs[(i + 1) % n]
        nx, ny = y0 - y1, x1 - x0
        w2 = min(w2, _spread(vs, nx, ny) ** 2 / (nx * nx + ny * ny))
    slopes = [(vs[j][1] - vs[i][1]) / (vs[j][0] - vs[i][0])
              for i in range(n) for j in range(i + 1, n) if vs[j][0] != vs[i][0]]
    best = min(_spread(vs, 1, 0), _spread(vs, 0, 1))
    total = 0.0
    q = 1
    while q * q * w2 <= best * best and total <= cap:
        total += 2 * math.sqrt(max(best * best / w2 - q * q, 0.0)) * 6 / math.pi ** 2 + 1
        for s in slopes:
            base = math.floor(-q * s)
            for p in (base, base + 1):
                if math.gcd(p, q) == 1:
                    best = min(best, _spread(vs, p, q))
        q += 1
    return max(total, 1.0)


def skewed_ops(seed: int) -> list[Op]:
    rng = random.Random(f"skewed-width:{seed}")
    (target,) = _streams(rng, 1)
    triples = markov_triples(BASE_TRIPLES_USED)
    lo, hi = (math.log(d) for d in DIRECTIONS)
    ops = []
    for i in range(SKEWED_OPS):
        a, b, c = triples[i % len(triples)]
        goal = math.exp(lo + target.next() * (hi - lo))
        best = None
        # draw maps in the band until one lands within 15% of its goal
        for _ in range(400):
            m = skew_map(rng)
            shift = (Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
            vertices = apply_map(m, shift, base_triangle(a, b, c))
            miss = abs(math.log(estimated_directions(vertices, 2 * goal) / goal))
            if best is None or miss < best[0]:
                best = (miss, m, vertices)
            if miss < 0.15:
                break
        _, m, vertices = best
        name = f"polygon-{i:04d}.json"
        polygon = [[str(x), str(y)] for x, y in vertices]
        ops.append(Op(
            "width",
            ("width", "--polygon", name, "--format", "json"),
            {"triple": [a, b, c], "map": list(m), "polygon": polygon},
            {name: json.dumps(polygon) + "\n"},
        ))
    return ops


# --------------------------------------------------------------- verify

VERIFY_OPS = 64


def verify_ops(seed: int) -> list[Op]:
    rng = random.Random(f"verify:{seed}")
    bound, n_max = _streams(rng, 2)
    ops = []
    for _ in range(VERIFY_OPS):
        b, n = bound.integer(3_000, 10_000), n_max.integer(40, 120)
        ops.append(Op("verify",
                      ("verify", "--max-bound", str(b), "--n-max", str(n),
                       "--format", "json"),
                      {"max_bound": b, "n_max": n}))
    return ops


# Operations per block.  Runs do whole blocks, so every run of a workload has
# the same mix of operation kinds (order) or of base triples (skewed-width).
BLOCK = {"order": len(ORDER_BLOCK), "skewed-width": BASE_TRIPLES_USED, "verify": 1}


def generate(workload: str, seed: int) -> list[Op]:
    return {"order": order_ops, "skewed-width": skewed_ops,
            "verify": verify_ops}[workload](seed)


def digest(ops: list[Op]) -> str:
    """sha256 of the operation list: command lines and input files."""
    blob = json.dumps([[op.argv, op.files] for op in ops], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
