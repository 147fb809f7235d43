"""Rational convex polygons, lattice width, and the base triangles.

The lattice width of a compact set is the minimum over nonzero integer
directions xi of the spread max <x' - x, xi>.  For each Markov triple the
associated base triangle has area 1/2, integral affine perimeter 3 (this is
the Markov equation in disguise), edges of affine length a^2/(abc),
b^2/(abc), c^2/(abc), and lattice width bc/a realized by xi = (0, 1) in the
normal form used here.  All geometry is exact: a polygon clears its vertex
denominators once, and widths, convexity and area run on that integer form.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from functools import cache, cached_property, partial
from fractions import Fraction

from .capacity import Capacity, _fraction
from .errors import VerificationError, _Record
from .markov import MarkovTriple


class RationalPoint(_Record):
    """A point with exact coordinates: ints or Fractions, never floats."""

    x: Fraction
    y: Fraction

    def __init__(self, x, y):
        object.__setattr__(self, "x", _fraction(x))
        object.__setattr__(self, "y", _fraction(y))

    def __iter__(self):
        return iter((self.x, self.y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


class LatticePolygon(_Record):
    """Convex polygon with rational vertices, counterclockwise, no three
    collinear."""

    vertices: tuple[RationalPoint, ...]

    def __init__(self, vertices):
        pts = tuple(
            v if isinstance(v, RationalPoint) else RationalPoint(*v)
            for v in vertices
        )
        object.__setattr__(self, "vertices", pts)
        n = len(pts)
        if n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        _, scaled = self.scaled
        if len(set(scaled)) != n:
            raise ValueError("duplicate vertices")
        for (ox, oy), (px, py), (qx, qy) in zip(scaled, scaled[1:] + scaled[:1],
                                                scaled[2:] + scaled[:2]):
            if (px - ox) * (qy - oy) - (qx - ox) * (py - oy) <= 0:
                raise ValueError(
                    "vertices must be strictly convex counterclockwise"
                )

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(D, the vertices times D), D the lcm of the vertex denominators."""
        den = math.lcm(*(c.denominator for p in self.vertices for c in p))
        return den, tuple((p.x.numerator * (den // p.x.denominator),
                           p.y.numerator * (den // p.y.denominator))
                          for p in self.vertices)

    def signed_area(self) -> Fraction:
        den, pts = self.scaled
        twice = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
        return Fraction(twice, 2 * den * den)

    def to_json(self) -> list:
        return [[str(p.x), str(p.y)] for p in self.vertices]

    @classmethod
    def from_json(cls, obj) -> "LatticePolygon":
        """A list of [x, y] pairs of ints or rational strings; no floats."""
        if type(obj) is not list or any(type(v) is not list or len(v) != 2 for v in obj):
            raise ValueError("a polygon file must be a JSON list of [x, y] pairs")
        return cls([RationalPoint(_exact(x), _exact(y)) for x, y in obj])


def _exact(value) -> Fraction:
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        with contextlib.suppress(ValueError, ZeroDivisionError):  # "x", "1/0"
            return Fraction(value)
    raise ValueError(f"coordinates must be ints or rational strings, got {value!r}")


def _primitive(vx: Fraction, vy: Fraction) -> tuple[int, int, Fraction]:
    """Write (vx, vy) = s * d with d a primitive integer vector, s > 0."""
    den = math.lcm(vx.denominator, vy.denominator)
    nx = int(vx * den)
    ny = int(vy * den)
    g = math.gcd(abs(nx), abs(ny))
    if g == 0:
        raise ValueError("zero segment has no direction")
    return nx // g, ny // g, Fraction(g, den)


def width_along(polygon: LatticePolygon, xi: tuple[int, int]) -> int:
    """Support-function spread max <x' - x, xi> in units of 1/D, D the lcm
    of the vertex denominators (`polygon.scaled`); symmetric in xi -> -xi."""
    if xi == (0, 0):
        raise ValueError("direction must be nonzero")
    p, q = xi
    values = [x * p + y * q for x, y in polygon.scaled[1]]
    return max(values) - min(values)


def lattice_width(polygon: LatticePolygon) -> tuple[Capacity, tuple[int, int]]:
    """Exact lattice width and its lexicographically least minimizing direction.

    F(xi) = width_along(polygon, xi), the spread times D (the lcm of the
    vertex denominators), is a norm on Z^2 (the vertices are not collinear)
    with integer values; scaling by D > 0 keeps every comparison and floor
    quotient below, so the search runs on ints and divides by D once.
    Generalized Gauss reduction (Kaib and Schnorr, J. Algorithms 21, 1996)
    starts from (1,0), (0,1), replaces b2 by b2 - mu*b1 for the mu that
    minimizes F(b2 - mu*b1), and swaps while F(b2) < F(b1), each swap
    lowering F(b1) in Z.  F(b2 - mu*b1) is convex in mu and at least
    |mu|F(b1) - F(b2), so bisection over |mu| <= 2F(b2)/F(b1) finds mu.  At
    the end F(b1) <= F(b2) <= F(b2 + k*b1) for all integers k.

    Let lam = F(b1) and v = x*b1 + y*b2.  For |y| >= 2 and k nearest x/y,
    v = y(b2 + k*b1) + (x - k*y)b1 gives lam <= F(b2 + k*b1) <= F(v)/|y| +
    lam/2; with F(v) >= F(b2) for |y| = 1, b1 is shortest and a minimal v
    has |y| <= 2.  If |y| = 1, F(b2) = lam and lam >= |x|lam - lam give
    |x| <= 2.  If |y| = 2, equality forces x odd and F(b2) = lam, so (b2, b1)
    is reduced too and |x| = 1.  So every minimizer is +-one of b1, b2,
    b1+-b2, 2b1+-b2, b1+-2b2.  (Minimal vectors are distinct mod 3, else two
    differ by 3w with F(w) <= 2lam/3, so there are at most four pairs.)
    """

    norm = cache(partial(width_along, polygon))  # each direction is measured once

    def reduce(b1, b2):  # b2 - mu*b1 at the least mu where F stops falling
        def minus(mu: int) -> tuple[int, int]:
            return b2[0] - mu * b1[0], b2[1] - mu * b1[1]

        reach = 2 * norm(b2) // norm(b1)
        mu = bisect.bisect_left(range(-reach, reach), 0,
                                key=lambda m: norm(minus(m + 1)) - norm(minus(m))) - reach
        return minus(mu)

    b1, b2 = (1, 0), reduce((1, 0), (0, 1))
    while norm(b2) < norm(b1):
        b1, b2 = b2, reduce(b2, b1)
    candidates = [(i * b1[0] + j * b2[0], i * b1[1] + j * b2[1]) for i, j in
                  ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2))]
    value, xi = min((norm(v), v) for p, q in candidates  # in the upper half-plane
                    for v in [(p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)])
    return Fraction(value, polygon.scaled[0]), xi


class EdgeData(_Record):
    direction: tuple[int, int]
    length: Fraction


class ViannaTriangle(_Record):
    """Base triangle of a Markov triple in the normal form with its longest
    edge on the x-axis from (0,0) to (ell, 0) and apex at (t, h).

    The triple (a, b, c) and the integer u fix it: ell = a/(bc), h = bc/a and
    t = uc/(ab).  Always has area 1/2, affine perimeter 3, h * ell = 1, and
    edge lengths lam*a^2, lam*b^2, lam*c^2 with lam = 1/(abc).
    """

    triple: MarkovTriple
    u: int

    def __post_init__(self):
        if self.polygon.signed_area() != Fraction(1, 2):
            raise VerificationError(f"area != 1/2 for {self.triple}")
        lengths = sorted(e.length for e in self.edge_data)
        expected = sorted(self.lam * x * x for x in self.triple)
        if lengths != expected:
            raise VerificationError(f"edge lengths off for {self.triple}")
        if sum(lengths) != 3:
            raise VerificationError(f"perimeter != 3 for {self.triple}")

    @cached_property
    def ell(self) -> Fraction:
        return Fraction(self.triple.a, self.triple.b * self.triple.c)

    @cached_property
    def h(self) -> Fraction:
        return Fraction(self.triple.b * self.triple.c, self.triple.a)

    @cached_property
    def t(self) -> Fraction:
        return Fraction(self.u * self.triple.c, self.triple.a * self.triple.b)

    @cached_property
    def lam(self) -> Fraction:
        return Fraction(1, self.triple.a * self.triple.b * self.triple.c)

    @cached_property
    def vertices(self) -> tuple[RationalPoint, RationalPoint, RationalPoint]:
        return (RationalPoint(0, 0), RationalPoint(self.ell, 0),
                RationalPoint(self.t, self.h))

    @cached_property
    def edge_data(self) -> tuple[EdgeData, EdgeData, EdgeData]:
        out = []
        pts = self.vertices
        for p, q in zip(pts, pts[1:] + pts[:1]):
            dx, dy, s = _primitive(q.x - p.x, q.y - p.y)
            out.append(EdgeData((dx, dy), s))
        return tuple(out)

    @cached_property
    def polygon(self) -> LatticePolygon:
        return LatticePolygon(self.vertices)


def vianna_triangle(triple: MarkovTriple) -> ViannaTriangle:
    """Normal-form base triangle for a Markov triple.

    The origin-side slant edge is lam*c^2 times the primitive vector
    (u, b^2), which forces u*c^2 = a^2 (mod b^2); the least nonnegative
    residue is taken.  Any residue gives a unimodularly equivalent triangle,
    so every verified quantity is independent of this choice.
    """
    a, b, c = triple
    return ViannaTriangle(triple, a * a * pow(c, -2, b * b) % (b * b))


def _inner_normals(tri: ViannaTriangle) -> list[tuple[int, int, Fraction]]:
    """Primitive inner normal n and support value min <n, .> per edge.

    Edge i leaves vertex p along the primitive direction (dx, dy); the
    triangle is counterclockwise, so n = (-dy, dx) points inward and the
    minimum of <n, .> is taken at p itself.
    """
    out = []
    for p, edge in zip(tri.vertices, tri.edge_data):
        dx, dy = edge.direction
        out.append((-dy, dx, dx * p.y - dy * p.x))
    return out


def central_point(tri: ViannaTriangle) -> RationalPoint:
    """The point at integral affine distance 1/3 from all three edges.

    Affine distance to an edge is <n, x> - min <n, .> for the primitive
    inner normal n.  Two edges determine the point; the third equation is
    verified by substitution and can never fail for a valid base triangle.
    """
    normals = _inner_normals(tri)
    third = Fraction(1, 3)
    (a0, b0, s0), (a1, b1, s1), (a2, b2, s2) = normals
    det = a0 * b1 - a1 * b0
    r0, r1 = s0 + third, s1 + third
    x = Fraction(r0 * b1 - r1 * b0, det)
    y = Fraction(a0 * r1 - a1 * r0, det)
    if a2 * x + b2 * y - s2 != third:
        raise VerificationError(
            f"no point at affine distance 1/3 from all edges of {tri.triple}"
        )
    return RationalPoint(x, y)
