"""Rational convex polygons, lattice width, and the base triangles.

The lattice width of a compact set is the minimum over nonzero integer
directions xi of the spread max <x' - x, xi>.  For each Markov triple the
associated base triangle has area 1/2, integral affine perimeter 3 (this is
the Markov equation in disguise), edges of affine length a^2/(abc),
b^2/(abc), c^2/(abc), and lattice width bc/a realized by xi = (0, 1) in the
normal form used here.  All geometry is exact and has one form: a polygon
is built from and held as (D, its vertices times D), D the lcm of the vertex
denominators, and widths, convexity and the base-triangle checks run on
those ints, and widths and central points come back as reduced (num, den)
pairs.  `fractions` loads only to print `vertices` and in `mbl._rational`.
"""

from __future__ import annotations

import bisect
import math
from functools import cache, cached_property, partial

from . import _rational
from .errors import VerificationError, _Record
from .markov import triple_text


class LatticePolygon(_Record):
    """Convex polygon with rational vertices, counterclockwise, no three
    collinear, held in integer form: `scaled` is (D, the vertices times D),
    D the lcm of the vertex denominators.  This form is canonical, so it
    alone decides equality and the hash."""

    scaled: tuple[int, tuple[tuple[int, int], ...]]

    def __init__(self, den: int, points):
        """The polygon with the integer vertices `points` divided by den > 0;
        the common gcd is divided out and the vertices checked on ints, so a
        float or any other non-int coordinate raises TypeError."""
        if den <= 0:
            raise ValueError("the denominator must be positive")
        g = math.gcd(den, *(c for p in points for c in p))
        scaled = tuple((x // g, y // g) for x, y in points)
        n = len(scaled)
        if n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if len(set(scaled)) != n:
            raise ValueError("duplicate vertices")
        edges = _edge_vectors(scaled)
        for (ax, ay), (bx, by) in zip(edges, edges[1:] + edges[:1]):
            if ax * by - ay * bx <= 0:
                raise ValueError(
                    "vertices must be strictly convex counterclockwise"
                )
        self.__dict__["scaled"] = (den // g, scaled)

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        from fractions import Fraction  # a view to print and draw; decisions read `scaled`
        den, pts = self.scaled
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in pts)

    def to_json(self) -> list:
        return [[str(x), str(y)] for x, y in self.vertices]

    @classmethod
    def from_json(cls, obj) -> "LatticePolygon":
        """A list of [x, y] pairs of ints or rational strings; no floats."""
        if type(obj) is not list or any(type(v) is not list or len(v) != 2 for v in obj):
            raise ValueError("a polygon file must be a JSON list of [x, y] pairs")
        coords = [_exact(c) for v in obj for c in v]
        den = math.lcm(*(d for _, d in coords))
        ints = [n * (den // d) for n, d in coords]
        return cls(den, list(zip(ints[::2], ints[1::2])))


def _edge_vectors(points) -> list[tuple[int, int]]:
    """q - p for each edge p -> q of the closed polygon through `points`."""
    return [(qx - px, qy - py) for (px, py), (qx, qy) in zip(points, points[1:] + points[:1])]


def _exact(value) -> tuple[int, int]:
    if type(value) is int:  # not a bool
        return value, 1
    if type(value) is str:
        try:
            return _rational(value)
        except (ValueError, ZeroDivisionError):  # "x", "1/0"
            pass
    raise ValueError(f"coordinates must be ints or rational strings, got {value!r}")


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den for den > 0 as the (num, den) pair in lowest terms."""
    g = math.gcd(num, den)
    return num // g, den // g


def width_along(polygon: LatticePolygon, xi: tuple[int, int]) -> int:
    """Support-function spread max <x' - x, xi> in units of 1/D, D the lcm
    of the vertex denominators (`polygon.scaled`); symmetric in xi -> -xi."""
    if xi == (0, 0):
        raise ValueError("direction must be nonzero")
    p, q = xi
    values = [x * p + y * q for x, y in polygon.scaled[1]]
    return max(values) - min(values)


def lattice_width(polygon: LatticePolygon) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact lattice width, a reduced pair, and its lexicographically least minimizer.

    F(xi) = width_along(polygon, xi), the spread times D (the lcm of the
    vertex denominators), is a norm on Z^2 (the vertices are not collinear)
    with integer values; scaling by D > 0 keeps every comparison and floor
    quotient below, so the search runs on ints and divides by D once.
    Generalized Gauss reduction (Kaib and Schnorr, J. Algorithms 21, 1996)
    starts from (1,0), (0,1), replaces b2 by b2 - mu*b1 for the mu that
    minimizes F(b2 - mu*b1), and swaps while F(b2) < F(b1), each swap
    lowering F(b1) in Z.  In real mu, F(b2 - mu*b1) is convex and piecewise
    linear, bending only at mu_e = <e, b2>/<e, b1> for the edges e, so its
    least integer minimizer is floor(mu_e) or floor(mu_e) + 1 for some e
    (ceil(L), else floor(L) or ceil(R), for the real minimizers [L, R]).  F
    falls strictly along these sorted candidates up to it and never after,
    so one bisection finds mu; then F(b1) <= F(b2) <= F(b2 + k*b1), k in Z.

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
    edges = _edge_vectors(polygon.scaled[1])

    def reduce(b1, b2):  # b2 - mu*b1 at the least mu that minimizes F(b2 - mu*b1)
        mus = sorted({(ex * b2[0] + ey * b2[1]) // d + k for ex, ey in edges
                      if (d := ex * b1[0] + ey * b1[1]) for k in (0, 1)})
        vs = [(b2[0] - mu * b1[0], b2[1] - mu * b1[1]) for mu in mus]
        return vs[bisect.bisect_left(range(len(vs) - 1), True,
                                     key=lambda i: norm(vs[i + 1]) >= norm(vs[i]))]

    b1, b2 = (1, 0), reduce((1, 0), (0, 1))
    while norm(b2) < norm(b1):
        b1, b2 = b2, reduce(b2, b1)
    candidates = [(i * b1[0] + j * b2[0], i * b1[1] + j * b2[1]) for i, j in
                  ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2))]
    value, xi = min((norm(v), v) for p, q in candidates  # in the upper half-plane
                    for v in [(p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)])
    return _reduced(value, polygon.scaled[0]), xi


class ViannaTriangle(_Record):
    """Base triangle of a Markov triple in the normal form with its longest
    edge on the x-axis from (0,0) to (ell, 0) and apex at (t, h).

    The triple (a, b, c) and the integer u fix it: ell = a/(bc), h = bc/a and
    t = uc/(ab).  Always has area 1/2, affine perimeter 3, h * ell = 1, and
    edge lengths lam*a^2, lam*b^2, lam*c^2 with lam = 1/(abc).  Its integer
    form scales by D = abc, the lcm of the vertex denominators:
    (0,0), (a^2, 0), (uc^2, b^2c^2).  So the checks below run on ints: twice
    the area is D^2, the edge gcds are a^2, b^2, c^2 in some order, and
    their sum is 3D.
    """

    triple: tuple[int, int, int]
    u: int

    def __post_init__(self):
        den, (_, (x1, y1), (x2, y2)) = self.polygon.scaled
        if x1 * y2 - x2 * y1 != den * den:
            raise VerificationError(f"area != 1/2 for {triple_text(self.triple)}")
        lengths = sorted(g for *_, g in self.edges)
        if lengths != sorted(x * x for x in self.triple):
            raise VerificationError(f"edge lengths off for {triple_text(self.triple)}")
        if sum(lengths) != 3 * den:
            raise VerificationError(f"perimeter != 3 for {triple_text(self.triple)}")

    @cached_property
    def polygon(self) -> LatticePolygon:
        a, b, c = self.triple
        return LatticePolygon(a * b * c, ((0, 0), (a * a, 0), (self.u * c * c, b * b * c * c)))

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(dx, dy, g) per edge: the primitive direction and g = D times the
        affine length, from the integer form."""
        return tuple((dx // g, dy // g, g) for dx, dy in _edge_vectors(self.polygon.scaled[1])
                     for g in [math.gcd(dx, dy)])


def vianna_triangle(triple: tuple[int, int, int]) -> ViannaTriangle:
    """Normal-form base triangle for a Markov triple.

    The origin-side slant edge is lam*c^2 times the primitive vector
    (u, b^2), which forces u*c^2 = a^2 (mod b^2); the least nonnegative
    residue is taken.  Any residue gives a unimodularly equivalent triangle,
    so every verified quantity is independent of this choice.
    """
    a, b, c = triple
    return ViannaTriangle(triple, a * a * pow(c, -2, b * b) % (b * b))


def _inner_normals(tri: ViannaTriangle) -> list[tuple[int, int, int]]:
    """Primitive inner normal n and D times the support value min <n, .>
    per edge, D = abc the scale of the integer form.

    Edge i leaves vertex p along the primitive direction (dx, dy); the
    triangle is counterclockwise, so n = (-dy, dx) points inward and the
    minimum of <n, .> is taken at p itself.
    """
    return [(-dy, dx, dx * py - dy * px)
            for (px, py), (dx, dy, _) in zip(tri.polygon.scaled[1], tri.edges)]


def central_point(tri: ViannaTriangle) -> tuple[tuple[int, int], tuple[int, int]]:
    """The point at integral affine distance 1/3 from all three edges, as reduced pairs.

    Affine distance to an edge is <n, x> - min <n, .> for the primitive
    inner normal n.  Two edges determine the point; the third equation is
    verified by substitution and can never fail for a valid base triangle.
    Scaled by 3D, the equations read <n, 3D x> = 3s + D, s the scaled
    support value, so the point is solved and checked on ints.
    """
    den = tri.polygon.scaled[0]
    (a0, b0, s0), (a1, b1, s1), (a2, b2, s2) = _inner_normals(tri)
    det = a0 * b1 - a1 * b0  # > 0: the inner normals turn counterclockwise, as the edges do
    r0, r1 = 3 * s0 + den, 3 * s1 + den
    x = r0 * b1 - r1 * b0  # 3D det times the coordinates
    y = a0 * r1 - a1 * r0
    if a2 * x + b2 * y != (3 * s2 + den) * det:
        raise VerificationError(
            f"no point at affine distance 1/3 from all edges of {triple_text(tri.triple)}"
        )
    return _reduced(x, 3 * den * det), _reduced(y, 3 * den * det)
