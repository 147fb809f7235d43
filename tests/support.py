"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: interval evaluation
goes through mpmath, and the lattice-width oracle searches every primitive
direction inside a Euclidean-width bound instead of reducing a basis.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath

from mbl.lattice import LatticePolygon, width_along


def quadratic_interval(value, digits: int = 200):
    """Enclosing interval of q + s*sqrt(r) at ~`digits` decimal digits."""
    iv = mpmath.iv
    iv.prec = int(digits * 3.33) + 40

    def frac(x: Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)

    return frac(value.q) + frac(value.s) * iv.sqrt(frac(value.r))


def interval_compare(x, y, digits: int = 200):
    """-1/0/1 when the intervals separate, None when they overlap."""
    ix = quadratic_interval(x, digits)
    iy = quadratic_interval(y, digits)
    if ix < iy:
        return -1
    if ix > iy:
        return 1
    return None


def _euclidean_min_width_sq(polygon: LatticePolygon) -> Fraction:
    # the Euclidean width of a convex polygon is minimized at an edge normal
    best = None
    for p, q in polygon.edges():
        nx, ny = -(q.y - p.y), q.x - p.x
        values = [v.x * nx + v.y * ny for v in polygon.vertices]
        spread = max(values) - min(values)
        wsq = spread * spread / (nx * nx + ny * ny)
        if best is None or wsq < best:
            best = wsq
    return best


def pruned_lattice_width(polygon: LatticePolygon):
    """Exact lattice width and the lexicographically least minimizer.

    Any direction xi satisfies width_along(xi) >= |xi| * W with W the minimal
    Euclidean width, so directions with |xi|^2 W^2 > best^2 cannot improve on
    the current best and the search over primitive xi in the upper half-plane
    is finite.  Its cost grows with the square of the polygon's skew.
    """
    best = width_along(polygon, (1, 0))
    best_xi = (1, 0)
    w01 = width_along(polygon, (0, 1))
    if w01 < best or (w01 == best and (0, 1) < best_xi):
        best, best_xi = w01, (0, 1)
    wsq = _euclidean_min_width_sq(polygon)
    q = 1
    while Fraction(q * q) * wsq <= best * best:
        p_limit = math.isqrt(int(best * best / wsq)) + 1
        for p in range(-p_limit, p_limit + 1):
            if math.gcd(abs(p), q) != 1:
                continue
            if Fraction(p * p + q * q) * wsq > best * best:
                continue
            w = width_along(polygon, (p, q))
            if w < best or (w == best and (p, q) < best_xi):
                best, best_xi = w, (p, q)
        q += 1
    return best, best_xi


def random_quadratic(rng: random.Random):
    from mbl.capacity import QuadraticValue

    def rand_fraction():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 24))

    return QuadraticValue(rand_fraction(), rand_fraction(), abs(rand_fraction()))
