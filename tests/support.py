"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: interval evaluation
goes through mpmath on integer parts, the lattice-width oracle searches
every primitive direction inside a Euclidean-width bound instead of reducing
a basis and takes its spreads over the Fraction vertices instead of the
polygon's integer form, unimodular images are mapped vertex by vertex on Fractions,
the juxtaposition inequality is decided on Fractions rather than on
cross-multiplied integers over every pair of a plain double loop rather than
by bisection, on Markov numbers and apexes read off Vieta jumps
(`vieta_prefix`) rather than the walk, the essential subtrees are filtered
from levels reached by Vieta jumps written here (`vieta_levels`) rather
than read off `wedge` or the raw chains, the global order of the capacities
is read off a plain sort of every triple below a bound, reached by Vieta
jumps written here
(`vieta_neighbours` gives all three, so depths in the tree are
breadth-first distances rather than climbs back along the parent rule),
the descent below an apex
is read off Fraction widths of nodes reached by mutations written here
rather than off the chain constants, and a base triangle is built from
its Fraction vertices, with affine lengths as rational gcds, its central
point from barycentric weights and containment from cross products
rather than from the integer form and its inner normals.  The inscribed
right triangle is decided one eps at a time, on Fractions by
`fraction_inscribed` and on ints by `inscribed_at`, where the library
decides every eps at once.
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from fractions import Fraction

import mpmath

from mbl.capacity import QuadraticValue, closed_forms
from mbl.lattice import _inner_normals, convex_polygon, vertices


def quadratic_interval(a: int, b: int, r: int, d: int = 1, digits: int = 200):
    """Enclosing interval of (a + b*sqrt(r))/d, for integers with r >= 0 and
    d > 0, at ~`digits` decimal digits."""
    iv = mpmath.iv
    iv.prec = int(digits * 3.33) + 40
    return (iv.mpf(a) + iv.mpf(b) * iv.sqrt(iv.mpf(r))) / iv.mpf(d)


def interval_compare(x, y, digits: int = 200):
    """-1/0/1 when the intervals separate, None when they overlap.

    x and y are rationals or QuadraticValues, read as the integers
    (A, B, R, D) of (A + B*sqrt(R))/D."""
    ix, iy = (quadratic_interval(*(v._cleared() if isinstance(v, QuadraticValue)
                                   else (v.numerator, 0, 0, v.denominator)), digits=digits)
              for v in (x, y))
    if ix < iy:
        return -1
    if ix > iy:
        return 1
    return None


def compare(x, y) -> int:
    """Three-way comparison that also takes a rational on the left.

    A convenience over QuadraticValue.compare, not an independent oracle:
    the comparison itself is the library's.
    """
    if not isinstance(x, QuadraticValue):
        x = QuadraticValue(x)
    return x.compare(y)


def limit_point(m: int) -> QuadraticValue:
    """The limit point (3m^2 - m*sqrt(9m^2 - 4))/2 of sequence m, built from
    the integer parts of `closed_forms(m)`."""
    return QuadraticValue(*(Fraction(*part) for part in closed_forms(m)[0]))


def rounded_limit(m: int, digits: int = 12) -> str:
    """The limit 2m/(3m + sqrt(9m^2 - 4)) of sequence m correctly rounded to
    `digits` significant digits, from integers and isqrt alone."""
    d, scale = 9 * m * m - 4, 10 ** (digits + 30)
    p = 4 * m * 10 ** digits  # p/(3m + sqrt(d)) is twice the limit times 10^digits
    t = p * scale // (3 * m * scale + math.isqrt(d * scale * scale) + 1)
    while (t + 1) * 3 * m <= p and (t + 1) ** 2 * d <= (p - (t + 1) * 3 * m) ** 2:
        t += 1  # t + 1 still fits: t(3m + sqrt(d)) <= p
    return f"0.{(t + 1) // 2}"  # the limit lies in (1/3, 1/2)


def fraction_spread(polygon, nx, ny) -> Fraction:
    """max <x' - x, (nx, ny)> over the vertices, on Fractions."""
    values = [x * nx + y * ny for x, y in vertices(polygon)]
    return max(values) - min(values)


def fraction_apply(m, polygon):
    """The image of polygon under the unimodular map m = (m00, m01, m10,
    m11, tx, ty) of `suites.apply_unimodular`, on Fraction vertices."""
    m00, m01, m10, m11, tx, ty = m
    tx, ty = Fraction(*tx), Fraction(*ty)
    pts = [(m00 * x + m01 * y + tx, m10 * x + m11 * y + ty) for x, y in vertices(polygon)]
    if m00 * m11 - m01 * m10 < 0:
        pts.reverse()  # keep counterclockwise orientation
    return fraction_polygon(pts)


def fraction_polygon(points):
    """The polygon with these int or Fraction vertices, its denominators
    cleared here on Fractions."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    den = math.lcm(*(c.denominator for p in pts for c in p))
    return convex_polygon(den, [(int(x * den), int(y * den)) for x, y in pts])


def fraction_triangle(a: int, b: int, c: int, u: int) -> list[tuple[Fraction, Fraction]]:
    """The base triangle (0, 0), (a/(bc), 0), (uc/(ab), bc/a), on Fractions."""
    return [(Fraction(0), Fraction(0)), (Fraction(a, b * c), Fraction(0)),
            (Fraction(u * c, a * b), Fraction(b * c, a))]


def _ring(points):
    return zip(points, points[1:] + points[:1])


def fraction_area(points) -> Fraction:
    """Signed shoelace area of a list of (x, y) Fractions."""
    return sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in _ring(points)) / 2


def fraction_edges(points) -> list[tuple[tuple[int, int], Fraction]]:
    """Primitive direction and affine length of each edge p -> q.

    The length is the rational gcd of the coordinates of q - p:
    gcd(n1/d1, n2/d2) = gcd(n1 d2, n2 d1)/(d1 d2)."""
    out = []
    for (px, py), (qx, qy) in _ring(points):
        vx, vy = qx - px, qy - py
        length = Fraction(math.gcd(vx.numerator * vy.denominator, vy.numerator * vx.denominator),
                          vx.denominator * vy.denominator)
        out.append(((int(vx / length), int(vy / length)), length))
    return out


def fraction_central_point(points) -> tuple[Fraction, Fraction] | None:
    """The point at affine distance 1/3 from every edge of a triangle, or None.

    The affine distance of x to edge i is twice the area of (edge i, x) over
    the edge's affine length, that is 2A w_i / l_i for the barycentric weight
    w_i of the opposite vertex and the triangle's area A.  Distance 1/3 from
    every edge asks for w_i = l_i/(6A), which are weights when they sum to 1.
    """
    area = fraction_area(points)
    weights = [length / (6 * area) for _, length in fraction_edges(points)]
    if sum(weights) != 1:
        return None
    opposite = points[2:] + points[:2]  # edge i runs from vertex i to i + 1
    return (sum(w * x for w, (x, _) in zip(weights, opposite)),
            sum(w * y for w, (_, y) in zip(weights, opposite)))


def fraction_inscribed(points, eps: Fraction) -> bool:
    """Whether the right isosceles triangle with legs h - eps/2, its right
    angle at (t, eps/4) and its horizontal leg pointing away from the nearer
    base corner, lies strictly inside the counterclockwise triangle
    (0, 0), (ell, 0), (t, h): each corner strictly left of each edge."""
    _, (ell, _), (t, h) = points
    leg = h - eps / 2
    step = leg if 2 * t <= ell else -leg
    corners = [(t, eps / 4), (t + step, eps / 4), (t, eps / 4 + leg)]
    return all((qx - px) * (y - py) - (qy - py) * (x - px) > 0
               for (px, py), (qx, qy) in _ring(points) for x, y in corners)


def inscribed_at(tri, eps: Fraction) -> bool:
    """The right triangle of `fraction_inscribed` for one eps = p/q in
    (0, h), decided on ints: every coordinate of the shear-normalized base
    triangle `tri` is scaled by 4qD, D = abc, and each corner is tested
    against the library's inner normals; `suites.inscribed_right_triangle`
    decides every eps at once."""
    den, (_, (ell, _), (t, h)) = tri
    if not 0 < t < ell:
        raise ValueError("triangle must be shear-normalized first")
    p, q = eps.numerator, eps.denominator
    if not 0 < p * den < q * h:
        raise ValueError("need 0 < eps < h")
    leg = 4 * q * h - 2 * p * den
    x0, y0 = 4 * q * t, p * den
    sign = 1 if 2 * t <= ell else -1
    corners = ((x0, y0), (x0 + sign * leg, y0), (x0, y0 + leg))
    return all(
        nx * x + ny * y > 4 * q * s for (nx, ny, s) in _inner_normals(tri) for x, y in corners
    )


def _euclidean_min_width_sq(polygon) -> Fraction:
    # the Euclidean width of a convex polygon is minimized at an edge normal
    best = None
    pts = vertices(polygon)
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        nx, ny = -(qy - py), qx - px
        spread = fraction_spread(polygon, nx, ny)
        wsq = spread * spread / (nx * nx + ny * ny)
        if best is None or wsq < best:
            best = wsq
    return best


def pruned_lattice_width(polygon):
    """Exact lattice width and the lexicographically least minimizer.

    Any direction xi has spread at least |xi| * W with W the minimal
    Euclidean width, so directions with |xi|^2 W^2 > best^2 cannot improve on
    the current best and the search over primitive xi in the upper half-plane
    is finite.  Its cost grows with the square of the polygon's skew.
    """
    best = fraction_spread(polygon, 1, 0)
    best_xi = (1, 0)
    w01 = fraction_spread(polygon, 0, 1)
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
            w = fraction_spread(polygon, p, q)
            if w < best or (w == best and (p, q) < best_xi):
                best, best_xi = w, (p, q)
        q += 1
    return best, best_xi


def random_parts(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Random rationals q, s and r >= 0 of a value q + s*sqrt(r)."""
    def rand_fraction():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 24))

    return rand_fraction(), rand_fraction(), abs(rand_fraction())


def random_quadratic(rng: random.Random) -> QuadraticValue:
    return QuadraticValue(*random_parts(rng))


def nn_inequality_holds(n: int, n_prime: int) -> bool:
    """1/m_n^2 >= 1/m_{n'}^2 + 1/b_{n'}^2 on Fractions, b = 3ac - b of the apex."""
    numbers, apexes = vieta_prefix(n_prime)
    a, b, c = apexes[n_prime - 1]
    b_p = 3 * a * c - b
    return (Fraction(1, numbers[n - 1] ** 2)
            >= Fraction(1, numbers[n_prime - 1] ** 2) + Fraction(1, b_p * b_p))


def window_pairs(numbers, n_max: int) -> list[tuple[int, int]]:
    """Every (n, n') with n <= n_max, n < n' <= len(numbers) and
    m_{n'}^2 < 2 m_n^2, by increasing n, then n'.

    Only these pairs can fail the juxtaposition inequality, since a failure
    needs 1/m_n^2 < 1/m_{n'}^2 + 1/b_{n'}^2 < 2/m_{n'}^2."""
    squares = [m * m for m in numbers]
    return [(n, n_prime) for n in range(1, n_max + 1)
            for n_prime in range(n + 1, len(numbers) + 1)
            if squares[n_prime - 1] < 2 * squares[n - 1]]


def apex_of_number(p: int) -> tuple[int, int, int]:
    """The triple in which p is the maximal entry (root of its subtree)."""
    apex = next((t for t in _triples_upto(p) if t[0] == p), None)
    if apex is None:
        raise ValueError(f"{p} is not a Markov number")
    return apex


def essential_subtree(p: int, depth: int) -> list[tuple[int, int, int]]:
    """The nodes with minimal entry p in the first `depth` levels of the
    subtree preserving p that hold any, level by level from `vieta_levels`.

    For p = 1 this is the whole branch from (1,1,1); for p = 2 the branch
    from (29,5,2); for p >= 5 both branches from their second level on (two
    triples per level).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    apex = apex_of_number(p)  # raises for non-Markov p
    found, levels = [], vieta_levels(apex)
    while len(found) < depth:
        kept = [t for t in next(levels) if t[2] == p]
        if kept:
            found.append(kept)
    return [t for kept in found for t in kept]


def vieta_neighbours(a: int, b: int, c: int) -> set[tuple[int, int, int]]:
    """The sorted triples one Vieta jump from (a, b, c): each entry replaced
    by the other root of the quadratic the equation makes of it."""
    jumps = ((3 * b * c - a, b, c), (a, 3 * a * c - b, c), (a, b, 3 * a * b - c))
    return {tuple(sorted(t, reverse=True)) for t in jumps}


def _triples_upto(bound: int) -> list[tuple[int, int, int]]:
    """Every Markov triple (a, b, c), a >= b >= c, with a <= bound.

    Vieta jumps from (1, 1, 1): the two jumps of (a, b, c) that raise the
    maximum give (3ab - c, a, b) and (3ac - b, a, c); they coincide only at
    (1, 1, 1) and (2, 1, 1).
    """
    found, stack = [], [(1, 1, 1)]
    while stack:
        a, b, c = stack.pop()
        found.append((a, b, c))
        stack.extend(child for child in {(3 * a * b - c, a, b), (3 * a * c - b, a, c)}
                     if child[0] <= bound)
    return found


@functools.lru_cache(maxsize=None)
def _sorted_triples(bound: int) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted(_triples_upto(bound)))


def vieta_prefix(count: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The first `count` Markov numbers and the triple each is the maximum of.

    Read off `_triples_upto`, its bound squared until the triples below it
    hold `count` maxima; each Markov number is the maximum of one triple.
    """
    bound = 2
    while len(triples := _sorted_triples(bound)) < count:
        bound *= bound
    apexes = triples[:count]
    return tuple(a for a, _, _ in apexes), apexes


def sorted_capacity_order(bound: int) -> tuple[dict[int, dict[int, int]], list[int]]:
    """The global order of the capacities bc/a read off one sort.

    Every triple with maximum at most `bound` is labelled by the index n of
    its minimal entry among the Markov numbers (sequence n), and all the
    capacities Fraction(b*c, a) are sorted.  Returns (overtakes, moved):
    overtakes maps each n' whose leading capacity lies ahead of a member of
    an earlier sequence k to {k: j_k}, j_k the count of k's capacities ahead
    of that leader; moved lists the n' whose second capacity lies ahead of
    a member of an earlier sequence.

    A pair (k, n') is decided only when sequence k has a member behind the
    leader in the set.  Within a sequence, larger capacities sit at smaller
    maxima, so a sequence's members enter the set in order and j_k is then
    exact; a sequence whose members in the set all lie ahead of the leader
    may still be overtaken beyond the bound, and is left out.
    """
    triples = _triples_upto(bound)
    index = {m: n for n, m in enumerate(sorted({x for t in triples for x in t}), start=1)}
    ranked = sorted(((Fraction(b * c, a), index[c]) for a, b, c in triples), reverse=True)
    if len({w for w, _ in ranked}) != len(ranked):
        raise AssertionError("two triples share a capacity")
    ranks: dict[int, list[int]] = {}  # sequence -> positions in the sort
    for position, (_, n) in enumerate(ranked):
        ranks.setdefault(n, []).append(position)
    overtakes, moved, last = {}, [], -1  # last: deepest position of earlier sequences
    for n_prime in sorted(ranks):
        lead, *rest = ranks[n_prime]
        behind = {k: bisect.bisect(ranks[k], lead) for k in ranks
                  if k < n_prime and ranks[k][-1] > lead}
        if behind:
            overtakes[n_prime] = behind
        if rest and rest[0] < last:
            moved.append(n_prime)
        last = max(last, ranks[n_prime][-1])
    return overtakes, moved


def vieta_levels(apex):
    """The levels of the subtree preserving the apex maximum a, as sorted
    int triples: the apex, then each level below it, without end.

    The nodes are reached by the max-increasing mutations that keep a: the
    apex (a, b, c) has the children (3ac - b, a, c) and (3ab - c, a, b), one
    for the degenerate apexes, where they coincide; a node (x, y, z) holding
    a below its maximum x moves on to (3ax - o, x, a), o its entry other
    than x and a.  Each level lists the node with the smaller maximum first.
    """
    a, b, c = apex
    yield [(a, b, c)]
    level = sorted({(3 * a * c - b, a, c), (3 * a * b - c, a, b)})
    while True:
        yield level
        level = [(3 * a * x - (y + z - a), x, a) for x, y, z in level]


def wedge_descends(apex, depth: int = 30) -> bool:
    """Whether the widths Fraction(b*c, a) strictly decrease along the
    subtree preserving the apex maximum a, to `depth` levels below the
    apex, in the order of `vieta_levels`: the apex, then level by level."""
    levels = vieta_levels(apex)
    widths = [Fraction(y * z, x) for _ in range(depth + 1) for x, y, z in next(levels)]
    return all(w > v for w, v in zip(widths, widths[1:]))
