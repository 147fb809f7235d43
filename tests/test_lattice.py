import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mbl.lattice
from mbl.capacity import width
from mbl.lattice import (
    LatticePolygon,
    ViannaTriangle,
    central_point,
    lattice_width,
    vianna_triangle,
    width_along,
)
from mbl.errors import VerificationError
from mbl.markov import enumerate_triples, markov_prefix
from mbl.suites import (
    UnimodularMap,
    check_alg_lemma,
    inscribed_right_triangle,
    random_unimodular,
    shear_normalize,
)
from mbl.svg import _primitive

from support import (
    fraction_apply,
    fraction_area,
    fraction_central_point,
    fraction_edges,
    fraction_inscribed,
    fraction_polygon,
    fraction_spread,
    fraction_triangle,
    inscribed_at,
    pruned_lattice_width,
)


UNIT_TRIANGLE = LatticePolygon(1, [(0, 0), (1, 0), (0, 1)])
UNIT_SQUARE = LatticePolygon(1, [(0, 0), (1, 0), (1, 1), (0, 1)])
# Four pairs of minimal directions, (1,0), (0,1), (1,1), (1,2), each of width 1.
FOUR_PAIRS = LatticePolygon(2, [(1, 0), (-1, 1), (-1, 0), (1, -1)])
# A unimodular image of FOUR_PAIRS on which the set {b1, b2, b1+b2, b1-b2} of
# a reduced basis misses the least minimizer (0, 1).
FOUR_PAIRS_IMAGE = LatticePolygon(2, [(3, -2), (4, -4), (5, -4), (4, -2)])
# Mixed denominators and negative coordinates, with a translate of it and a
# mapped base triangle: their integer forms scale by D = 420, 2520 and 5220.
SKEW = LatticePolygon.from_json([["-7/3", "-5/4"], ["3/2", "-2/5"], ["5/6", "9/7"],
                                 [-3, "1/2"]])
MIXED = (SKEW,
         UnimodularMap(1, 0, 0, 1, (-11, 9), (13, 8)).apply(SKEW),
         UnimodularMap(2, -3, -1, 2, (-4, 9), (7, 4)).apply(
             vianna_triangle((29, 5, 2)).polygon))
FIRST_EIGHT = enumerate_triples(169)  # (1,1,1) up to (169,29,2)
# the apexes of the first 200 Markov numbers
APEXES = markov_prefix(200)[1]


def oracle_width(polygon: LatticePolygon):
    """`pruned_lattice_width` with its Fraction as the (num, den) pair in
    lowest terms with den > 0 that `lattice_width` hands out."""
    value, xi = pruned_lattice_width(polygon)
    return value.as_integer_ratio(), xi


def edge_lengths(tri: ViannaTriangle) -> list[Fraction]:
    """The affine edge lengths of a base triangle, from its integer form."""
    den = tri.polygon.scaled[0]
    return [Fraction(g, den) for *_, g in tri.edges]


def _convex_hull(points) -> list[tuple[int, int]]:
    """The vertices of the convex hull, counterclockwise, none collinear
    (Andrew's monotone chain)."""
    points = sorted(set(points))
    chains = []
    for sweep in (points, points[::-1]):
        chain = []
        for x, y in sweep:
            while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (y - chain[-2][1])
                                       - (chain[-1][1] - chain[-2][1]) * (x - chain[-2][0])) <= 0:
                chain.pop()
            chain.append((x, y))
        chains += chain[:-1]
    return chains


def _swapped_polygon(triple, polygon):
    """The shear-normalized base triangle of `triple` with its polygon
    swapped for `polygon`, which its construction checks would refuse."""
    tri = shear_normalize(vianna_triangle(triple))
    tri.__dict__["polygon"] = polygon  # a cached property
    del tri.__dict__["edges"]  # cached from the polygon
    return tri


class TestPolygonValidation:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            LatticePolygon(1, [(0, 0), (1, 0)])

    def test_rejects_collinear(self):
        with pytest.raises(ValueError):
            LatticePolygon(1, [(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            LatticePolygon(1, [(0, 0), (0, 1), (1, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            LatticePolygon(1, [(0, 0), (1, 0), (1, 0), (0, 1)])

    def test_rejects_collinear_across_denominators(self):
        with pytest.raises(ValueError, match="strictly convex counterclockwise"):
            LatticePolygon.from_json([[0, 0], ["1/3", "1/6"], ["2/3", "1/3"]])

    def test_rejects_duplicates_written_apart(self):
        with pytest.raises(ValueError, match="duplicate vertices"):
            LatticePolygon.from_json([["0", "0"], ["1/2", "0"], ["2/4", "0"], ["0", "1"]])

    def test_rejects_clockwise_fractions(self):
        with pytest.raises(ValueError, match="strictly convex counterclockwise"):
            LatticePolygon.from_json([[0, 0], ["1/3", "2/5"], ["2/3", "1/7"]])

    def test_rejects_a_denominator_below_one(self):
        for den in (0, -1):
            with pytest.raises(ValueError, match="denominator must be positive"):
                LatticePolygon(den, [(0, 0), (1, 0), (0, 1)])

    def test_json_roundtrip(self):
        polygon = vianna_triangle((5, 2, 1)).polygon
        assert LatticePolygon.from_json(polygon.to_json()) == polygon

    def test_json_roundtrip_of_mapped_triangles(self):
        # the unimodular images the lattice suite of `verify` draws
        rng = random.Random(20240813)
        for t in ((5, 2, 1), (29, 5, 2)):
            polygon = vianna_triangle(t).polygon
            for _ in range(20):
                mapped = random_unimodular(rng).apply(polygon)
                assert LatticePolygon.from_json(mapped.to_json()) == mapped

    def test_from_json_clears_unreduced_denominators(self):
        polygon = LatticePolygon.from_json([["0", "0"], ["6/4", "0"], [0, "3/3"]])
        assert polygon.scaled == (2, ((0, 0), (3, 0), (0, 2)))
        assert polygon.to_json() == [["0", "0"], ["3/2", "0"], ["0", "1"]]

    def test_canonical_form(self):
        doubled = LatticePolygon(2, [(0, 0), (2, 0), (0, 2)])
        assert doubled == UNIT_TRIANGLE and hash(doubled) == hash(UNIT_TRIANGLE)
        assert doubled.scaled == UNIT_TRIANGLE.scaled == (1, ((0, 0), (1, 0), (0, 1)))
        assert LatticePolygon(6, [(0, 0), (3, 0), (0, 3)]) == LatticePolygon(
            2, [(0, 0), (1, 0), (0, 1)])

    def test_integer_form(self):
        assert SKEW.scaled == (420, ((-980, -525), (630, -168), (350, 540), (-1260, 210)))
        assert [polygon.scaled[0] for polygon in MIXED] == [420, 2520, 5220]
        for polygon in MIXED:
            den, pts = polygon.scaled
            assert den == math.lcm(*(c.denominator for v in polygon.vertices for c in v))
            assert pts == tuple((x * den, y * den) for x, y in polygon.vertices)
            assert polygon == fraction_polygon(polygon.vertices)

    def test_integer_form_is_the_field(self):
        den, pts = SKEW.scaled
        twin = LatticePolygon(den, pts)
        assert SKEW._fields == ("scaled",)
        assert SKEW == twin and hash(SKEW) == hash((SKEW.scaled,))
        assert repr(SKEW) == f"LatticePolygon(scaled={SKEW.scaled!r})"
        assert SKEW != LatticePolygon(den, pts[1:] + pts[:1])


class TestWidthAlong:
    """width_along counts in units of 1/D, D = polygon.scaled[0]."""

    def test_horizontal(self):
        tri = vianna_triangle((5, 2, 1)).polygon
        assert tri.scaled[0] == 10
        assert width_along(tri, (1, 0)) == 10 * Fraction(5, 2)

    def test_vertical(self):
        tri = vianna_triangle((5, 2, 1)).polygon
        assert width_along(tri, (0, 1)) == 10 * Fraction(2, 5)

    def test_scales_the_fraction_spread_by_d(self):
        for polygon in MIXED:
            den = polygon.scaled[0]
            for p in range(-6, 7):
                for q in range(-6, 7):
                    if (p, q) != (0, 0):
                        assert width_along(polygon, (p, q)) == den * fraction_spread(polygon, p, q)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            width_along(UNIT_SQUARE, (0, 0))

    @given(st.integers(-9, 9), st.integers(-9, 9))
    def test_sign_symmetry(self, x, y):
        if (x, y) == (0, 0):
            return
        tri = vianna_triangle((29, 5, 2)).polygon
        assert width_along(tri, (x, y)) == width_along(tri, (-x, -y))


class TestLatticeWidth:
    def test_unit_triangle(self):
        assert lattice_width(UNIT_TRIANGLE) == ((1, 1), (0, 1))

    def test_unit_square(self):
        value, _ = lattice_width(UNIT_SQUARE)
        assert value == (1, 1)

    def test_base_triangle_5_2_1(self):
        value, xi = lattice_width(vianna_triangle((5, 2, 1)).polygon)
        assert value == (2, 5) and xi == (0, 1)

    def test_matches_capacity_below_thousand(self):
        for t in enumerate_triples(1000):
            polygon = vianna_triangle(t).polygon
            assert lattice_width(polygon) == (width(t), (0, 1))

    def test_thin_triangles(self):
        # the second reduction step takes mu = -w, an int past a C ssize_t for w = 2^61
        for w in (2 ** 61, 10 ** 400):
            assert lattice_width(LatticePolygon(1, [(0, 0), (w, 0), (0, 1)])) == ((1, 1), (0, 1))

    def test_thin_triangles_measure_a_bounded_number_of_directions(self, monkeypatch):
        # each Gauss step measures a few breakpoints of the three edges, however
        # long the base: two steps and the eight final candidates measure 11
        calls = []
        monkeypatch.setattr(mbl.lattice, "width_along",
                            lambda polygon, xi: calls.append(xi) or width_along(polygon, xi))
        for k in (999, 99_999):
            calls.clear()
            thin = LatticePolygon(1, [(0, 0), (10 ** k, 0), (0, 1)])
            assert lattice_width(thin) == ((1, 1), (0, 1))
            assert len(calls) <= 11

    def test_ties_go_to_the_least_direction(self):
        assert lattice_width(FOUR_PAIRS) == ((1, 1), (0, 1))
        assert lattice_width(FOUR_PAIRS_IMAGE) == ((1, 1), (0, 1))

    def test_brute_force_agreement(self):
        polygons = [
            UNIT_TRIANGLE,
            UNIT_SQUARE,
            LatticePolygon(1, [(0, 0), (4, 1), (5, 4), (1, 3)]),
            LatticePolygon(6, [(3, 0), (18, 2), (12, 12)]),
            vianna_triangle((13, 5, 1)).polygon,
            FOUR_PAIRS,
            FOUR_PAIRS_IMAGE,
        ]
        rng = random.Random(4242)
        polygons += [random_unimodular(rng).apply(FOUR_PAIRS) for _ in range(12)]
        while len(polygons) < 50:  # convex hulls of 5-12 vertices, sheared
            shear = rng.randint(-3, 3)
            hull = _convex_hull([(x + shear * y, y) for x, y in (
                (rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(rng.randint(8, 40)))])
            if 5 <= len(hull) <= 12:
                polygons.append(LatticePolygon(rng.randint(1, 4), hull))
        for polygon in polygons:
            assert lattice_width(polygon) == oracle_width(polygon)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(FIRST_EIGHT), st.randoms(use_true_random=False))
    def test_pruned_oracle_agrees_on_mapped_triangles(self, triple, rng):
        m = random_unimodular(rng)
        # the oracle's cost grows with the square of the skew
        assume(max(abs(m.m00), abs(m.m01), abs(m.m10), abs(m.m11)) <= 64)
        mapped = m.apply(vianna_triangle(triple).polygon)
        assert lattice_width(mapped) == oracle_width(mapped)

    def test_unimodular_invariance(self):
        rng = random.Random(777)
        for triple in ((5, 2, 1), (34, 13, 1)):
            polygon = vianna_triangle(triple).polygon
            base, _ = lattice_width(polygon)
            for _ in range(25):
                mapped = random_unimodular(rng).apply(polygon)
                assert lattice_width(mapped)[0] == base


class TestViannaTriangle:
    def test_root_triangle(self):
        tri = vianna_triangle((1, 1, 1))
        assert tri.polygon.vertices == ((0, 0), (1, 0), (0, 1))

    def test_two_one_one(self):
        tri = vianna_triangle((2, 1, 1))
        assert tri.polygon.vertices == ((0, 0), (2, 0), (0, Fraction(1, 2)))
        assert sorted(edge_lengths(tri)) == [Fraction(1, 2), Fraction(1, 2), 2]
        directions = {(dx, dy) for dx, dy, _ in tri.edges}
        assert (4, -1) in directions or (-4, 1) in directions

    def test_five_two_one(self):
        tri = vianna_triangle((5, 2, 1))
        assert tri.u == 1  # 25 mod 4
        assert tri.polygon.vertices[2] == (Fraction(1, 10), Fraction(2, 5))
        assert tri.polygon.scaled[0] == 10
        assert tri.edges[2] == (-1, -4, 1)  # affine length 1/10
        assert tri.edges[1] == (-6, 1, 4)  # affine length 2/5

    def test_invariants_below_ten_thousand(self):
        for t in enumerate_triples(10 ** 4):
            tri = vianna_triangle(t)  # constructor re-checks
            _, (ell, _), (_, h) = tri.polygon.vertices
            assert ell >= 1
            assert h * ell == 1
            assert sum(edge_lengths(tri)) == 3


class TestIntegerTriangles:
    """The base triangles, built and checked in integer form, against the
    Fraction oracle of tests/support.py."""

    def test_vertices_area_and_edges(self):
        for t in APEXES:
            tri = vianna_triangle(t)
            points = fraction_triangle(*t, tri.u)
            assert list(tri.polygon.vertices) == points
            assert tri.polygon.scaled[0] == t[0] * t[1] * t[2]
            assert fraction_area(points) == Fraction(1, 2)
            assert [((dx, dy), length) for (dx, dy, _), length
                    in zip(tri.edges, edge_lengths(tri))] == fraction_edges(points)
            assert sum(length for _, length in fraction_edges(points)) == 3

    def test_central_point(self):
        for t in APEXES:
            tri = vianna_triangle(t)
            oracle = fraction_central_point(fraction_triangle(*t, tri.u))
            assert central_point(tri) == tuple(c.as_integer_ratio() for c in oracle)

    def test_inscribed(self):
        for t in APEXES[1:]:  # (1,1,1) has no shear-normalized form
            normalized = shear_normalize(vianna_triangle(t))
            points = fraction_triangle(*t, normalized.u)
            h = points[2][1]
            assert inscribed_right_triangle(normalized)
            for eps in (h / 8, h / 64, Fraction(1, 10)):
                assert inscribed_at(normalized, eps) and fraction_inscribed(points, eps)

    def test_inscribed_decides_both_ways(self):
        # every base triangle holds its right triangle; (2,1,1)'s with its
        # polygon swapped for the taller (0,0), (1,0), (1/4, 1) does so only
        # for large eps, where the horizontal leg (1 - eps/2) stays short
        tri = _swapped_polygon((2, 1, 1), LatticePolygon(4, [(0, 0), (4, 0), (1, 4)]))
        points = list(tri.polygon.vertices)
        decisions = [(inscribed_at(tri, eps), fraction_inscribed(points, eps))
                     for eps in (Fraction(1, 8), Fraction(1, 2), Fraction(9, 10))]
        assert decisions == [(False, False), (False, False), (True, True)]
        assert not inscribed_right_triangle(tri)
        assert inscribed_right_triangle(shear_normalize(vianna_triangle((2, 1, 1))))

    @pytest.mark.parametrize("apex", [(1, 4), (3, 4)])
    def test_apex_beyond_ell_minus_h_does_not_fit(self, apex):
        # ell = h = 1: a leg near h reaches past the far edge for small eps,
        # whichever half of the base the apex lies over
        tri = _swapped_polygon((2, 1, 1), LatticePolygon(4, [(0, 0), (4, 0), apex]))
        points = list(tri.polygon.vertices)
        assert not inscribed_right_triangle(tri)
        assert not all(fraction_inscribed(points, Fraction(k, 64)) for k in range(1, 64))

    def test_wrong_residue_is_refused(self):
        # (5,2,1) scales to (0,0), (25,0), (u, 4), with edge gcds 25,
        # gcd(u - 25, 4) and gcd(u, 4): 25, 1, 4 in some order for u = 0, 1, 5,
        # but 25, 1, 2 for u = 2
        with pytest.raises(VerificationError, match="edge lengths off"):
            ViannaTriangle((5, 2, 1), 2)
        for u in (0, 1, 5):
            tri = ViannaTriangle((5, 2, 1), u)
            assert sorted(edge_lengths(tri)) == [Fraction(1, 10), Fraction(2, 5), Fraction(5, 2)]


class TestAffineLength:
    # the affine length of a segment p -> q is the s > 0 with
    # q - p = s * _primitive(q - p), the primitive integer vector in its direction
    def test_horizontal(self):
        assert _primitive(Fraction(5, 2), Fraction(0)) == (1, 0)  # length 5/2

    def test_slant(self):
        assert _primitive(Fraction(1, 10), Fraction(2, 5)) == (1, 4)  # length 1/10

    def test_diagonal(self):
        assert _primitive(Fraction(3), Fraction(3)) == (1, 1)  # length 3

    def test_zero_segment(self):
        with pytest.raises(ValueError):
            _primitive(Fraction(0), Fraction(0))

    @given(st.integers(1, 60), st.integers(-7, 7), st.integers(1, 7))
    def test_scales_with_primitive_direction(self, k, dx, dy):
        from math import gcd

        if gcd(abs(dx), dy) != 1:
            return
        p = (Fraction(2), Fraction(3))
        q = (2 + Fraction(k, 5) * dx, 3 + Fraction(k, 5) * dy)
        assert _primitive(q[0] - p[0], q[1] - p[1]) == (dx, dy)  # length k/5


class TestCentralPoint:
    def test_root(self):
        assert central_point(vianna_triangle((1, 1, 1))) == ((1, 3), (1, 3))

    def test_two_one_one(self):
        assert central_point(vianna_triangle((2, 1, 1))) == ((1, 3), (1, 3))

    def test_five_two_one_distances(self):
        tri = vianna_triangle((5, 2, 1))
        cx, cy = (Fraction(*c) for c in central_point(tri))
        polygon = tri.polygon
        pts = polygon.vertices
        for p, q in zip(pts, pts[1:] + pts[:1]):
            direction = (q[0] - p[0], q[1] - p[1])
            normal = (-direction[1], direction[0])
            # normalize to the primitive integer normal by hand
            from math import gcd

            den = normal[0].denominator * normal[1].denominator // gcd(
                normal[0].denominator, normal[1].denominator
            )
            nx, ny = int(normal[0] * den), int(normal[1] * den)
            g = gcd(abs(nx), abs(ny))
            nx, ny = nx // g, ny // g
            support = min(x * nx + y * ny for x, y in polygon.vertices)
            assert cx * nx + cy * ny - support == Fraction(1, 3)

    def test_exists_below_ten_thousand(self):
        third = Fraction(1, 3)
        for t in enumerate_triples(10 ** 4):
            tri = vianna_triangle(t)
            cy = Fraction(*central_point(tri)[1])
            assert 0 < cy < tri.polygon.vertices[2][1]  # interior height range


class TestShearAndInscribed:
    def test_two_one_one_needs_one_shear(self):
        tri = vianna_triangle((2, 1, 1))
        normalized = shear_normalize(tri)
        assert normalized.u - tri.u == 1
        assert normalized.polygon.vertices[2] == (Fraction(1, 2), Fraction(1, 2))

    def test_five_two_one_already_interior(self):
        tri = vianna_triangle((5, 2, 1))
        normalized = shear_normalize(tri)
        assert normalized == tri

    def test_one_shear_suffices_below_ten_to_twelve(self):
        # the normal form puts the apex at 0 <= t < h, and h < ell below the
        # root, so only t = 0, which is (2,1,1), needs a shear
        for t in enumerate_triples(10 ** 12):
            if t == (1, 1, 1):
                continue
            tri = vianna_triangle(t)
            _, (_, (ell, _), (t_, h)) = tri.polygon.scaled  # all three times D
            assert 0 <= t_ < h < ell
            normalized = shear_normalize(tri)
            if t == (2, 1, 1):
                assert normalized.u == 1
                assert normalized.polygon.vertices[2] == (Fraction(1, 2), Fraction(1, 2))
            else:
                assert normalized == tri

    def test_width_preserved(self):
        for triple in ((2, 1, 1), (13, 5, 1), (433, 29, 5)):
            tri = vianna_triangle(triple)
            normalized = shear_normalize(tri)
            assert lattice_width(tri.polygon) == lattice_width(normalized.polygon)

    def test_root_rejected(self):
        with pytest.raises(ValueError):
            shear_normalize(vianna_triangle((1, 1, 1)))

    def test_inscribed_examples(self):
        normalized = shear_normalize(vianna_triangle((2, 1, 1)))
        assert inscribed_right_triangle(normalized)
        assert inscribed_at(normalized, Fraction(1, 10))
        normalized = shear_normalize(vianna_triangle((5, 2, 1)))
        assert inscribed_right_triangle(normalized)
        assert inscribed_at(normalized, Fraction(1, 25))

    def test_inscribed_needs_normal_form(self):
        with pytest.raises(ValueError):
            inscribed_right_triangle(vianna_triangle((2, 1, 1)))

    def test_inscribed_eps_range(self):
        # the decision covers the open range (0, h) up to both of its ends
        for t in ((2, 1, 1), (5, 2, 1), (433, 29, 5)):
            normalized = shear_normalize(vianna_triangle(t))
            points = list(normalized.polygon.vertices)
            h = points[2][1]
            assert inscribed_right_triangle(normalized)
            for eps in (h / 10 ** 9, h * (1 - Fraction(1, 10 ** 9))):
                assert inscribed_at(normalized, eps) and fraction_inscribed(points, eps)

    def test_inscribed_small_eps_below_thousand(self):
        for t in enumerate_triples(1000):
            if t == (1, 1, 1):
                continue
            normalized = shear_normalize(vianna_triangle(t))
            assert inscribed_right_triangle(normalized)
            assert inscribed_at(normalized, normalized.polygon.vertices[2][1] / 64)


class TestAlgLemma:
    def test_root_fails(self):
        assert not check_alg_lemma((1, 1, 1))

    def test_two_one_one(self):
        assert check_alg_lemma((2, 1, 1))

    def test_exhaustive_to_one_million(self):
        for t in enumerate_triples(10 ** 6):
            expected = t != (1, 1, 1)
            assert check_alg_lemma(t) == expected


class TestExactCoordinates:
    def test_polygon_refuses_a_float_vertex(self):
        with pytest.raises(TypeError):
            LatticePolygon(1, [(0, 0), (0.5, 0), (0, 1)])

    @pytest.mark.parametrize("tx, ty", [(0.5, 0), (0, 0.5)])
    def test_map_refuses_a_float_translation(self, tx, ty):
        with pytest.raises(TypeError):
            UnimodularMap(1, 0, 0, 1, (tx, 1), (ty, 1)).apply(UNIT_SQUARE)


class TestUnimodularMap:
    def test_determinant_validated(self):
        with pytest.raises(ValueError):
            UnimodularMap(2, 0, 0, 1, (0, 1), (0, 1))

    def test_orientation_flip_keeps_polygon_valid(self):
        flip = UnimodularMap(0, 1, 1, 0, (0, 1), (0, 1))
        mapped = flip.apply(UNIT_SQUARE)
        assert fraction_area(mapped.vertices) == fraction_area(UNIT_SQUARE.vertices) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([*MIXED, FOUR_PAIRS, UNIT_TRIANGLE,
                            *(vianna_triangle(t).polygon for t in FIRST_EIGHT)]),
           st.randoms(use_true_random=False))
    def test_integer_images_match_fraction_images(self, polygon, rng):
        m = random_unimodular(rng)
        assert m.apply(polygon) == fraction_apply(m, polygon)

    def test_integer_translations(self):
        for m in (UnimodularMap(0, 1, 1, 0, (3, 1), (-2, 1)),
                  UnimodularMap(1, 0, 0, 1, (0, 1), (0, 1))):
            assert m.apply(SKEW) == fraction_apply(m, SKEW)


def assert_reduced(pair):
    num, den = pair
    assert type(num) is type(den) is int and den > 0 and math.gcd(num, den) == 1


class TestReducedPairs:
    """`lattice_width` and `central_point` hand out (num, den) pairs in lowest
    terms with den > 0, equal to the Fraction oracles of tests/support.py."""

    def test_base_triangles_to_ten_to_thirty(self):
        for t in enumerate_triples(10 ** 30):
            tri = vianna_triangle(t)
            value, xi = lattice_width(tri.polygon)
            point = central_point(tri)
            for pair in (value, *point):
                assert_reduced(pair)
            assert Fraction(*value) == fraction_spread(tri.polygon, *xi)
            assert tuple(Fraction(*c) for c in point) == fraction_central_point(
                fraction_triangle(*t, tri.u))

    def test_images_the_lattice_suite_builds(self):
        rng = random.Random(20240813)  # the maps of `verify`'s unimodular-invariance
        for t in ((5, 2, 1), (29, 5, 2)):
            polygon = vianna_triangle(t).polygon
            for _ in range(20):
                m = random_unimodular(rng)
                for pair in (m.tx, m.ty):
                    assert_reduced(pair)
                mapped = m.apply(polygon)
                value, xi = lattice_width(mapped)
                assert_reduced(value)
                assert (value, xi) == oracle_width(mapped)
                assert Fraction(*value) == fraction_spread(mapped, *xi)
