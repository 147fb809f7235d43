import json
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbl.capacity import (
    QuadraticValue,
    _context,
    _preview,
    _sign,
    capacity_to_json,
    closed_forms,
    lagrange_number,
    limit_decimal,
    surd_text,
    width,
)
from mbl.markov import enumerate_triples, markov_numbers
from mbl.ordering import alternating_order, spectrum_rows
from mbl.suites import spectrum_values_check, surd_identity_check

from support import (
    apex_of_number,
    compare,
    interval_compare,
    limit_point,
    quadratic_interval,
    random_quadratic,
    rounded_limit,
)

QV = QuadraticValue

_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# mostly non-integer radicands, with perfect squares folding to rationals
_RADICANDS = st.one_of(
    st.fractions(min_value=0, max_value=30, max_denominator=12),
    st.fractions(min_value=0, max_value=6, max_denominator=6).map(lambda x: x * x),
)
_SURDS = st.builds(QV, _RATIONALS, st.one_of(st.just(0), _RATIONALS), _RADICANDS)


class TestWidth:
    @pytest.mark.parametrize(
        "triple,expected",
        [
            ((1, 1, 1), (1, 1)),
            ((2, 1, 1), (1, 2)),
            ((5, 2, 1), (2, 5)),
            ((13, 5, 1), (5, 13)),
            ((29, 5, 2), (10, 29)),
            ((433, 29, 5), (145, 433)),
            ((194, 13, 5), (65, 194)),
        ],
    )
    def test_table(self, triple, expected):
        assert width(triple) == expected

    def test_bounds_below_one_million(self):
        # strictly between 1/3 and 1/2 except at the root
        for t in enumerate_triples(10 ** 6):
            w = Fraction(*width(t))
            if t == (1, 1, 1):
                assert w == 1
            else:
                assert Fraction(1, 3) < w <= Fraction(1, 2)

    def test_json_roundtrip(self):
        w = width((433, 29, 5))
        assert capacity_to_json(w) == {"num": "145", "den": "433"}


class TestSurdIdentity:
    def test_two_one_one_integers(self):
        # (2a-3bc)^2 = 1 and 9-4-4 = 1
        assert surd_identity_check((2, 1, 1))

    def test_root_fails_sign_condition(self):
        assert not surd_identity_check((1, 1, 1))

    def test_exhaustive_to_ten_thousand(self):
        for t in enumerate_triples(10 ** 4):
            expected = t != (1, 1, 1)
            assert surd_identity_check(t) == expected


class TestSpectrumValues:
    def test_lagrange_one_is_sqrt5(self):
        assert compare(lagrange_number(1), QV(0, 1, 5)) == 0

    def test_lagrange_two_is_sqrt8(self):
        assert compare(lagrange_number(2), QV(0, 1, 8)) == 0

    def test_lagrange_five_fields(self):
        assert repr(lagrange_number(5)) == (
            "QuadraticValue(Fraction(0, 1), Fraction(1, 5), Fraction(221, 1))")

    def test_check_refuses_the_other_root(self, monkeypatch):
        # (3m^2 + m*sqrt(r))/2 lies above 1/3 too, but is not 2/(3 + L)
        assert spectrum_values_check()
        real = closed_forms

        def other_root(m):
            (q, (sn, sd), r), lagrange = real(m)
            return (q, (-sn, sd), r), lagrange

        monkeypatch.setattr("mbl.suites.closed_forms", other_root)
        assert not spectrum_values_check()

    def test_lagrange_rejects_non_markov(self):
        with pytest.raises(ValueError):
            lagrange_number(3)

    def test_limit_point_one(self):
        assert repr(limit_point(1)) == (
            "QuadraticValue(Fraction(3, 2), Fraction(-1, 2), Fraction(5, 1))")
        assert limit_decimal(1) == rounded_limit(1) == "0.381966011250"
        assert limit_decimal(1, 40) == rounded_limit(1, 40)

    def test_previews_round_at_any_exponent(self):
        # outside the default exponent bounds of +-999999 the first quotient
        # would overflow and the last lose two digits as a subnormal
        ctx = _context(6)
        assert str(ctx.divide(Decimal("1E+1000000"), 1)) == "1E+1000000"
        assert str(ctx.divide(Decimal("1E+1000000"), 3)) == "3.33333E+999999"
        assert str(ctx.divide(Decimal("1E-1000000"), 3)) == "3.33333E-1000001"
        assert _preview({"num": "2", "den": "3"}) == "0.666666666667"
        assert _preview({"num": "1", "den": "3" + "0" * 9999}, 6) == "3.33333E-10000"

    def test_limit_point_two(self):
        # 2/(3 + sqrt(8)) rationalizes to 6 - 4*sqrt(2)
        assert compare(limit_point(2), QV(6, -4, 2)) == 0

    def test_limits_decrease_to_one_third(self):
        previous = None
        for m in markov_numbers(20):
            lp = limit_point(m)
            assert compare(lp, Fraction(1, 3)) > 0
            assert compare(lp, Fraction(1, 2)) <= 0
            if previous is not None:
                assert compare(lp, previous) < 0
            previous = lp


class TestCompare:
    def test_limit_above_one_third(self):
        assert compare(limit_point(1), Fraction(1, 3)) == 1

    def test_width_above_limit(self):
        assert compare(Fraction(*width((194, 13, 5))), limit_point(5)) == 1

    def test_reflexive(self):
        x = limit_point(5)
        assert compare(x, x) == 0

    def test_scaled_radicands_equal(self):
        assert compare(QV(0, Fraction(1, 2), 32), QV(0, 1, 8)) == 0

    def test_mixed_rational(self):
        assert compare(Fraction(2, 5), QV(-1, 1, 2)) < 0

    def test_against_interval_oracle(self):
        rng = random.Random(4099)
        for _ in range(200):
            x, y = random_quadratic(rng), random_quadratic(rng)
            expected = interval_compare(x, y)
            if expected is None:
                assert compare(x, y) == 0
            else:
                assert compare(x, y) == expected

    @settings(deadline=None)
    @given(_SURDS, _SURDS)
    @example(QV(0, 1, 8), QV(0, 2, 2))
    @example(QV(0, 1, Fraction(9, 4)), QV(Fraction(3, 2)))
    def test_surds_against_interval_oracle(self, x, y):
        expected = interval_compare(x, y)
        assert compare(x, y) == (0 if expected is None else expected)
        assert compare(y, x) == -compare(x, y)

    def test_capacities_above_limits_near_ties(self):
        # the smallest gap here is about 4e-237: 200 digits leave hundreds of
        # these pairs unseparated, 600 digits separate every one
        for row in spectrum_rows(850, 6):
            limit = limit_point(row.m)
            for w in (Fraction(*ratio) for ratio in row.ratios):
                assert interval_compare(QV(w), limit, 600) == 1
                assert compare(w, limit) == 1
                assert limit.compare(w) == -1

    def test_sign_exact_on_square_radicands(self):
        # canonical values never reach _sign with a square radicand and
        # y != 0, but the helper stays exact there, ties included
        for x in range(-7, 8):
            for y in range(-7, 8):
                for root in range(5):
                    v = x + y * root
                    assert _sign(x, y, root * root) == (v > 0) - (v < 0)

    @settings(deadline=None)
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
           st.one_of(st.integers(0, 10 ** 6), st.integers(0, 1000).map(lambda x: x * x)))
    @example(-6, 2, 9)
    @example(6, -2, 9)
    @example(7, 0, 0)
    def test_sign_matches_interval(self, x, y, z):
        # only a tie, on a square radicand, leaves the 200-digit interval at 0
        interval = quadratic_interval(x, y, z)
        oracle = 1 if interval > 0 else -1 if interval < 0 else 0
        assert _sign(x, y, z) == oracle

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            QV(0, 1, 2).compare(1.5)
        with pytest.raises(TypeError):
            QV(0, 1, 2) < 1.5

    def test_total_order_on_samples(self):
        rng = random.Random(20991)
        values = [random_quadratic(rng) for _ in range(40)]
        for x in values:
            for y in values:
                assert compare(x, y) == -compare(y, x)
        ordered = sorted(values, key=_SortKey)
        for x, y, z in zip(ordered, ordered[1:], ordered[2:]):
            assert compare(x, y) <= 0 and compare(y, z) <= 0
            assert compare(x, z) <= 0


class _SortKey:
    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return compare(self.value, other.value) < 0


class TestQuadraticValue:
    def test_perfect_square_folds(self):
        for value, q in ((QV(0, 1, 9), 3), (QV(1, 2, Fraction(9, 4)), 4)):
            assert repr(value) == (
                f"QuadraticValue(Fraction({q}, 1), Fraction(0, 1), Fraction(0, 1))")

    @settings(deadline=None)
    @given(_RATIONALS, _RATIONALS, _RADICANDS)
    def test_cleared_parts_are_the_value(self, q, s, r):
        # the oracle reads (A + B*sqrt(R))/D; evaluated from q, s and r
        # directly, the enclosures of one value overlap
        iv = mpmath.iv
        iv.prec = 700
        root = iv.sqrt(iv.mpf(r.numerator) / r.denominator)
        direct = iv.mpf(q.numerator) / q.denominator + iv.mpf(s.numerator) / s.denominator * root
        a, b, rad, d = QV(q, s, r)._cleared()
        cleared = quadratic_interval(a, b, rad, d)
        assert d > 0 and rad >= 0
        assert not (direct < cleared) and not (direct > cleared)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QV(0, 1, -5)

    def test_rich_comparisons(self):
        assert QV(0, 1, 2).compare(QV(0, 1, 3)) < 0
        assert QV(0, 1, 8) == QV(0, 2, 2)
        assert QV(0, 1, 5).compare(2) > 0
        assert QV(0, 1, 5).compare(Fraction(9, 4)) <= 0
        with pytest.raises(TypeError):  # values have no ordering operators
            QV(0, 1, 2) < QV(0, 1, 3)

    def test_json_roundtrip(self):
        row = spectrum_rows(3)[2]  # m = 5; the row writes its limit from closed_forms(5)
        assert json.loads(row.json_text("\n"))["limit"] == {
            "q": {"num": "75", "den": "2"},
            "s": {"num": "-5", "den": "2"},
            "r": {"num": "221", "den": "1"},
        }
        # the closed-form parts are already reduced, for odd and even m alike
        for m in markov_numbers(30):
            for parts in closed_forms(m):
                assert parts == tuple((x.numerator, x.denominator)
                                      for x in (Fraction(*part) for part in parts))

    def test_str_forms(self):
        assert surd_text(((0, 1), (1, 1), (5, 1))) == "sqrt(5)"
        assert surd_text(((0, 1), (-2, 3), (5, 7))) == "-2/3*sqrt(5/7)"
        assert surd_text(((1, 1), (1, 1), (2, 1))) == "1 + sqrt(2)"
        assert surd_text(closed_forms(1)[0]) == "3/2 - 1/2*sqrt(5)"
        assert [surd_text(parts) for parts in closed_forms(2)] == ["6 - sqrt(32)",
                                                                   "1/2*sqrt(32)"]

    def test_text_reads_back_as_the_closed_forms(self):
        def read(text):  # "q - s*sqrt(r)" or "s*sqrt(r)", a factor 1 left out
            q, minus, surd = text.rpartition(" - ")
            s, r = surd.removesuffix(")").split("sqrt(")
            s = Fraction(s.removesuffix("*") or 1)
            return Fraction(q or 0), -s if minus else s, Fraction(r)

        for m in markov_numbers(900):
            for parts in closed_forms(m):
                assert read(surd_text(parts)) == tuple(Fraction(*part) for part in parts)


class TestConvergenceTrace:
    """Every node of `alternating_order` lies above the limit of its apex
    maximum, with gaps to it strictly decreasing."""

    @staticmethod
    def gaps(apex, depth):
        q, s, r = (Fraction(*part) for part in closed_forms(apex[0])[0])
        sequence = [(t, Fraction(*w)) for t, w in alternating_order(apex, depth)]
        assert all(compare(w, limit_point(apex[0])) > 0 for _, w in sequence)
        return [QV(w - q, -s, r) for _, w in sequence]  # width - limit

    def test_fibonacci_gaps_decrease(self):
        apex = apex_of_number(1)
        gaps = self.gaps(apex, 2)
        assert len(gaps) == 3
        assert compare(gaps[0], gaps[1]) > 0 and compare(gaps[1], gaps[2]) > 0
        # below the degenerate apexes a single branch: one node per level
        for apex, child in (((1, 1, 1), (2, 1, 1)), ((2, 1, 1), (5, 2, 1))):
            sequence = alternating_order(apex, 6)
            assert len(sequence) == 7 and sequence[1][0] == child

    def test_left_and_right_of_five(self):
        apex = apex_of_number(5)
        gaps = self.gaps(apex, 5)
        assert len(gaps) == 11
        assert all(compare(x, y) > 0 for x, y in zip(gaps, gaps[1:]))
        left = [t for t, _ in alternating_order(apex, 2)[1::2]]
        assert left == [(13, 5, 1), (194, 13, 5)]

    def test_single_entry(self):
        apex = apex_of_number(2)
        assert alternating_order(apex, 0) == [((2, 1, 1), (1, 2))]

    def test_count_validation(self):
        apex = apex_of_number(1)
        with pytest.raises(ValueError):
            alternating_order(apex, -1)
