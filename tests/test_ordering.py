import math
import re
from fractions import Fraction

import pytest

import mbl.ordering
from mbl.capacity import QuadraticValue, width
from mbl.errors import VerificationError
from mbl.markov import (
    MarkovTriple,
    MarkovWalk,
    chains,
    enumerate_triples,
    markov_prefix,
)
from mbl.ordering import (
    IrregularityRecord,
    _deficit,
    _essential_capacities,
    _exceeds,
    alternating_order,
    descent_integers,
    find_irregularities,
    ordered_prefix_complete_above,
    spectrum_rows,
    verify_swap_pattern,
)
from mbl.suites import fibonacci, pell

from support import (
    compare,
    essential_subtree,
    limit_point,
    nn_inequality_holds,
    sorted_capacity_order,
    vieta_prefix,
    wedge_descends,
    window_pairs,
)

T = MarkovTriple

ORDER5 = [
    (5, 2, 1), (13, 5, 1), (29, 5, 2), (194, 13, 5),
    (433, 29, 5), (2897, 194, 5), (6466, 433, 5),
]


def rationalized(radicand: Fraction) -> QuadraticValue:
    """2/(3 + sqrt(radicand)) in q + s*sqrt(r) form."""
    den = 9 - radicand
    return QuadraticValue(Fraction(6) / den, Fraction(-2) / den, radicand)


class TestAlternatingOrder:
    def test_order5_triples(self):
        sequence = alternating_order(T(5, 2, 1), 3)
        assert [tuple(t) for t, _ in sequence] == ORDER5

    def test_order5_widths(self):
        sequence = alternating_order(T(5, 2, 1), 3)
        expected = [
            Fraction(2, 5), Fraction(5, 13), Fraction(10, 29),
            Fraction(65, 194), Fraction(145, 433),
            Fraction(970, 2897), Fraction(2165, 6466),
        ]
        assert [w for _, w in sequence] == expected
        # the tight step near the end, as a bare cross-multiplication
        assert 970 * 6466 > 2165 * 2897

    def test_fibonacci_chain_closed_form(self):
        # w((F_{2n+1}, F_{2n-1}, 1)) = 2/(3 + sqrt(5 - 4/F_{2n-1}^2))
        for t, w in alternating_order(T(1, 1, 1), 6)[1:]:
            f = t.b
            assert compare(w, rationalized(Fraction(5) - Fraction(4, f * f))) == 0

    def test_no_descent_violation_below_ten_thousand(self):
        for t in enumerate_triples(10 ** 4):
            alternating_order(t, 8)

    def test_descent_failure_names_the_apex(self):
        # entries that fail b > c, or 3ac > 2b, read as if they were a triple
        for a, b, c in ((5, 2, 2), (5, 11, 1)):
            apex = object.__new__(T)
            vars(apex).update(a=a, b=b, c=c)
            with pytest.raises(VerificationError, match=re.escape(
                    f"capacity descent fails below ({a},{b},{c}): needs b > c and 3ac > 2b")):
                alternating_order(apex, 3)


class TestChains:
    def test_chain_values(self):
        # left from (c, 3ac - b), right from (b, 3ab - c)
        assert chains(T(5, 2, 1), 3) == [[1, 13, 194, 2897], [2, 29, 433, 6466]]
        assert chains(T(5, 2, 1), 0) == [[1], [2]]
        # the degenerate apexes have a single chain
        assert chains(T(1, 1, 1), 3) == [[1, 2, 5, 13]]
        assert chains(T(2, 1, 1), 3) == [[1, 5, 29, 169]]

    def test_chain_triples_are_solutions(self):
        for xs in chains(T(13, 5, 1), 6):
            assert len(xs) == 7
            # from x_1 on every chain value exceeds 13, the minimal entry of each node
            assert all(x > 13 for x in xs[1:])
            for low, high in zip(xs, xs[1:]):
                assert high > low and high ** 2 + low ** 2 + 13 ** 2 == 3 * high * low * 13

    def test_interleaving(self):
        # the helper's b > c and 3ac > 2b give L_i < R_i < L_{i+1}
        for t in enumerate_triples(10 ** 4):
            if t.a < 5:
                continue
            _, left_right, right_left, _ = descent_integers(t)
            assert left_right > 0 and right_left > 0
            g, f = (xs[1:] for xs in chains(t, 10))
            merged = [x for pair in zip(g, f) for x in pair]
            assert all(x < y for x, y in zip(merged, merged[1:]))

    def test_five_term_chain(self):
        # the opening chain bc/a > ac/g1 > ab/f1 > a g1/g2 > a f1/f2 > a g2/g3:
        # each cross-multiplication is c times c^2 (the apex step), then a
        # times b^2 - c^2 and c(3ac - 2b) in turn
        assert descent_integers(T(5, 2, 1)) == (25, 3, 11, 1)
        assert descent_integers(T(13, 5, 1)) == (169, 24, 29, 1)
        caps = [(w.numerator, w.denominator) for _, w in alternating_order(T(5, 2, 1), 3)[:6]]
        assert caps == [(2, 5), (5, 13), (10, 29), (65, 194), (145, 433), (970, 2897)]
        assert [p[0] * q[1] - q[0] * p[1] for p, q in zip(caps, caps[1:])] == [
            1, 5 * 3, 5 * 11, 5 * 3, 5 * 11]

    def test_all_apexes_to_ten_thousand(self):
        for t in enumerate_triples(10 ** 4):
            if t.a >= 5:
                assert min(descent_integers(t)) > 0

    def test_small_apex_rejected(self):
        # the one-chain apexes have b = c, so only a^2 and c^2 decide them;
        # any other apex with b = c is rejected
        assert descent_integers(T(1, 1, 1)) == (1, 0, 1, 1)
        assert descent_integers(T(2, 1, 1)) == (4, 0, 4, 1)
        apex = object.__new__(T)
        vars(apex).update(a=5, b=2, c=2)
        with pytest.raises(VerificationError, match=re.escape("(5,2,2)")):
            descent_integers(apex)
        with pytest.raises(ValueError):
            chains(T(5, 2, 1), -1)

    def test_descent_integers_are_the_chain_determinants(self):
        # degenerate apexes included: their single chain gives a^2 and c^2
        _, apexes = markov_prefix(200)
        for apex in apexes:
            a, b, c = apex
            a2, left_right, right_left, c2 = descent_integers(apex)
            columns = chains(apex, 12)
            assert b * columns[0][1] - a * a == c2
            for i in range(1, 12):
                for xs in columns:
                    assert xs[i - 1] * xs[i + 1] - xs[i] ** 2 == a2
                if len(columns) == 2:
                    ls, rs = columns
                    assert ls[i - 1] * rs[i] - rs[i - 1] * ls[i] == left_right
                    assert rs[i - 1] * ls[i + 1] - rs[i] * ls[i] == right_left

    def test_descent_to_depth_thirty_against_fractions(self):
        # the independent oracle agrees with the helper on every apex
        _, apexes = markov_prefix(200)
        for apex in apexes:
            descent_integers(apex)
            assert wedge_descends(apex, 30)

    def test_chain_capacities_are_the_wedge_widths(self):
        # bc/a at the apex, then a x_{i-1}/x_i at the level-i node, as the
        # essential capacities of a >= 5 read them off the chains; degenerate
        # apexes included: (1,1,1) and (2,1,1) have a single chain
        for t in enumerate_triples(10 ** 4):
            for depth in range(9):
                caps = [width(t)] + [Fraction(t.a * xs[i - 1], xs[i])
                                     for i in range(1, depth + 1) for xs in chains(t, depth)]
                assert caps == [w for _, w in alternating_order(t, depth)]


class TestSpectrumRows:
    def test_row_anchors(self):
        rows = spectrum_rows(4)
        assert (rows[2].m, rows[2].b) == (5, 13)
        assert (rows[3].m, rows[3].b) == (13, 34)

    def test_rows_33_34(self):
        rows = spectrum_rows(34)
        assert rows[32].m == 195025 and rows[32].b == 1136689
        assert rows[33].m == 196418 and rows[33].b == 514229

    def test_right_number_identities(self):
        rows = spectrum_rows(34)
        assert rows[32].m == pell(15) and rows[32].b == pell(17)
        assert rows[33].m == fibonacci(27) and rows[33].b == fibonacci(29)

    def test_degenerate_convention(self):
        rows = spectrum_rows(2)
        assert rows[0].b == 2 and rows[0].degenerate
        assert rows[1].b == 5 and rows[1].degenerate

    def test_b_is_second_smallest_member(self):
        # 3ac - b coincides with the second-smallest Markov number appearing
        # in the essential subtree, including the degenerate rows
        for row in spectrum_rows(10):
            members = set()
            for t in essential_subtree(row.m, 4):
                members.update(t)
            assert sorted(members)[1] == row.b

    def test_capacities_above_limit_and_decreasing(self):
        for row in spectrum_rows(12, k=6):
            caps, limit = [Fraction(*ratio) for ratio in row.ratios], limit_point(row.m)
            assert len(caps) == 6
            assert all(x > y for x, y in zip(caps, caps[1:]))
            assert all(compare(w, limit) > 0 for w in caps)
            assert compare(limit, Fraction(1, 3)) > 0

    def test_rows_read_the_descent_helper(self, monkeypatch):
        real, seen = descent_integers, []
        monkeypatch.setattr("mbl.ordering.descent_integers",
                            lambda apex: seen.append(apex) or real(apex))
        rows = spectrum_rows(10, k=2)
        # once per row, on the walk's int triple
        assert seen == [row.apex for row in rows]
        assert all(type(apex) is tuple for apex in seen)

    def test_first_capacity_formula(self):
        # w_1(n) = 2/(3 + sqrt(9 - 4/m^2 - 4/b^2))
        for row in spectrum_rows(10)[2:]:
            rad = Fraction(9) - Fraction(4, row.m ** 2) - Fraction(4, row.b ** 2)
            assert compare(Fraction(*row.ratios[0]), rationalized(rad)) == 0

    def test_trimmed_depth_matches_full_depth(self):
        # the essential capacities read within (k + 1)//2 + 1 levels for
        # a >= 5 are those the filter over wedge(apex, k + 1) keeps
        _, apexes = markov_prefix(850)
        for apex in apexes:
            for k in range(1, 9):
                full = [(w.numerator, w.denominator) for _, w in alternating_order(T(*apex), k + 1)
                        if w.numerator >= apex[0] * apex[0]][:k]
                assert _essential_capacities(apex, k) == tuple(full)

    def test_ratios_are_in_lowest_terms(self):
        # the premise of the JSON rows, which print the pairs as they stand
        for row in spectrum_rows(850, 8):
            assert len(row.ratios) == 8
            assert all(math.gcd(num, den) == 1 for num, den in row.ratios)

    def test_essential_capacities_of_row_three(self):
        row = spectrum_rows(3, k=4)[2]
        assert row.ratios == ((65, 194), (145, 433), (970, 2897), (2165, 6466))
        # the raw-chain capacities against the validated essential triples,
        # including the degenerate rows 1 and 2
        for row in spectrum_rows(200, k=7):
            expected = tuple(width(t) for t in essential_subtree(row.m, 7)[:7])
            assert tuple(Fraction(*ratio) for ratio in row.ratios) == expected


def _scan_prefix(n_max: int):
    # every scan window up to n_max closes at the first m^2 >= 2 m_{n_max}^2
    numbers, apexes = vieta_prefix(n_max + 1)
    m = numbers[n_max - 1]
    while numbers[-1] ** 2 < 2 * m * m:
        numbers, apexes = vieta_prefix(len(numbers) + 1)
    return numbers, apexes


def _fraction_violations(n_max: int) -> set[tuple[int, int]]:
    """Pairs (n, n') in the scan windows up to n_max failing
    1/m_n^2 >= 1/m_{n'}^2 + 1/b_{n'}^2, decided on Fractions."""
    numbers, _ = _scan_prefix(n_max)
    return {pair for pair in window_pairs(numbers, n_max) if not nn_inequality_holds(*pair)}


# The catalogue to n = 793, the last n_max below the span-3 irregularity.
SPAN_1_TO_793 = [33, 37, 42, 104, 112, 118, 120, 214, 227, 309, 353, 382, 400,
                 416, 450, 468, 481, 522, 541, 582, 630, 640, 662, 670, 702, 771]
SPAN_2_TO_793 = [369, 433, 560, 747]


class TestNNInequality:
    def test_three_four_exact(self):
        assert Fraction(1, 25) >= Fraction(1, 169) + Fraction(1, 1156)
        assert nn_inequality_holds(3, 4)

    def test_first_violation(self):
        assert not nn_inequality_holds(33, 34)

    def test_prefix_regular_through_32(self):
        numbers, _ = markov_prefix(48)
        for n, n_prime in window_pairs(numbers, 32):
            assert nn_inequality_holds(n, n_prime)

    def test_cross_multiplied_form_matches_fractions_to_850(self):
        violated = _fraction_violations(850)
        assert (794, 797) in violated
        numbers, apexes = _scan_prefix(850)
        for n, n_prime in window_pairs(numbers, 850):
            expected = (n, n_prime) not in violated
            a, b, c = apexes[n_prime - 1]
            lead = _deficit(numbers[n_prime - 1], 3 * a * c - b)
            assert (not _exceeds(lead, _deficit(numbers[n - 1]))) == expected


def _inv_sq(x: int) -> Fraction:
    return Fraction(1, x * x)


def _fraction_swap_pattern(n: int, n_prime: int) -> bool:
    """verify_swap_pattern's conditions, decided on Fractions."""
    if nn_inequality_holds(n, n_prime):
        return True
    numbers, apexes = vieta_prefix(n_prime)
    a, b, c = apexes[n_prime - 1]
    m_p, b_p, f1_p = numbers[n_prime - 1], 3 * a * c - b, 3 * a * b - c
    for k in range(n, n_prime):
        a, b, c = apexes[k - 1]
        m_k, b_k = numbers[k - 1], 3 * a * c - b
        if (nn_inequality_holds(k, n_prime)
                or not _inv_sq(m_p) + _inv_sq(b_p) > _inv_sq(m_k) + _inv_sq(b_k)
                or not _inv_sq(m_k) >= _inv_sq(m_p) + _inv_sq(f1_p)):
            return False
    return n == 1 or nn_inequality_holds(n - 1, n_prime)


class TestIntegerForms:
    """The cross-multiplied ordering checks against their Fraction forms."""

    def test_swap_deficits_match_fractions_to_850(self):
        violated = _fraction_violations(850)
        assert (794, 797) in violated
        numbers, apexes = _scan_prefix(850)
        pairs = {(k, n_prime) for n, n_prime in violated for k in range(n - 1, n_prime)}
        window = set(window_pairs(numbers, 850))
        pairs |= window | {(n_prime, n) for n, n_prime in window}  # reversed: both outcomes
        seen = set()
        for k, n_prime in sorted(pairs):
            a, b, c = apexes[n_prime - 1]
            m_p, b_p, f1_p = numbers[n_prime - 1], 3 * a * c - b, 3 * a * b - c
            a, b, c = apexes[k - 1]
            m_k, b_k = numbers[k - 1], 3 * a * c - b
            above = _inv_sq(m_p) + _inv_sq(b_p) > _inv_sq(m_k) + _inv_sq(b_k)
            reaches = _inv_sq(m_k) >= _inv_sq(m_p) + _inv_sq(f1_p)
            assert Fraction(*_deficit(m_p, b_p)) == _inv_sq(m_p) + _inv_sq(b_p)
            assert Fraction(*_deficit(m_k)) == _inv_sq(m_k)
            assert _exceeds(_deficit(m_p, b_p), _deficit(m_k, b_k)) == above
            assert _exceeds(_deficit(m_p, f1_p), _deficit(m_k)) != reaches
            seen.add((above, reaches))
        assert len(seen) == 4  # both outcomes of both checks occur

    def test_swap_checks_at_exact_ties(self):
        # 1/12^2 = 1/15^2 + 1/20^2: the reach holds at equality, the deficit does not exceed
        assert _inv_sq(12) == _inv_sq(15) + _inv_sq(20)
        assert not _exceeds(_deficit(15, 20), _deficit(12))
        assert not _exceeds(_deficit(20, 15), _deficit(12))
        assert not _exceeds(_deficit(12), _deficit(15, 20))
        assert not _exceeds(_deficit(15, 20), _deficit(20, 15))

    def test_no_ordering_decision_builds_a_fraction(self, monkeypatch):
        def refuse(cls, *args):
            raise AssertionError(f"an ordering decision built Fraction{args}")

        threshold = Fraction(7, 20)
        monkeypatch.setattr(Fraction, "__new__", refuse)  # any Fraction, built anywhere
        for t in enumerate_triples(10 ** 4):
            if t.a >= 5:
                assert min(descent_integers(t)) > 0
        assert [len(row.ratios) for row in spectrum_rows(850, 6)] == [6] * 850
        report = ordered_prefix_complete_above(threshold, 793)
        assert report["certified"] and report["failures"] == []
        records = find_irregularities(793)
        assert len(records) == len(SPAN_1_TO_793) + len(SPAN_2_TO_793)
        assert all(verify_swap_pattern(rec) for rec in records)

    def test_swap_pattern_matches_fractions_to_793(self):
        records = find_irregularities(793)
        assert len(records) == len(SPAN_1_TO_793) + len(SPAN_2_TO_793)
        for rec in records:
            assert verify_swap_pattern(rec) == _fraction_swap_pattern(rec.n, rec.n_prime)
        for n in range(1, 60):  # regular pairs and pairs one below a record
            rec = IrregularityRecord(n, 1)
            assert verify_swap_pattern(rec) == _fraction_swap_pattern(n, n + 1)
        # rejected records: sequences 371 and 435 also overtake 369 and 433, so
        # those swaps reach sequence n - 1; in (4600, 2) and (5359, 1) the
        # leading capacity of n' stays behind the first capacity of sequence n
        for n, span in ((370, 1), (434, 1), (4600, 2), (5359, 1)):
            rec = IrregularityRecord(n, span)
            assert verify_swap_pattern(rec) is False
            assert _fraction_swap_pattern(n, n + span) is False

    def test_threshold_checks_match_fractions_to_850(self):
        rows = spectrum_rows(850, 1)
        numbers, apexes = markov_prefix(1000)
        for j in (1, 2, 33, 34, 400, 794, 797, 850):
            row = rows[j - 1]
            # the leading capacity of row j itself ties the tail check at n = j
            for threshold in (Fraction(*row.ratios[0]),
                              Fraction(1, 3) + Fraction(1, 27 * row.m * row.m)):
                rhs = (3 * threshold - 1) / (threshold * threshold)
                report = ordered_prefix_complete_above(threshold, 850)
                assert report["active_sequences"] == sum(_inv_sq(r.m) >= rhs for r in rows)
                crude = 2 * threshold * threshold / (3 * threshold - 1)
                end = next(n for n in range(2, 1000) if numbers[n - 1] ** 2 >= crude)
                tail = []
                for n in range(2, end):
                    a, b, c = apexes[n - 1]
                    tail.append((n, _inv_sq(numbers[n - 1]) + _inv_sq(3 * a * c - b) < rhs))
                report = ordered_prefix_complete_above(threshold, 1)
                assert [(c["n"], c["ok"]) for c in report["tail_exact"]] == tail
                assert report["tail_bound_index"] == end
                assert (j, False) in tail or j == 1


class TestIrregularities:
    def test_empty_through_32(self):
        assert find_irregularities(32) == []

    def test_first_two_records(self):
        records = find_irregularities(40)
        assert [(rec.n, rec.span) for rec in records] == [(33, 1), (37, 1)]

    def test_record_33_swaps(self):
        rec = find_irregularities(33)[0]
        assert rec.n == 33 and rec.span == 1 and rec.n_prime == 34
        assert verify_swap_pattern(rec)

    def test_regular_pair_vacuous(self):
        rec = IrregularityRecord(3, 1)  # manufactured for a regular pair
        assert verify_swap_pattern(rec)

    def test_span_validation(self):
        with pytest.raises(VerificationError, match=re.escape(
                "irregularity at (n=10, n'=13) spans 3 sequences; "
                "outside the catalogued patterns")):
            IrregularityRecord(10, 3)

    @pytest.mark.parametrize("n", [0, -1, -33])
    def test_index_below_one_is_refused(self, n):
        # an index below 1 would read numbers[-1] in the swap check, not refuse
        for span in (1, 2):
            with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
                IrregularityRecord(n, span)

    def test_catalogue_to_793_and_span_three_at_794(self):
        records = find_irregularities(793)
        assert [rec.n for rec in records if rec.span == 1] == SPAN_1_TO_793
        assert [rec.n for rec in records if rec.span == 2] == SPAN_2_TO_793
        lowest = {}
        for n, n_prime in sorted(_fraction_violations(793)):
            lowest.setdefault(n_prime, n)
        assert sorted((rec.n, rec.n_prime) for rec in records) == \
            sorted((n, n_prime) for n_prime, n in lowest.items())
        message = ("irregularity at (n=794, n'=797) spans 3 sequences;"
                   " outside the catalogued patterns")
        with pytest.raises(VerificationError, match=re.escape(message)):
            find_irregularities(794)

    def test_every_n_max_to_793_against_fractions(self):
        # each n' against its lowest violated n on Fractions, kept while n <= n_max
        lowest = {}
        for n, n_prime in sorted(_fraction_violations(793)):
            lowest.setdefault(n_prime, n)
        catalogue = sorted((n, n_prime - n) for n_prime, n in lowest.items())
        assert len(catalogue) == 30
        for n_max in range(1, 794):
            assert [(rec.n, rec.span) for rec in find_irregularities(n_max)] == \
                [(n, span) for n, span in catalogue if n <= n_max]


class TestSortedCapacities:
    """The global order against a plain sort of every capacity below 10^100."""

    def test_order_below_ten_to_the_hundred(self):
        overtakes, moved = sorted_capacity_order(10 ** 100)
        records = find_irregularities(793)
        assert len(records) == len(SPAN_1_TO_793) + len(SPAN_2_TO_793) == 30
        # each leader moves ahead of all capacities of exactly its spanned sequences
        assert {n_prime: behind for n_prime, behind in overtakes.items()
                if min(behind) <= 793} == \
            {rec.n_prime: dict.fromkeys(range(rec.n, rec.n_prime), 0) for rec in records}
        assert moved == []
        # 794 -> 797: the leader of 797 stays behind the first capacity of 794
        assert overtakes[797] == {794: 1, 795: 0, 796: 0}


class TestCompleteness:
    def test_small_threshold_certifies_fast(self):
        report = ordered_prefix_complete_above(
            Fraction(1, 3) + Fraction(1, 100), 40
        )
        assert report["certified"] is True
        assert report["tail_exact"] == []
        # only the Fibonacci sequence has its limit above 1/3 + 1/100
        assert report["active_sequences"] == 1

    def test_report_serializes(self):
        data = ordered_prefix_complete_above(Fraction(7, 20), 10)
        assert data["certified"] is True
        assert data["threshold"] == {"num": "7", "den": "20"}

    def test_descent_condition_states_every_depth(self):
        # descent_integers decides descent at every depth, so the certificate
        # names no depth
        data = ordered_prefix_complete_above(Fraction(7, 20), 10)
        assert "descent_depth" not in data
        assert data["conditions"][2] == (
            "within-sequence strict descent above the limit verified exactly at "
            "every depth of every sequence, from the four descent integers of its apex")

    @pytest.mark.parametrize("threshold", [Fraction(2, 3), 1, 10, 10 ** 100],
                             ids=["2/3", "1", "10", "1e100"])
    def test_nothing_is_active_from_two_thirds_on(self, monkeypatch, threshold):
        # no capacity but the width 1 of (1,1,1) reaches 2/3: no sequence is
        # active and no tail check runs; at n_max 10 the scan window also ends
        # at m_11 = 433, so the walk stops there
        walk = MarkovWalk()
        monkeypatch.setattr(mbl.ordering, "markov_prefix", walk.prefix)
        report = ordered_prefix_complete_above(threshold, 10)
        assert (report["certified"], report["active_sequences"], report["tail_exact"],
                report["tail_bound_index"], report["failures"]) == (True, 0, [], 11, [])
        assert len(walk._numbers) == 11

    def test_threshold_at_one_third_rejected(self):
        with pytest.raises(ValueError):
            ordered_prefix_complete_above(Fraction(1, 3), 10)

    def test_threshold_below_one_third_rejected(self):
        with pytest.raises(ValueError):
            ordered_prefix_complete_above(Fraction(1, 4), 10)

    def test_float_threshold_refused(self):
        # 0.34 would otherwise certify its binary expansion 6124895493223875/2^54
        with pytest.raises(TypeError):
            ordered_prefix_complete_above(0.34, 10)
