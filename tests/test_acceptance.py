"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime; every tolerance is
exact equality decided over integers, Fraction, or sign-exact surds.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction

from mbl.capacity import QuadraticValue, closed_forms, lagrange_number, width
from mbl.cli import main
from mbl.lattice import lattice_width, vianna_triangle
from mbl.markov import (
    enumerate_triples,
    markov_numbers,
    markov_prefix,
)
from mbl.oeis import cross_check, load_bfile
from mbl.ordering import (
    alternating_order,
    descent_integers,
    find_irregularities,
    ordered_prefix_complete_above,
    spectrum_rows,
)
from mbl.suites import (
    apply_unimodular,
    brute_force_triples,
    fibonacci,
    pell,
    random_unimodular,
    surd_identity_check,
)

from support import (
    apex_of_number,
    compare,
    interval_compare,
    limit_point,
    nn_inequality_holds,
    random_parts,
    random_quadratic,
    wedge_descends,
    window_pairs,
)


SPAN_1 = [33, 37, 42, 104, 112, 118, 120, 214, 227, 309, 353, 382, 400, 416, 450]
SPAN_2 = [369, 433]


def fraction_of(pair):  # a rational in the reports' {"num", "den"} form
    return Fraction(int(pair["num"]), int(pair["den"]))


class _Timer:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
            )
            print(f"[criterion {self.number:02d}] PASS {self.name} "
                  f"({elapsed:.2f}s < {self.limit}s)")
        else:
            print(f"[criterion {self.number:02d}] FAIL {self.name}")
        return False


def test_criterion_01_width_table(capsys, tmp_path):
    with _Timer(1, "width table reproduced exactly", 1.0):
        out = tmp_path / "widths.json"
        assert main(["widths", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        widths = [fraction_of(row["width"]) for row in payload["rows"]]
        assert widths == [
            Fraction(1, 2), Fraction(2, 5), Fraction(5, 13),
            Fraction(10, 29), Fraction(145, 433),
        ]


def test_criterion_02_lattice_width_equals_capacity():
    with _Timer(2, "lattice width equals bc/a with minimizer (0,1), max <= 1e4", 60.0):
        triples = enumerate_triples(10 ** 4)
        assert len(triples) >= 21  # the actual census at this bound
        for t in triples:
            polygon = vianna_triangle(t)
            assert lattice_width(polygon) == (width(t), (0, 1))


def test_criterion_03_irregularity_catalogue():
    with _Timer(3, "irregularity catalogue to n=450 recomputed", 120.0):
        rows = find_irregularities(450)
        assert [row["n"] for row in rows if row["span"] == 1] == SPAN_1
        assert [row["n"] for row in rows if row["span"] == 2] == SPAN_2
        rows = spectrum_rows(34)
        assert rows[32].m == 195025 and rows[33].m == 196418
        assert rows[32].b == 1136689 and rows[33].b == 514229


def test_criterion_04_regular_prefix():
    with _Timer(4, "juxtaposition inequality holds for all n <= 32", 30.0):
        numbers, _ = markov_prefix(48)
        for n, n_prime in window_pairs(numbers, 32):
            assert nn_inequality_holds(n, n_prime)


def test_criterion_05_alternating_descent():
    with _Timer(5, "alternating descent and chain inequalities, max <= 1e4", 60.0):
        for t in enumerate_triples(10 ** 4):
            # alternating_order raises on any descent violation
            widths = [Fraction(*w) for _, w in alternating_order(t, 8)]
            assert all(w > v for w, v in zip(widths, widths[1:]))
            if t[0] >= 5:
                assert min(descent_integers(t)) > 0  # b^2 - c^2 and c(3ac - 2b) too
            assert wedge_descends(t, 30)
        sequence = alternating_order((5, 2, 1), 3)
        assert [x for x, _ in sequence] == [
            (5, 2, 1), (13, 5, 1), (29, 5, 2), (194, 13, 5),
            (433, 29, 5), (2897, 194, 5), (6466, 433, 5),
        ]


def test_criterion_06_limit_points():
    with _Timer(6, "gaps decrease to the limit points; spectrum values match", 30.0):
        fib, pel, five = (apex_of_number(p) for p in (1, 2, 5))
        for apex in (fib, pel, five):
            # every node below the apex
            sequence = [(t, Fraction(*w)) for t, w in alternating_order(apex, 25)]
            assert len(sequence) == (26 if apex[0] < 5 else 51)
            assert all(compare(w, limit_point(apex[0])) > 0 for _, w in sequence)
            q, s, r = (Fraction(*part) for part in closed_forms(apex[0])[0])
            gaps = [QuadraticValue(w - q, -s, r) for _, w in sequence]  # width - limit
            assert all(compare(x, y) > 0 for x, y in zip(gaps, gaps[1:]))
        assert compare(lagrange_number(1), QuadraticValue(0, 1, 5)) == 0
        assert compare(lagrange_number(2), QuadraticValue(0, 1, 8)) == 0
        assert repr(lagrange_number(5)) == (
            "QuadraticValue(Fraction(0, 1), Fraction(1, 5), Fraction(221, 1))")


def test_criterion_07_completeness_threshold():
    with _Timer(7, "ordered prefix complete above 1/3 + 2e-44", 120.0):
        threshold = Fraction(1, 3) + Fraction(2, 10 ** 44)
        report = ordered_prefix_complete_above(threshold.as_integer_ratio(), 450)
        assert report["certified"] is True
        assert not report["failures"]
        assert all(check["ok"] for check in report["tail_exact"])
        assert all(check["ok"] for check in report["swap_checks"])


def test_criterion_08_surd_identity():
    with _Timer(8, "surd identity for every triple != (1,1,1), max <= 1e4", 10.0):
        for t in enumerate_triples(10 ** 4):
            expected = t != (1, 1, 1)
            assert surd_identity_check(t) == expected


def test_criterion_09_cross_checks():
    with _Timer(9, "sequence cross-checks and right-number identities", 10.0):
        markov_entries = load_bfile("markov")
        assert cross_check("markov", 500, markov_entries, "vendored") is None
        assert markov_numbers(500) == [markov_entries[i] for i in range(1, 501)]
        # identities against the ingested sequences, then the recurrences
        fib_entries = load_bfile("fibonacci")
        pell_entries = load_bfile("pell")
        rows = spectrum_rows(34)
        assert rows[32].m == pell_entries[15] == pell(15)
        assert rows[33].m == fib_entries[27] == fibonacci(27)
        assert rows[33].b == fib_entries[29] == fibonacci(29)
        assert rows[32].b == pell_entries[17] == pell(17)


def test_criterion_10_property_suites():
    with _Timer(10, "property suites (brute force, unimodular, order oracle)", 120.0):
        # tree enumeration vs quadratic-root scan
        assert list(enumerate_triples(2000)) == brute_force_triples(2000)
        # unimodular invariance, 100 random maps
        rng = random.Random(8191)
        polygon = vianna_triangle((29, 5, 2))
        base, _ = lattice_width(polygon)
        for _ in range(100):
            assert lattice_width(apply_unimodular(random_unimodular(rng), polygon))[0] == base
        # exact order vs 200-digit interval evaluation, 1000 samples
        rng = random.Random(65537)
        for _ in range(1000):
            (q, s, r), y = random_parts(rng), random_quadratic(rng)
            x = QuadraticValue(q, s, r)
            if rng.random() < 0.1:
                k = rng.randint(1, 4)
                y = QuadraticValue(q, s / k, r * k * k)
            oracle = interval_compare(x, y)
            if oracle is None:
                assert compare(x, y) == 0
            else:
                assert compare(x, y) == oracle
        # no two triples share a maximal entry up to 1e9: the walk raises
        # VerificationError on the first shared maximum it reaches
        assert markov_prefix(1, lambda m: m >= 10 ** 9)[0][-1] >= 10 ** 9
