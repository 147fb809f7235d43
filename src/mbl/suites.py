"""The invariant suites that `mbl verify` runs.

Each suite takes the parsed `verify` arguments and yields one
(check name, passed, witness) per check; SUITES names them in run order.
Only `verify` reads this module, so the command line loads it on demand.
"""

from __future__ import annotations

import argparse
import math
import random
from fractions import Fraction

from . import oeis
from .capacity import (
    QuadraticValue,
    convergence_trace,
    lagrange_number,
    limit_point,
    surd_identity_check,
    width,
    width_as_surd,
)
from .errors import VerificationError
from .lattice import (
    central_point,
    check_alg_lemma,
    inscribed_right_triangle,
    lattice_width,
    random_unimodular,
    shear_normalize,
    vianna_triangle,
)
from .markov import (
    MarkovTriple,
    MutationKind,
    brute_force_triples,
    chains,
    enumerate_triples,
    fibonacci,
    mutate,
    pell,
    uniqueness_check,
)
from .ordering import (
    alternating_order,
    find_irregularities,
    spectrum_rows,
    verify_chain_inequalities,
    verify_swap_pattern,
)


def _failed(failures: dict[str, str], *names: str):
    """One check per name, failed with its witness if failures records one."""
    for name in names:
        yield name, name not in failures, failures.get(name, "")


def _suite_markov(config: argparse.Namespace):
    bound = min(config.max_bound, 10_000)
    failures: dict[str, str] = {}
    for t in enumerate_triples(bound):
        for kind in MutationKind:
            try:
                child = mutate(t, kind)  # construction re-checks the equation
            except ValueError:
                failures["mutation-closure"] = f"{t} {kind.name}"
                continue
            if not any(mutate(child, back) == t for back in MutationKind):
                failures["mutation-involution"] = f"{t} {kind.name}"
        if not (
            mutate(t, MutationKind.ELIMINATE_MIN).a > t.a
            and mutate(t, MutationKind.ELIMINATE_MID).a > t.a
        ):
            failures["mutation-monotonicity"] = str(t)
        degenerate = tuple(t) in ((1, 1, 1), (2, 1, 1))
        if not degenerate and not mutate(t, MutationKind.ELIMINATE_MAX).a < t.a:
            failures["mutation-monotonicity"] = str(t)
        if math.gcd(t.a, t.b) != 1 or math.gcd(t.b, t.c) != 1 or math.gcd(t.a, t.c) != 1:
            failures["pairwise-coprimality"] = str(t)
    yield from _failed(failures, "mutation-closure", "mutation-involution",
                       "mutation-monotonicity", "pairwise-coprimality")
    small = min(config.max_bound, 600)
    brute = brute_force_triples(small)
    walked = [tuple(t) for t in enumerate_triples(small)]
    yield "brute-force-equivalence", brute == walked, f"bound {small}"
    yield "uniqueness", uniqueness_check(config.max_bound), f"bound {config.max_bound}"


def _suite_capacity(config: argparse.Namespace):
    bound = min(config.max_bound, 10 ** 6)
    root = MarkovTriple(1, 1, 1)
    failures: dict[str, str] = {}
    for t in enumerate_triples(bound):
        w = width(t)
        if t == root:
            if w != 1 or surd_identity_check(t):
                failures["width-bounds"] = str(t)
            continue
        if not (Fraction(1, 3) < w <= Fraction(1, 2)):
            failures["width-bounds"] = str(t)
        if t.a <= 10_000 and not (
            surd_identity_check(t) and width_as_surd(t) == w
        ):
            failures["surd-identity"] = str(t)
    try:
        convergence_trace(root, 10)
        convergence_trace(MarkovTriple(2, 1, 1), 10)
        for side in ("left", "right", "alternating"):
            convergence_trace(MarkovTriple(5, 2, 1), 10, side)
    except VerificationError as exc:
        failures["limit-gaps"] = str(exc)
    yield from _failed(failures, "width-bounds", "surd-identity", "limit-gaps")
    sane = (
        lagrange_number(2).compare(QuadraticValue.sqrt(8)) == 0
        and limit_point(1).compare(QuadraticValue(Fraction(3, 2), Fraction(-1, 2), 5)) == 0
        and limit_point(1).compare(Fraction(1, 3)) > 0
    )
    yield "spectrum-values", sane, ""


def _suite_ordering(config: argparse.Namespace):
    apex_bound = min(config.max_bound, 10_000)
    failures: dict[str, str] = {}
    for t in enumerate_triples(apex_bound):
        if t.a >= 5:
            g, f = (xs[1:] for xs in chains(t, 10))
            merged = [x for pair in zip(g, f) for x in pair]
            if any(x >= y for x, y in zip(merged, merged[1:])):
                failures["chain-interleaving"] = str(t)
            if not verify_chain_inequalities(t.a, t.b, t.c, 8):
                failures["chain-inequalities"] = str(t)
        try:
            alternating_order(t, 8)
        except VerificationError as exc:
            failures["alternating-descent"] = str(exc)
    yield from _failed(failures, "chain-interleaving", "chain-inequalities",
                       "alternating-descent")
    if config.n_max >= 34:
        rows = spectrum_rows(34)
        anchors = (rows[32].m, rows[33].m, rows[32].b, rows[33].b)
        expected = (pell(15), fibonacci(27), pell(17), fibonacci(29))
        yield "row-anchors", anchors == expected, ""
    records = find_irregularities(config.n_max)
    # a record keeps the lowest n of its violated pairs, so the pairs with
    # n <= 32 all hold exactly when no record has n <= 32
    for rec in records:
        if rec.n <= 32:
            failures["regular-prefix"] = f"(n,n')=({rec.n},{rec.n_prime})"
    yield from _failed(failures, "regular-prefix")
    swaps_ok = all(verify_swap_pattern(rec) for rec in records)
    yield "swap-patterns", swaps_ok, f"{len(records)} records"


def _suite_lattice(config: argparse.Namespace):
    bound = min(config.max_bound, 10_000)
    root = MarkovTriple(1, 1, 1)
    failures: dict[str, str] = {}
    for t in enumerate_triples(bound):
        tri = vianna_triangle(t)  # construction re-checks the invariants
        value, xi = lattice_width(tri.polygon)
        # below the root the width also drops under the ambient width 1
        if (value, xi) != (width(t), (0, 1)) or (t != root and not value < 1):
            failures["lattice-width-equals-capacity"] = str(t)
        if tri.ell < 1:
            failures["triangle-invariants"] = str(t)
        central_point(tri)  # raises if the 1/3-point fails
        if t != root:
            normalized = shear_normalize(tri)
            after = value  # the shear moves only (2,1,1)'s triangle
            if normalized != tri:
                after, _ = lattice_width(normalized.polygon)
            if value != after or not inscribed_right_triangle(
                normalized, normalized.h / 8
            ):
                failures["shear-and-inscribed"] = str(t)
        if check_alg_lemma(t) == (t == root):
            failures["alg-lemma"] = str(t)
    rng = random.Random(20240813)
    for t in (MarkovTriple(5, 2, 1), MarkovTriple(29, 5, 2)):
        polygon = vianna_triangle(t).polygon
        base, _ = lattice_width(polygon)
        for _ in range(20):
            mapped = random_unimodular(rng).apply(polygon)
            got, _ = lattice_width(mapped)
            if got != base:
                failures["unimodular-invariance"] = str(t)
    yield from _failed(failures, "lattice-width-equals-capacity", "triangle-invariants",
                       "shear-and-inscribed", "alg-lemma", "unimodular-invariance")


def _suite_ingest(config: argparse.Namespace):
    sizes = {"markov": 500, "fibonacci": 1000, "pell": 1000}
    bfiles = {kind: oeis.load_bfile(kind, cache_dir=config.cache_dir) for kind in sizes}
    for kind, n in sizes.items():
        report = oeis.cross_check(kind, n, bfiles[kind])
        yield (f"cross-check-{kind}", report.ok,
               "" if report.ok else str(report.first_mismatch))
    entries = bfiles["markov"].entries
    yield "pinned-anchors", (entries[33], entries[34]) == (pell(15), fibonacci(27)), ""


SUITES = {
    "markov": _suite_markov,
    "capacity": _suite_capacity,
    "ordering": _suite_ordering,
    "lattice": _suite_lattice,
    "ingest": _suite_ingest,
}
