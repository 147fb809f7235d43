"""Global decreasing order of the capacities bc/a, and its irregularities.

Indexing triples by their maximal entry m_1 < m_2 < ... (uniqueness of the
maximal entry holds far beyond the range used here; the walk behind
`markov.markov_prefix` re-checks it for every number it reaches), the
capacities of each essential subtree form a strictly decreasing sequence
with irrational limit.  Juxtaposing those sequences in order of m_n gives
the global decreasing order, except where the juxtaposition inequality

    1/m_n^2 >= 1/m_{n'}^2 + 1/b_{n'}^2

fails; each failure forces the leading capacity of sequence n' to be swapped
in front of the sequences it overtakes.

Every decision is an exact comparison of deficits.  A capacity is
2/(3 + sqrt(9 - 4 delta)), which grows with delta, where

    delta = 1/b^2 + 1/c^2    for the capacity bc/a of a triple (a, b, c),
    delta = 1/m^2            for the limit of sequence m,
    delta = (3T - 1)/T^2     for a threshold 1/3 < T <= 2/3, peaking at 9/4,
    delta = 9/4              for T > 2/3: no capacity but the width 1 of
                             (1,1,1) reaches 2/3, as no deficit reaches 9/4.

Capacities and deficits are (num, den) integer pairs, `_deficit` builds the
deficits, and `_exceeds` decides every comparison between two of them, save
the scan's num/den > 1/m_n^2, which `find_irregularities` bisects as m_n^2 > den // num.
Descent within a sequence, at every depth, is decided by the four integers
of `descent_integers` for its apex.
"""

from __future__ import annotations

import bisect

from .capacity import _fraction, _sign, capacity_to_json, closed_forms, limit_decimal, width
from .errors import VerificationError, _Record
from .markov import MarkovTriple, chains, markov_prefix, wedge


class SpectrumRow(_Record):
    """Ordering data for one essential sequence: `ratios` holds the first
    capacities as (num, den) pairs; the limit and the Lagrange number are
    `closed_forms(m)`."""

    n: int
    m: int
    apex: tuple[int, int, int]
    b: int
    ratios: tuple[tuple[int, int], ...]

    @property
    def degenerate(self) -> bool:
        """Rows 1 and 2 take b from the second-smallest-member convention."""
        return self.m in (1, 2)

    def json_text(self, newline: str) -> str:
        """The bytes `report._json_text` writes for the row's JSON object at
        the indent `newline` opens, written from the row's integers.

        Each pair of `ratios` is in lowest terms, since the entries of a
        Markov triple are pairwise coprime; the limit, its preview and the
        Lagrange number come from `closed_forms(m)`.  Every string is an
        integer or a decimal preview, so none needs escaping.
        """
        i1 = newline + "  "
        i2, i3 = i1 + "  ", i1 + "    "
        pair = f'{{{i3}"den": "%d",{i3}"num": "%d"{i2}}}'  # {"num": ..., "den": ...}
        surd = f'{{{i2}"q": {pair},{i2}"r": {pair},{i2}"s": {pair}{i1}}}'
        limit, lagrange = closed_forms(self.m)
        (qn, qd), (sn, sd), (r, rd) = limit
        (lqn, lqd), (lsn, lsd), _ = lagrange  # r as in the limit
        a, b, c = self.apex
        caps = ("[" + i2 + ("," + i2).join([pair % (den, num) for num, den in self.ratios])
                + i1 + "]") if self.ratios else "[]"
        return (f'{{{i1}"apex": {{{i2}"a": "{a}",{i2}"b": "{b}",{i2}"c": "{c}"{i1}}},'
                f'{i1}"b": "{self.b}",'
                f'{i1}"degenerate_b": {"true" if self.degenerate else "false"},'
                f'{i1}"first_capacities": {caps},'
                f'{i1}"lagrange": {surd % (lqd, lqn, rd, r, lsd, lsn)},'
                f'{i1}"limit": {surd % (qd, qn, rd, r, sd, sn)},'
                f'{i1}"m": "{self.m}",{i1}"n": {self.n},'
                f'{i1}"preview": "{limit_decimal(self.m)}"{newline}}}')


#: The catalogued swap patterns: each span n' - n with the sentence naming it.
SWAP_PATTERNS = {
    1: "first capacity of sequence n+1 moves ahead of sequence n",
    2: "first capacity of sequence n+2 moves ahead of sequences n and n+1",
}


class IrregularityRecord(_Record):
    """A failure of the juxtaposition inequality, keyed by its lowest index.

    A span outside SWAP_PATTERNS would be a new kind of irregularity and
    raises VerificationError; an index n below 1 raises ValueError."""

    n: int
    span: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"irregularity index n must be >= 1, got {self.n}")
        if self.span not in SWAP_PATTERNS:
            raise VerificationError(
                f"irregularity at (n={self.n}, n'={self.n_prime}) spans {self.span}"
                " sequences; outside the catalogued patterns"
            )

    @property
    def n_prime(self) -> int:
        return self.n + self.span

    @property
    def kind(self) -> str:
        return SWAP_PATTERNS[self.span]

    def to_json(self) -> dict:
        return {"n": self.n, "span": self.span, "n_prime": self.n_prime,
                "kind": self.kind}


def _b_value(apex) -> int:
    # 3ac - b: the smallest middle entry below the apex; for the degenerate
    # rows 1 and 2 it coincides with the second-smallest member convention
    a, b, c = apex
    return 3 * a * c - b


def _exceeds(p: tuple[int, int], q: tuple[int, int]) -> bool:
    # p > q for (num, den) pairs with den > 0
    return p[0] * q[1] > q[0] * p[1]


def _deficit(x: int, y: int | None = None) -> tuple[int, int]:
    # 1/x^2, or 1/x^2 + 1/y^2
    if y is None:
        return 1, x * x
    xx, yy = x * x, y * y
    return xx + yy, xx * yy


def descent_integers(apex) -> tuple[int, int, int, int]:
    """(a^2, b^2 - c^2, c(3ac - 2b), c^2): the constants that decide the
    descent of the wedge widths bc/a, a x_{i-1}/x_i at every depth.

    With L and R the chains of `chains` from (c, 3ac - b) and (b, 3ab - c),
    at every level i: x_{i-1} x_{i+1} - x_i^2 = a^2 on each chain,
    L_{i-1} R_i - R_{i-1} L_i = b^2 - c^2, R_{i-1} L_{i+1} - R_i L_i =
    c(3ac - 2b), and b L_1 - a^2 = c^2 (constant Casoratians of the chain
    recurrence).  So the widths strictly decrease, and L_i < R_i < L_{i+1},
    exactly when b > c and 3ac > 2b; decreasing to the limit, they stay
    above it.  Raises VerificationError naming the apex otherwise; the
    one-chain apexes (1,1,1) and (2,1,1) need only a^2 and c^2.
    """
    a, b, c = apex
    if not (b > c or a < 5) or 3 * a * c <= 2 * b:
        raise VerificationError(
            f"capacity descent fails below ({a},{b},{c}): needs b > c and 3ac > 2b")
    return a * a, b * b - c * c, c * (3 * a * c - 2 * b), c * c


def alternating_order(
    apex: MarkovTriple, depth: int
) -> list[tuple[MarkovTriple, Fraction]]:
    """The levels of `wedge`, flattened: the apex, then the left/right
    children by level, with capacities verified strictly decreasing.

    This is the order of strictly decreasing capacities on the subtree
    preserving the apex maximum: go down left, right, down left, right, ...
    along increasing maximal entries.  `descent_integers` decides the
    descent at every depth; the widths are only what the caller gets back.
    """
    descent_integers(apex)
    return [(t, width(t)) for level in wedge(apex, depth) for t in level]


def _essential_capacities(apex, k: int) -> tuple[tuple[int, int], ...]:
    # the first k widths of the essential subtree of the apex maximum a: the
    # wedge nodes whose minimal entry is a, which are those whose width has
    # numerator >= a^2 (bc only at (1,1,1), a x_{i-1} iff x_{i-1} >= a; each
    # width is in lowest terms, the entries being pairwise coprime); one chain
    # gives at most one per level, two none at level 1 and two per level below
    a, b, c = apex
    columns = chains(apex, k + 1 if b == c else (k + 1) // 2 + 1)
    widths = [(b * c, a)] + [(a * xs[i - 1], xs[i]) for i in range(1, len(columns[0]))
                             for xs in columns]
    return tuple([w for w in widths if w[0] >= a * a][:k])


def spectrum_rows(n_max: int, k: int = 4) -> list[SpectrumRow]:
    """Rows n = 1..n_max: apex, b_n, the first k capacities, and the limit.

    Construction re-checks on integers that the limit exceeds 1/3, and
    through `descent_integers` that the capacities of each sequence strictly
    decrease at every depth, so every one stays above the limit.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    numbers, apexes = markov_prefix(n_max)
    rows = []
    for n in range(1, n_max + 1):
        m, apex = numbers[n - 1], apexes[n - 1]
        descent_integers(apex)
        mm = m * m
        if _sign(9 * mm - 2, -3 * m, 9 * mm - 4) <= 0:  # limit > 1/3 <=> 9m^2 - 2 > 3m sqrt(r)
            raise VerificationError(f"row {n}: limit not above 1/3")
        rows.append(SpectrumRow(n, m, apex, _b_value(apex), _essential_capacities(apex, k)))
    return rows


def find_irregularities(n_max: int) -> list[IrregularityRecord]:
    """All juxtaposition failures with lowest index <= n_max.

    Each offending sequence n' is recorded once, against the smallest n whose
    sequence it overtakes; a span n' - n outside the catalogued patterns
    raises VerificationError as its record is built.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    last = _deficit(markov_prefix(n_max)[0][-1])
    # n' overtakes no n <= n_max past the first m_{n'}^2 >= 2 m_{n_max}^2, since b > m
    numbers, apexes = markov_prefix(n_max + 1, lambda m: not _exceeds(_deficit(m, m), last))
    squares = [m * m for m in numbers]
    records = []  # by increasing n', so an uncatalogued span fails at its first record
    for n_prime, (m, apex) in enumerate(zip(numbers, apexes), start=1):
        num, den = _deficit(m, _b_value(apex))
        # the lowest n with num/den > 1/m_n^2, that is m_n^2 > den // num
        n = bisect.bisect_right(squares, den // num, 0, n_prime - 1) + 1
        if n <= min(n_prime - 1, n_max):
            records.append(IrregularityRecord(n, n_prime - n))
    records.sort(key=lambda rec: rec.n)
    return records


def verify_swap_pattern(rec: IrregularityRecord) -> bool:
    """Check that only the leading capacity of the higher sequence swaps.

    For the record's pair (n, n') this means: the leading capacity of
    sequence n' exceeds every capacity of each spanned sequence, the second
    capacity of sequence n' stays below each spanned sequence's infimum, and
    the swap reaches no further than n.  Vacuously true if the pair is not
    violated at all.
    """
    n, n_prime = rec.n, rec.n_prime
    numbers, apexes = markov_prefix(n_prime)
    a, b, c = apexes[n_prime - 1]  # a = m_n'; the deficits of w_1(n') and w_2(n'):
    lead, second = _deficit(a, 3 * a * c - b), _deficit(a, 3 * a * b - c)
    if not _exceeds(lead, _deficit(numbers[n - 1])):  # the pair holds: nothing swaps
        return True
    # each spanned (k, n') is violated too: 1/m_k^2 <= 1/m_n^2 < 1/m_n'^2 + 1/b_n'^2
    for k in range(n, n_prime):
        m_k = numbers[k - 1]
        if not _exceeds(lead, _deficit(m_k, _b_value(apexes[k - 1]))):
            return False
        if _exceeds(second, _deficit(m_k)):  # w_2(n') below the infimum of k
            return False
    # the swap stops at n: w_1(n') stays behind the limit of n - 1
    return n <= 1 or not _exceeds(lead, _deficit(numbers[n - 2]))


def ordered_prefix_complete_above(threshold: Fraction, n_max: int) -> dict:
    """Certify that the juxtaposed-with-swaps order accounts for every
    capacity >= threshold; return the certificate `complete --format json`
    writes.

    Exact sufficient conditions, all re-checked here:

    1. every pair (n, n') with n <= n_max inside the finite scan window
       either satisfies the juxtaposition inequality or belongs to a
       catalogued record whose swap pattern verifies;
    2. within each sequence n <= n_max the capacities strictly decrease at
       every depth, so stay above the sequence limit: `descent_integers`
       checks the four chain constants of each apex;
    3. sequences beyond n_max contribute nothing: their leading capacity is
       checked exactly to stay below the threshold until the index where
       m_n^2 >= 2 T^2/(3T - 1), beyond which even b = m cannot lift the
       leading capacity to T (and m_n is increasing).  Above T = 2/3 that
       index is n_max + 1: no capacity beyond n_max exceeds 1/2.
    """
    threshold = _fraction(threshold)
    num, den = threshold.numerator, threshold.denominator
    if 3 * num <= den:
        raise ValueError(
            "threshold must exceed 1/3: it is an accumulation point of the "
            "capacities, so no finite description exists at or below it"
        )
    failures: list[str] = []
    above = 3 * num > 2 * den  # T > 2/3
    bar = (9, 4) if above else ((3 * num - den) * den, num * num)  # (3T - 1)/T^2, T = N/D

    try:
        records = find_irregularities(n_max)
    except VerificationError as exc:
        records = []
        failures.append(str(exc))
    swap_checks = []
    for rec in records:
        ok = verify_swap_pattern(rec)
        swap_checks.append({"n": rec.n, "ok": ok})
        if not ok:
            failures.append(f"swap pattern at n={rec.n} (span {rec.span}) fails")

    # sequences 1..n_max, then the tail to the first index past it with m_n^2 >= 2T^2/(3T-1)
    numbers, apexes = markov_prefix(n_max + 1, lambda m: not _exceeds(_deficit(m, m), bar))
    try:
        for apex in apexes[:n_max]:
            descent_integers(apex)
    except VerificationError as exc:
        failures.append(str(exc))
    active = sum(1 for m in numbers[:n_max] if not _exceeds(bar, _deficit(m)))

    tail_exact = []
    for n in range(n_max + 1, len(numbers)):
        ok = _exceeds(bar, _deficit(numbers[n - 1], _b_value(apexes[n - 1])))
        tail_exact.append({"n": n, "ok": ok})
        if not ok:
            failures.append(f"sequence {n} beyond n_max still reaches the threshold")
    end = len(numbers)

    return {
        "threshold": capacity_to_json(threshold),
        "n_max": n_max,
        "certified": not failures,
        "records": [rec.to_json() for rec in records],
        "swap_checks": swap_checks,
        "active_sequences": active,
        "tail_exact": tail_exact,
        "tail_bound_index": end,
        "tail_bound_m": str(numbers[-1]),
        "failures": failures,
        "conditions": [
            "pairwise juxtaposition checked for every n <= n_max over the full "
            "finite scan window m_{n'}^2 < 2 m_n^2 (sufficient since b > m)",
            "each violation is a catalogued record whose swap pattern verified: "
            "only the leading capacity of the higher sequence moves, directly in "
            "front of the lowest spanned sequence",
            "within-sequence strict descent above the limit verified exactly at "
            "every depth of every sequence, from the four descent integers of its apex",
            f"tail exclusion: T > 2/3, and every capacity but the width 1 of (1,1,1) "
            f"(sequence 1) is at most 1/2: no sequence from index {end} on reaches T" if above else
            f"tail exclusion: leading capacities checked exactly for "
            f"n_max < n < {end}; from index {end} on, "
            f"m_n^2 >= 2T^2/(3T-1) makes every capacity fall below the threshold",
        ],
    }
