#!/usr/bin/env python3
"""Regenerate the vendored b-file prefixes under src/mbl/data.

Standalone on purpose: nothing here imports the mbl package, so the shipped
files act as an independent artifact for the library's cross-checks.  The
Markov prefix is produced by a priority-queue walk of the solution tree and
re-verified two ways before anything is written:

  * a quadratic-root scan over all pairs (b, c) recovers every Markov number
    up to 10^6 without using mutations at all, and must agree with the walk;
  * pinned anchor values (entries 33/34 of the Markov sequence and the
    Fibonacci/Pell entries they coincide with) must match exactly.

Fibonacci and Pell come from their two-term recurrences.  The BLAKE2b-256
digest of each file goes to B2SUMS in the format of `b2sum -l 256`, so

    cd src/mbl/data && b2sum -c B2SUMS

re-checks them; `mbl` checks a vendored file against it before parsing it.
"""

import hashlib
import heapq
import math
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "mbl" / "data"

ANCHORS = {
    ("markov", 33): 195025,
    ("markov", 34): 196418,
    ("fibonacci", 27): 196418,
    ("fibonacci", 29): 514229,
    ("pell", 15): 195025,
    ("pell", 17): 1136689,
}


def markov_numbers_tree(count):
    """Maxima of the first `count` solution triples, by increasing maximum."""
    heap = [(1, 1, 1)]
    seen = {(1, 1, 1)}
    out = []
    while heap and len(out) < count:
        a, b, c = heapq.heappop(heap)
        out.append(a)
        for child in ((3 * a * b - c, a, b), (3 * a * c - b, a, c)):
            s = tuple(sorted(child, reverse=True))
            if s[0] > a and s not in seen:
                seen.add(s)
                heapq.heappush(heap, s)
    if len(set(out)) != len(out):
        raise AssertionError("duplicate maximal entries in range")
    return out


def markov_numbers_scan(bound):
    """Quadratic-root scan: every Markov number <= bound, mutation-free.

    In a sorted solution (a, b, c) the equation forces bc <= a and
    c <= sqrt(a), so scanning pairs with b*c <= bound reaches the defining
    triple of every solution entry up to the bound.
    """
    found = set()
    c = 1
    while c * c <= bound:
        b = c
        while b * c <= bound:
            disc = 9 * b * b * c * c - 4 * (b * b + c * c)
            if disc >= 0:
                s = math.isqrt(disc)
                if s * s == disc:
                    for twice in (3 * b * c - s, 3 * b * c + s):
                        if twice % 2 == 0 and b <= twice // 2 <= bound:
                            found.update((twice // 2, b, c))
            b += 1
        c += 1
    return sorted(x for x in found if x <= bound)


def fibonacci_sequence(count):
    values = [0, 1]
    while len(values) <= count:
        values.append(values[-1] + values[-2])
    return values[: count + 1]


def pell_sequence(count):
    values = [0, 1]
    while len(values) <= count:
        values.append(2 * values[-1] + values[-2])
    return values[: count + 1]


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    markov = markov_numbers_tree(1000)
    scan = markov_numbers_scan(10 ** 6)
    prefix = [m for m in markov if m <= 10 ** 6]
    if prefix != scan:
        raise AssertionError("tree walk and quadratic scan disagree")

    sequences = {
        "markov": {i + 1: m for i, m in enumerate(markov)},
        "fibonacci": dict(enumerate(fibonacci_sequence(1000))),
        "pell": dict(enumerate(pell_sequence(1000))),
    }
    for (kind, index), expected in ANCHORS.items():
        actual = sequences[kind][index]
        if actual != expected:
            raise AssertionError(f"{kind}[{index}] = {actual}, expected {expected}")

    names = {
        "markov": "b002559.txt",
        "fibonacci": "b000045.txt",
        "pell": "b000129.txt",
    }
    sums = []
    for kind, name in sorted(names.items(), key=lambda item: item[1]):
        path = DATA_DIR / name
        text = "".join(f"{i} {v}\n" for i, v in sequences[kind].items())
        path.write_text(text, encoding="ascii")
        digest = hashlib.blake2b(path.read_bytes(), digest_size=32).hexdigest()
        sums.append(f"{digest}  {name}\n")
        print(f"wrote {name} ({len(sequences[kind])} entries) blake2b-256={digest[:16]}...")
    (DATA_DIR / "B2SUMS").write_text("".join(sums), encoding="ascii")
    print("wrote B2SUMS")


if __name__ == "__main__":
    main()
