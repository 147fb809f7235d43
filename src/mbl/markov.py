"""Markov triples: the equation a^2 + b^2 + c^2 = 3abc and its tree.

A triple is a sorted int tuple (a, b, c), a >= b >= c >= 1, throughout the
package.  Fixing two entries turns the equation into a quadratic in the
third, so each triple has three neighbours ("mutations"); all solutions form
a trivalent tree rooted at (1,1,1), which is degenerate at its first two
levels (where a triple repeats, it is kept once).  `ancestors` goes back to
the root along the mutation lowering the maximum; the `verify` markov suite
(`mbl.suites`) holds all three and checks them.  `_check` is the one test of
a triple: the walk runs it on each apex it hands out, and `sorted_triple` on
each triple made from other values (a `--triple` read, a mutation, a wedge
node).  `triple_text` and `triple_json` write one.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from .errors import VerificationError


def _check(a: int, b: int, c: int) -> None:
    """Raise ValueError unless a >= b >= c >= 1 and a^2 + b^2 + c^2 = 3abc."""
    if not a >= b >= c >= 1:
        raise ValueError(f"triple must be sorted and positive: ({a},{b},{c})")
    if a * a + b * b + c * c != 3 * a * b * c:
        raise ValueError(f"({a},{b},{c}) does not solve the Markov equation")


def sorted_triple(x: int, y: int, z: int) -> tuple[int, int, int]:
    """The checked triple (a, b, c) of the three values, sorted a >= b >= c."""
    t = tuple(sorted((x, y, z), reverse=True))
    _check(*t)
    return t


def triple_text(t) -> str:
    """The triple as every cell, witness and message writes it: (a,b,c)."""
    return "({},{},{})".format(*t)


def triple_json(t) -> dict:
    """The triple's JSON object, its entries as decimal strings: they outgrow doubles."""
    return dict(zip("abc", map(str, t)))


def ancestors(t) -> list[tuple[int, int, int]]:
    """The sorted int triples from the Markov triple t up to (1,1,1), t first.

    Each step replaces the maximum a by the other root 3bc - a = (b^2 + c^2)/a
    <= b of its quadratic: the parent's maximum is b, so the maxima strictly
    decrease and t's depth in the tree is the length less one.
    """
    a, b, c = t
    path = [(a, b, c)]
    while a != 1:
        x = 3 * b * c - a
        a, b, c = (b, c, x) if x <= c else (b, x, c)
        path.append((a, b, c))
    return path


class MarkovWalk:
    """The Markov numbers m_1 < m_2 < ... with their apex triples, on demand.

    A heap-ordered walk of the tree from (1,1,1) along the two
    max-increasing mutations.  Every non-root triple has one parent, with a
    smaller maximum, so triples leave the heap by increasing maximal entry
    and each Markov number is reached once, as the maximum of its apex.  The
    walk only appends, so what it returns depends only on how far it has
    been extended; it returns tuples, never its own lists.  A maximal entry
    shared by two triples raises VerificationError once it is reached.
    Apexes are sorted int triples (a, b, c), each passing `_check` as it
    leaves the heap, and are handed out as they are.
    """

    def __init__(self):
        # sorted int triples, the heap ordering them by their maximum first
        self._heap = [(1, 1, 1)]
        self._numbers: list[int] = []
        self._apexes: list[tuple[int, int, int]] = []

    def _step(self) -> None:
        heap = self._heap
        top = heap[0]
        a, b, c = top
        # every triple with the top's maximum is queued by now (their
        # parents' maxima are smaller), so a shared maximum shows in the next
        # smallest entry
        if len(heap) > 1 and min(heap[1:3])[0] == a:
            raise VerificationError("({},{},{}) and ({},{},{}) share their maximum"
                                    .format(*top, *min(heap[1:3])))
        # the triple handed out is checked; each child it queues is checked
        # in turn when it leaves the heap
        _check(a, b, c)
        # the children (a, 3ac - b, c) and (a, b, 3ab - c), sorted; they
        # coincide exactly when b == c, at (1,1,1) and (2,1,1)
        left, right = (3 * a * c - b, a, c), (3 * a * b - c, a, b)
        self._numbers.append(a)
        self._apexes.append(top)
        heapq.heapreplace(heap, left)  # pops the top
        if b != c:
            heapq.heappush(heap, right)

    def prefix(
        self, count: int, stop: Callable[[int], bool] | None = None
    ) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        """The first `count` Markov numbers and the apex triple of each.

        With `stop`, the prefix runs on to the first number m at or past
        position `count` with stop(m) true.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        while True:
            while len(self._numbers) < count:
                self._step()
            if stop is None or stop(self._numbers[count - 1]):
                return tuple(self._numbers[:count]), tuple(self._apexes[:count])
            count += 1


_WALK = MarkovWalk()  # shared by every Markov-number path of the package
markov_prefix = _WALK.prefix


def enumerate_triples(max_bound: int) -> tuple[tuple[int, int, int], ...]:
    """All triples with maximal entry <= max_bound, sorted.

    These are the shared walk's apexes up to the bound: no two triples share
    a maximal entry (the walk raises if they do), so ordering by the maximum
    is ordering by (max, mid, min).  The walk stops at the first number at
    or past the bound, so a shared maximum above it is never reached.
    """
    if max_bound < 1:
        raise ValueError("max_bound must be >= 1")
    numbers, apexes = markov_prefix(1, lambda m: m >= max_bound)
    return apexes[:-1] if numbers[-1] > max_bound else apexes


def markov_numbers(n: int) -> list[int]:
    """The first n Markov numbers in increasing order, from the shared walk."""
    return list(markov_prefix(n)[0])


def is_markov_number(p: int) -> bool:
    return p >= 1 and markov_prefix(1, lambda m: m >= p)[0][-1] == p


def chains(apex: tuple[int, int, int], depth: int) -> list[list[int]]:
    """x_0..x_depth of each branch of the subtree preserving the apex maximum.

    Each branch below the apex (a, b, c) is the chain
    x_{i+1} = 3a x_i - x_{i-1}, whose level-i node is (x_i, x_{i-1}, a).  The
    left branch starts from (x_0, x_1) = (c, 3ac - b), eliminating the middle
    entry of the apex, and the right branch from (b, 3ab - c), eliminating
    the minimal one.  For a > b > c the two chains interleave (left x_i <
    right x_i < left x_{i+1}); for the degenerate apexes (1,1,1) and (2,1,1)
    they coincide and a single chain is returned.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    a, b, c = apex
    columns = [[c, 3 * a * c - b], [b, 3 * a * b - c]]
    if columns[0] == columns[1]:
        del columns[1]
    for xs in columns:
        while len(xs) <= depth:
            xs.append(3 * a * xs[-1] - xs[-2])
        del xs[depth + 1:]
    return columns


def wedge(apex: tuple[int, int, int], depth: int) -> list[tuple[tuple[int, int, int], ...]]:
    """The levels of the bivalent subtree preserving the apex maximum, to the
    given depth.

    Level 0 is (apex,); level i holds (x_i, x_{i-1}, a), sorted and checked,
    for each branch of `chains`, left before right: one triple below the
    degenerate apexes and a (left, right) pair below every other.  A level-i
    triple lies i levels below the apex in the tree.
    """
    columns = chains(apex, depth)
    return [(apex,)] + [tuple(sorted_triple(xs[i], xs[i - 1], apex[0]) for xs in columns)
                        for i in range(1, depth + 1)]


def recurrence_prefix(k: int, n: int) -> list[int]:
    """x_0..x_n with x_0 = 0, x_1 = 1, x_{i+1} = k x_i + x_{i-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    values = [0, 1]
    for _ in range(n - 1):
        values.append(k * values[-1] + values[-2])
    return values[: n + 1]
