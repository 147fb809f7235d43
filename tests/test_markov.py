import json
import math
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbl.markov
import mbl.suites
from mbl.cli import main
from mbl.errors import VerificationError
from mbl.markov import (
    MarkovWalk,
    _check,
    ancestors,
    enumerate_triples,
    is_markov_number,
    markov_numbers,
    markov_prefix,
    sorted_triple,
    triple_json,
    triple_text,
    wedge,
)
from mbl.suites import (
    MutationKind,
    brute_force_triples,
    fibonacci,
    mutate,
    pell,
)

from support import (
    apex_of_number,
    essential_subtree,
    vieta_levels,
    vieta_neighbours,
    vieta_prefix,
)


def triples_up_to(bound):
    return list(enumerate_triples(bound))


class TestIsMarkov:
    """Whether a triple is Markov, as `sorted_triple` decides it through `_check`."""

    def test_root(self):
        assert sorted_triple(1, 1, 1) == (1, 1, 1)

    def test_tree_member(self):
        assert sorted_triple(433, 29, 5) == (433, 29, 5)

    def test_non_solution(self):
        with pytest.raises(ValueError, match=re.escape("(3,1,1) does not solve")):
            sorted_triple(3, 1, 1)  # 9+1+1 = 11 != 9

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (-2, 1, 1)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="triple must be sorted and positive"):
            sorted_triple(*bad)

    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
    def test_matches_direct_equation(self, a, b, c):
        try:
            sorted_triple(a, b, c)
        except ValueError:
            built = False
        else:
            built = True
        assert built == (a * a + b * b + c * c == 3 * a * b * c)


class TestTriple:
    def test_requires_sorted(self):
        with pytest.raises(ValueError, match=re.escape("sorted and positive: (1,2,5)")):
            _check(1, 2, 5)

    def test_requires_solution(self):
        with pytest.raises(ValueError):
            _check(4, 2, 1)

    def test_from_values_sorts(self):
        t = sorted_triple(5, 1, 2)
        assert t == (5, 2, 1) and type(t) is tuple

    def test_json_roundtrip(self):
        assert triple_json((433, 29, 5)) == {"a": "433", "b": "29", "c": "5"}
        assert sorted_triple(*map(int, triple_json((433, 29, 5)).values())) == (433, 29, 5)

    def test_text(self):
        # the one writer of a triple: no spaces, unlike str() of a tuple
        assert triple_text((433, 29, 5)) == "(433,29,5)"
        assert triple_text(triple_json((433, 29, 5)).values()) == "(433,29,5)"

    def test_contains(self):
        assert 29 in sorted_triple(433, 29, 5)
        assert 7 not in sorted_triple(433, 29, 5)


class TestMutate:
    def test_root_eliminate_max(self):
        assert mutate((1, 1, 1), MutationKind.ELIMINATE_MAX) == (2, 1, 1)

    def test_eliminate_min(self):
        assert mutate((5, 2, 1), MutationKind.ELIMINATE_MIN) == (29, 5, 2)

    def test_eliminate_mid(self):
        assert mutate((5, 2, 1), MutationKind.ELIMINATE_MID) == (13, 5, 1)

    def test_closure_and_involution(self):
        # every mutation lands on a solution and can be undone in place
        for t in triples_up_to(10 ** 4):
            for kind in MutationKind:
                child = mutate(t, kind)  # which checks the equation
                assert any(mutate(child, back) == t for back in MutationKind)

    def test_monotonicity(self):
        degenerate = {(1, 1, 1), (2, 1, 1)}
        for t in triples_up_to(10 ** 4):
            assert mutate(t, MutationKind.ELIMINATE_MIN)[0] > t[0]
            assert mutate(t, MutationKind.ELIMINATE_MID)[0] > t[0]
            if t not in degenerate:
                assert mutate(t, MutationKind.ELIMINATE_MAX)[0] < t[0]

    @pytest.mark.parametrize("kind", list(MutationKind))
    def test_result_is_checked(self, kind):
        # each mutation of a non-solution leaves the solution set, and is refused
        with pytest.raises(ValueError, match="does not solve the Markov equation"):
            mutate((4, 2, 1), kind)


class TestEnumerate:
    def test_small_bound(self):
        assert triples_up_to(5) == [
            (1, 1, 1), (2, 1, 1), (5, 2, 1)]

    def test_eleven_triples_up_to_433(self):
        assert len(triples_up_to(433)) == 11

    def test_bound_zero_rejected(self, capsys):
        with pytest.raises(ValueError):
            enumerate_triples(0)
        assert main(["verify", "--suite", "markov", "--max-bound", "0"]) == 2
        assert capsys.readouterr().err == "mbl: --max-bound must be >= 1\n"

    def test_deterministic_order(self):
        keys = triples_up_to(3000)
        assert keys == sorted(keys)

    def test_matches_quadratic_scan(self):
        # oracle solves the equation pairwise, never applies a mutation
        for bound in (5, 50, 600):
            assert triples_up_to(bound) == brute_force_triples(bound)

    def test_pruned_scan_matches_full_pair_scan(self):
        # every pair c <= b <= 300, each solved for both roots a >= b: the
        # oracle's cut at bc <= bound must lose none of them at any bound
        full = set()
        for c in range(1, 301):
            for b in range(c, 301):
                disc = 9 * b * b * c * c - 4 * (b * b + c * c)
                root = math.isqrt(max(disc, 0))
                if root * root != disc:
                    continue
                for twice_a in (3 * b * c - root, 3 * b * c + root):
                    if twice_a % 2 == 0 and twice_a // 2 >= b:
                        full.add((twice_a // 2, b, c))
        for bound in range(1, 301):
            assert brute_force_triples(bound) == sorted(
                t for t in full if t[0] <= bound)

    def test_paths_replay(self, capsys):
        # oracle: breadth-first over the three Vieta jumps of tests/support,
        # so the depth of a triple is the length of its jump path from
        # (1,1,1); the climb back and the depth column of `triples` (each
        # row one below the row of its middle entry) must both read it
        bound = 10 ** 4
        depths = {(1, 1, 1): 0}
        queue = deque(depths)
        while queue:
            t = queue.popleft()
            for child in vieta_neighbours(*t):
                if child[0] <= bound and child not in depths:
                    depths[child] = depths[t] + 1
                    queue.append(child)
        assert {t: len(ancestors(t)) - 1 for t in enumerate_triples(bound)} == depths
        assert main(["triples", "--max-bound", str(bound), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {tuple(int(row["triple"][k]) for k in "abc"): row["depth"]
                for row in rows} == depths
        assert len(rows) == len(depths)

    def test_pairwise_coprime(self):
        for t in triples_up_to(2000):
            a, b, c = t
            assert math.gcd(a, b) == math.gcd(b, c) == math.gcd(a, c) == 1


class TestMarkovNumbers:
    def test_first_three(self):
        assert markov_numbers(3) == [1, 2, 5]

    def test_first_six(self):
        assert markov_numbers(6) == [1, 2, 5, 13, 29, 34]

    def test_entries_33_and_34(self):
        numbers = markov_numbers(34)
        assert numbers[32] == 195025
        assert numbers[33] == 196418

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            markov_numbers(0)

    def test_is_markov_number(self):
        assert is_markov_number(34)
        assert not is_markov_number(3)


class TestMarkovWalk:
    """The walk against the pairwise quadratic scan, which never mutates."""

    @pytest.fixture(scope="class")
    def brute_apexes(self):
        return {t[0]: t for t in brute_force_triples(2000)}

    def test_membership_matches_brute_force(self, brute_apexes):
        for p in range(-2, 2001):
            assert is_markov_number(p) == (p in brute_apexes)

    def test_apexes_match_brute_force(self, brute_apexes):
        for p in range(1, 2001):
            if p in brute_apexes:
                assert apex_of_number(p) == brute_apexes[p]
            else:
                with pytest.raises(ValueError):
                    apex_of_number(p)

    def test_prefix_matches_brute_force(self, brute_apexes):
        numbers, apexes = MarkovWalk().prefix(len(brute_apexes))
        assert numbers == tuple(sorted(brute_apexes))
        assert apexes == tuple(brute_apexes[m] for m in numbers)

    def test_prefix_matches_vieta_jumps(self):
        # past the span-3 record at 794, against the triples the oracle jumps to
        assert MarkovWalk().prefix(851) == vieta_prefix(851)

    def test_out_of_order_requests(self):
        walk = MarkovWalk()
        assert walk.prefix(1, lambda m: m >= 10 ** 12)[0][-1] != 10 ** 12  # no Markov number
        large = walk.prefix(300)
        small = walk.prefix(40)
        fresh = MarkovWalk().prefix(300)
        assert large == fresh
        assert small == (fresh[0][:40], fresh[1][:40])

    def test_stop_extends_to_first_match(self):
        walk = MarkovWalk()
        numbers, apexes = walk.prefix(5, lambda m: m >= 100)
        assert numbers == (1, 2, 5, 13, 29, 34, 89, 169)
        assert apexes[-1] == (169, 29, 2)
        walk.prefix(50)  # already extended past the match: same answer
        assert walk.prefix(5, lambda m: m >= 100)[0] == numbers
        assert walk.prefix(3, lambda m: True)[0] == (1, 2, 5)

    def test_returned_sequences_cannot_alter_later_results(self):
        numbers, apexes = markov_prefix(10)
        assert isinstance(numbers, tuple) and isinstance(apexes, tuple)
        values = markov_numbers(10)
        values[0] = 4
        values.append(7)
        assert markov_numbers(11) == list(markov_prefix(11)[0])
        assert markov_numbers(10)[0] == 1 and is_markov_number(7) is False

    def test_repeated_maximum_raises(self):
        walk = MarkovWalk()
        walk._heap.append((1, 1, 1))  # a second triple with maximum 1
        for _ in range(2):  # the failed step leaves the walk unchanged
            with pytest.raises(VerificationError,
                               match=re.escape("(1,1,1) and (1,1,1) share their maximum")):
                walk.prefix(1)

    def test_entry_off_the_equation_is_never_handed_out(self):
        walk = MarkovWalk()
        walk._heap.append((6, 2, 1))  # sorted, but 41 != 36
        assert walk.prefix(3)[0] == (1, 2, 5)
        for _ in range(2):  # the failed step leaves the walk unchanged
            with pytest.raises(ValueError, match="does not solve the Markov equation"):
                walk.prefix(1, lambda m: m >= 6)
        assert walk.prefix(3) == MarkovWalk().prefix(3)

    def test_unsorted_entry_is_never_handed_out(self):
        walk = MarkovWalk()
        walk.prefix(2)  # past (2,1,1), which would share the leading 2
        walk._heap.append((2, 5, 1))  # on the equation (30 = 30), but unsorted
        assert walk.prefix(3)[0] == (1, 2, 5)
        for _ in range(2):  # next to leave the heap: the failed step leaves the walk unchanged
            with pytest.raises(ValueError,
                               match=re.escape("triple must be sorted and positive: (2,5,1)")):
                walk.prefix(4)
        assert walk.prefix(3) == MarkovWalk().prefix(3)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            markov_prefix(0)

    def test_each_triple_handed_out_is_checked_once(self, monkeypatch):
        # the children a step queues are checked when they leave the heap
        calls = []
        check = mbl.markov._check
        monkeypatch.setattr(mbl.markov, "_check", lambda *t: calls.append(t) or check(*t))
        _, apexes = MarkovWalk().prefix(850)
        assert calls == list(apexes)


def apex_on_path(p, t):  # the first ancestor of t with maximum p, as `subtree` reads it
    return next(x for x in ancestors(t) if x[0] == p)


class TestAncestors:
    def test_root_levels(self):
        assert ancestors((1, 1, 1)) == [(1, 1, 1)]
        assert ancestors((2, 1, 1)) == [(2, 1, 1), (1, 1, 1)]

    def test_from_433(self):
        assert ancestors((433, 29, 5)) == [
            (433, 29, 5), (29, 5, 2), (5, 2, 1), (2, 1, 1), (1, 1, 1)]

    def test_each_step_is_a_jump_down_to_the_middle_entry(self):
        # every consecutive pair is one of the oracle's Vieta jumps, and the
        # parent's maximum is the child's middle entry
        for t in enumerate_triples(10 ** 4):
            path = ancestors(t)
            assert path[0] == t and path[-1] == (1, 1, 1)
            for child, parent in zip(path, path[1:]):
                assert parent in vieta_neighbours(*child)
                assert parent[0] == child[1] < child[0]


class TestApexFor:
    def test_one_step(self):
        assert apex_on_path(5, (29, 5, 2)) == (5, 2, 1)

    def test_from_194(self):
        assert apex_on_path(13, (194, 13, 5)) == (13, 5, 1)

    def test_already_apex(self):
        assert apex_on_path(5, (5, 2, 1)) == (5, 2, 1)

    def test_absent_entry(self, capsys):
        # 2 is the maximum of an ancestor of (13,5,1), but not one of its entries
        for triple, p in (("5,2,1", "7"), ("13,5,1", "2")):
            assert main(["subtree", "--triple", triple, "--preserve", p]) == 2
            assert capsys.readouterr().err == f"mbl: {p} does not appear in ({triple})\n"

    def test_idempotent_and_path_independent(self):
        # two steps: (433,29,5) -> (29,5,2) -> (5,2,1)
        assert apex_on_path(5, (433, 29, 5)) == (5, 2, 1)
        # same apex from every node of the preserving subtree
        for p in markov_numbers(12):
            apex = apex_of_number(p)
            for level in wedge(apex, 4):
                for t in level:
                    assert apex_on_path(p, t) == apex
            assert apex_on_path(p, apex) == apex


class TestWedge:
    def test_order5_nodes(self):
        assert wedge((5, 2, 1), 2) == [
            ((5, 2, 1),), ((13, 5, 1), (29, 5, 2)), ((194, 13, 5), (433, 29, 5))]

    def test_fibonacci_chain(self):
        assert wedge((1, 1, 1), 3) == [
            ((1, 1, 1),), ((2, 1, 1),), ((5, 2, 1),), ((13, 5, 1),)]

    def test_pell_chain(self):
        assert wedge((2, 1, 1), 2)[1:] == [((5, 2, 1),), ((29, 5, 2),)]

    def test_each_node_below_the_apex_is_checked(self, monkeypatch):
        calls = []
        check = mbl.markov._check
        monkeypatch.setattr(mbl.markov, "_check", lambda *t: calls.append(t) or check(*t))
        levels = wedge((5, 2, 1), 3)
        assert calls == [t for level in levels[1:] for t in level] and len(calls) == 6

    def test_nodes_are_preserving_mutations(self):
        # each node is a max-increasing mutation, keeping p, of the node above
        # it on its side; the levels are the oracle's own jumps
        for p in markov_numbers(40):
            apex = apex_of_number(p)
            levels, jumps = wedge(apex, 6), vieta_levels(apex)
            width = 1 if p in (1, 2) else 2
            assert levels[0] == (apex,) and len(levels) == 7
            assert all(len(level) == width for level in levels[1:])
            assert [[tuple(t) for t in level] for level in levels] == [
                next(jumps) for _ in range(7)]
            for side in range(width):
                chain = [apex] + [level[side] for level in levels[1:]]
                for above, node in zip(chain, chain[1:]):
                    assert p in node and node[0] > above[0]
                    assert ancestors(node)[1] == above
                    assert any(mutate(above, kind) == node
                               for kind in MutationKind)


class TestEssentialSubtree:
    def test_five(self):
        assert essential_subtree(5, 1) == [
            (194, 13, 5), (433, 29, 5)]

    def test_two_starts_at_29(self):
        assert essential_subtree(2, 1)[0] == (29, 5, 2)

    def test_one_starts_at_root(self):
        assert essential_subtree(1, 1)[0] == (1, 1, 1)

    def test_minimum_is_preserved_entry(self):
        for p in (5, 13, 29):
            for t in essential_subtree(p, 4):
                assert t[2] == p

    def test_non_markov_rejected(self):
        with pytest.raises(ValueError):
            essential_subtree(4, 1)


class TestRecurrences:
    @given(st.integers(0, 60))
    def test_recurrences(self, n):
        assert fibonacci(n + 2) == fibonacci(n + 1) + fibonacci(n)
        assert pell(n + 2) == 2 * pell(n + 1) + pell(n)


def _uniqueness(capsys, bound):
    # the uniqueness check of `verify --suite markov --max-bound bound`
    main(["verify", "--suite", "markov", "--max-bound", str(bound), "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["suites"]["markov"]["checks"]
    return next(check for check in checks if check["name"] == "uniqueness")


class TestUniqueness:
    def test_small(self, capsys):
        for bound in (1, 433):
            assert _uniqueness(capsys, bound) == {
                "name": "uniqueness", "passed": True, "witness": f"bound {bound}"}

    def test_medium(self, capsys):
        assert _uniqueness(capsys, 10 ** 6)["passed"] is True

    def test_shared_maximum_detected(self, capsys, monkeypatch):
        walk = MarkovWalk()
        walk._heap.append((5, 2, 1))  # a second triple with maximum 5
        monkeypatch.setattr(mbl.suites, "markov_prefix", walk.prefix)  # the walk it reads
        assert _uniqueness(capsys, 2)["passed"] is True
        assert _uniqueness(capsys, 5) == {
            "name": "uniqueness", "passed": False, "witness": "bound 5"}
        with pytest.raises(VerificationError,
                           match=re.escape("(5,2,1) and (5,2,1) share their maximum")):
            walk.prefix(3)

    def test_one_run_enumerates_once(self, capsys, monkeypatch):
        # the closure checks enumerate, the brute-force comparison filters
        # their triples, and the uniqueness check reads the walk itself
        calls = []
        monkeypatch.setattr(mbl.suites, "enumerate_triples",
                            lambda bound: calls.append(bound) or enumerate_triples(bound))
        assert main(["verify", "--suite", "markov"]) == 0
        assert "PASS  markov:uniqueness" in capsys.readouterr().out
        assert calls == [10_000]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 40), st.integers(1, 5))
def test_wedge_levels_counted_from_apex(depth_seed, p_index):
    p = markov_numbers(5)[p_index - 1]
    apex = apex_of_number(p)
    depth = depth_seed % 4
    levels = wedge(apex, depth)
    assert levels[0] == (apex,) and len(levels) == depth + 1
    assert [len(level) for level in levels[1:]] == [1 if p in (1, 2) else 2] * depth
    top = len(ancestors(apex))
    assert all(len(ancestors(t)) - top == i for i, level in enumerate(levels) for t in level)
