from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from unimap.errors import ParameterError
from unimap.maps import genus
from unimap.trees import (
    DoublyRootedTree,
    children_to_map,
    doubly_rooted_count,
    dyck_address,
    dyck_partners,
    dyck_to_children,
    entry_dart,
    enumerate_plane_trees,
    sample_doubly_rooted_tree,
    sample_dyck_word,
)

from .oracles import (
    brute_doubly_rooted_count,
    call_with_recursion_bound,
    catalan,
    doubly_rooted_check_by_partners,
    enumerate_doubly_rooted_trees,
)


@pytest.mark.parametrize("k", range(1, 8))
def test_plane_tree_count_is_catalan(k):
    trees = enumerate_plane_trees(k)
    assert len(trees) == catalan(k)
    assert len(set(trees)) == len(trees)


def test_dyck_words_balanced():
    rng = random.Random(4)
    for _ in range(200):
        k = rng.randint(1, 30)
        word = sample_dyck_word(k, rng)
        assert len(word) == 2 * k
        height = 0
        for step in word:
            assert step in (1, -1)
            height += step
            assert height >= 0
        assert height == 0


def test_dyck_sampler_uniform_on_small_support():
    # k = 3 has 5 trees; chi-square style tolerance on 5000 draws
    rng = random.Random(8)
    counts = Counter(tuple(sample_dyck_word(3, rng)) for _ in range(5000))
    assert set(counts) == set(enumerate_plane_trees(3))
    for c in counts.values():
        assert 830 <= c <= 1170


@pytest.mark.parametrize("k", range(1, 7))
def test_children_to_map_is_a_plane_tree(k):
    for word in enumerate_plane_trees(k):
        m = children_to_map(word)
        assert m.n_edges == k
        assert genus(m) == 0
        assert m.n_faces() == 1
        # the contour's up/down steps are the tree's Dyck word, and the
        # word's matched steps are the contour's edges
        assert tuple(1 if d < a else -1 for d, a in enumerate(m.alpha)) == word
        assert dyck_partners(word) == list(m.alpha)
        # the nested view has one tuple per node
        stack, nodes = [dyck_to_children(word)], 0
        while stack:
            nodes += 1
            stack.extend(stack.pop())
        assert nodes == k + 1


@pytest.mark.parametrize("word", [[-1, 1], [1], [1, -1, -1], [1, 0], [1, 7]])
def test_dyck_to_children_rejects_non_dyck_words(word):
    with pytest.raises(ParameterError):
        dyck_to_children(word)
    with pytest.raises(ParameterError):
        dyck_partners(word)


def test_sample_plane_tree_large_without_recursion():
    # a uniform 20,000-edge tree is hundreds of levels deep: parsing its
    # Dyck word and laying out its contour must both be loops
    m = call_with_recursion_bound(
        lambda: children_to_map(sample_dyck_word(20_000, random.Random(3)))
    )
    assert (m.n_edges, m.n_faces(), genus(m)) == (20_000, 1, 0)


def test_entry_dart_is_parent_side():
    word = (1, 1, -1, -1, 1, -1)  # root with two children, first has one child
    m = children_to_map(word)
    d0 = entry_dart(word, (0,))
    # the parent-side dart of the first root edge is the root dart itself
    assert d0 == m.root
    assert entry_dart(word, (0, 0)) == 1
    assert entry_dart(word, (1,)) == 4
    for address in [(2,), (0, 1), (1, 0), (-1,), ()]:
        with pytest.raises(ParameterError):
            entry_dart(word, address)


@pytest.mark.parametrize("k", range(1, 7))
def test_entry_dart_inverts_dyck_address(k):
    for word in enumerate_plane_trees(k):
        for t, s in enumerate(word):
            if s == 1:
                assert entry_dart(word, dyck_address(word, t + 1)) == t
    for drt in enumerate_doubly_rooted_trees(k):
        assert entry_dart(drt.word, drt.path) == dyck_partners(drt.word)[drt.exit]


@pytest.mark.parametrize("k", range(1, 7))
def test_doubly_rooted_enumeration_matches_brute_force(k):
    enumerated = enumerate_doubly_rooted_trees(k)
    assert len(enumerated) == doubly_rooted_count(k) == math.comb(2 * k - 1, k - 1)
    assert len(set(enumerated)) == len(enumerated)
    trees = [dyck_to_children(w) for w in enumerate_plane_trees(k)]
    assert brute_doubly_rooted_count(k, trees) == len(enumerated)


def test_tree_enumerators_reject_out_of_range_sizes():
    with pytest.raises(ParameterError):
        enumerate_plane_trees(-1)
    assert enumerate_plane_trees(0) == [()]


def test_doubly_rooted_validation():
    drt = DoublyRootedTree([1, 1, -1, -1, 1, -1], 2)
    assert drt.word == (1, 1, -1, -1, 1, -1)
    assert (drt.tree, drt.path, drt.n_edges) == ((((),), ()), (0, 0), 3)
    for word, exit in [
        ((1, -1, -1), 1),  # not a Dyck word
        ((1, 0), 1),  # a step outside {1, -1}
        ((), 0),  # no edge
        ((1, -1), 0),  # exit 0
        ((1, 1, -1, -1), 1),  # exit on a +1 step
        ((1, -1, 1, -1), 3),  # v2 must sit under child 0
        ((1, -1), True),  # a bool, which would pass for step 1
        ((1, -1), 1.0),  # a float, which fails as an index into the word
    ]:
        with pytest.raises(ParameterError):
            DoublyRootedTree(word, exit)


def test_doubly_rooted_validation_matches_the_partner_table():
    # every +-1 word up to length 10 with every exit, out-of-range ones too:
    # the height scan accepts what the partner table accepted, and refuses
    # the rest with the same message
    for length in range(11):
        for word in product((1, -1), repeat=length):
            for exit in range(-1, length + 1):
                try:
                    doubly_rooted_check_by_partners(word, exit)
                    expected = None
                except ParameterError as exc:
                    expected = str(exc)
                try:
                    DoublyRootedTree(word, exit)
                    got = None
                except ParameterError as exc:
                    got = str(exc)
                assert got == expected, (word, exit)


def test_deep_doubly_rooted_trees_compare_without_recursion():
    # 1501 levels deep: equality and hashing must not walk nested tuples
    word = [1] * 1501 + [-1] * 1501
    a = DoublyRootedTree(word, 1501)  # v2 is the deepest node
    b = DoublyRootedTree(list(word), 1501)
    c = DoublyRootedTree(word, 3001)  # v2 is the first child
    checks = call_with_recursion_bound(lambda: (a == b, hash(a) == hash(b), a != c))
    assert checks == (True, True, True)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_doubly_rooted_sampler_uniform(k):
    rng = random.Random(k)
    support = enumerate_doubly_rooted_trees(k)
    draws = 4000
    counts = Counter(sample_doubly_rooted_tree(k, rng) for _ in range(draws))
    assert set(counts) <= set(support)
    expected = draws / len(support)
    for c in counts.values():
        assert abs(c - expected) < 6 * math.sqrt(expected) + 10


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.randoms(use_true_random=False))
def test_sampled_trees_have_right_size(k, rng):
    m = children_to_map(sample_dyck_word(k, rng))
    assert m.n_edges == k
    assert genus(m) == 0
    drt = sample_doubly_rooted_tree(k, rng)
    assert drt.n_edges == k


class _Rejected(Exception):
    pass


class _ReplayRng:
    """Stands in for the rng of one sampler attempt: the first ``shuffle``
    writes ``steps``, ``randrange`` returns ``r``, and a second ``shuffle``
    (a rejected attempt starting over) raises ``_Rejected``."""

    def __init__(self, steps: list[int], r: int) -> None:
        self.steps, self.r, self.shuffled = steps, r, False

    def shuffle(self, seq: list[int]) -> None:
        if self.shuffled:
            raise _Rejected
        self.shuffled = True
        seq[:] = self.steps

    def randrange(self, stop: int) -> int:
        assert 0 <= self.r < stop
        return self.r


@pytest.mark.parametrize("k", range(1, 8))
def test_doubly_rooted_sampler_replays_every_draw(k):
    # each Dyck word comes from 2k+1 arrangements of the k+1 up-steps and
    # k down-steps (cycle lemma), so over all arrangements and every r < k
    # the kept draws must hit each doubly rooted tree exactly 2k+1 times
    counts: Counter = Counter()
    for downs in combinations(range(2 * k + 1), k):
        steps = [1] * (2 * k + 1)
        for i in downs:
            steps[i] = -1
        for r in range(k):
            try:
                counts[sample_doubly_rooted_tree(k, _ReplayRng(steps, r))] += 1
            except _Rejected:
                pass
    support = enumerate_doubly_rooted_trees(k)
    assert set(counts) == set(support)
    assert set(counts.values()) == {2 * k + 1}
    # kept share (k+1)/(2k) of the k * C(2k+1, k) attempts
    assert sum(counts.values()) * 2 * k == (k + 1) * k * math.comb(2 * k + 1, k)


def _sample_with_partner_table(k: int, rng: random.Random) -> DoublyRootedTree:
    """The sampler as it read v2's exit off the whole partner table."""
    while True:
        word = sample_dyck_word(k, rng)
        v2 = rng.randrange(k) + 1
        height = ups = 0
        for t, s in enumerate(word):
            height += s
            if s == 1:
                ups += 1
                if ups == v2:
                    return DoublyRootedTree(word, dyck_partners(word)[t])
            elif height == 0:
                break


def test_sampler_exit_scan_matches_the_partner_table():
    # the forward scan finds the exit that dyck_partners gives and draws
    # nothing, so each seed yields the same tree and leaves the same state
    for k in range(1, 9):
        for seed in range(200):
            rng, replay = random.Random(seed), random.Random(seed)
            assert sample_doubly_rooted_tree(k, rng) == _sample_with_partner_table(k, replay)
            assert rng.getstate() == replay.getstate()


def test_sampled_doubly_rooted_trees_are_pinned():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for _ in range(400):
        drt = sample_doubly_rooted_tree(rng.randint(1, 300), rng)
        digest.update(("".join("(" if s == 1 else ")" for s in drt.word) + f" {drt.exit}\n").encode())
    assert digest.hexdigest() == "12769524cd7a058ca8ad8173dd9af313fcbae8c7e2097a647568d02a47bcc1f1"


def test_sample_doubly_rooted_tree_large_without_recursion():
    start = time.perf_counter()
    drt = call_with_recursion_bound(sample_doubly_rooted_tree, 20_000, random.Random(5))
    assert time.perf_counter() - start < 5
    assert drt.n_edges == 20_000
