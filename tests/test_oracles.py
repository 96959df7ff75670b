"""The oracles themselves get checked against exhaustive ground truth first;
everything else in the suite leans on them."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from unimap.maps import Multigraph
from unimap.samplers import sample_polygon_gluing
from unimap.series import series_C
from unimap.trees import dyck_partners, sample_dyck_word

from .oracles import (
    all_matchings,
    brute_cheeger_in_family,
    brute_cheeger_value,
    brute_doubly_rooted_count,
    brute_subset_volume_count,
    catalan,
    corner_genus,
    expected_marked_size,
    face_order_form,
    face_order_relabeling,
    glue_corners,
    glue_corners_reference,
    harer_zagier_table,
    polygon_map,
    relabel,
    vertex_corners,
)


def double_factorial(odd_terms: int) -> int:
    out = 1
    for k in range(1, 2 * odd_terms, 2):
        out *= k
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_harer_zagier_matches_exhaustive_count(n):
    table = harer_zagier_table(6)
    seen = Counter()
    for pairing in all_matchings(tuple(range(2 * n))):
        seen[corner_genus(polygon_map(pairing, n))] += 1
    for g in range(n // 2 + 1):
        assert seen[g] == table[(n, g)]


@pytest.mark.parametrize("n", range(1, 9))
def test_harer_zagier_rows_sum_to_matching_count(n):
    table = harer_zagier_table(8)
    assert sum(table[(n, g)] for g in range(n // 2 + 1)) == double_factorial(n)


def test_harer_zagier_frozen_values():
    table = harer_zagier_table(6)
    # one-vertex gluing counts: (2p)!/(2^p p! (p+1))
    assert table[(2, 1)] == 1
    assert table[(4, 2)] == 21
    assert table[(6, 3)] == 1485
    assert table[(3, 0)] == catalan(3) == 5


def test_corner_genus_square_and_tree():
    square = polygon_map(((0, 2), (1, 3)), 2)
    assert corner_genus(square) == 1
    folded = polygon_map(((0, 1), (2, 3)), 2)  # path with 2 edges
    assert corner_genus(folded) == 0


def test_brute_cheeger_hand_values():
    c4 = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert brute_cheeger_value(c4) == Fraction(1, 2)
    c6 = Multigraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
    assert brute_cheeger_value(c6) == Fraction(1, 3)
    h, subset = brute_cheeger_in_family(c6)
    assert h == Fraction(1, 3)
    assert len(subset) == 3  # half the cycle, connected


def test_brute_cheeger_disconnected_gives_zero():
    g = Multigraph(4, ((0, 1), (2, 3)))
    assert brute_cheeger_value(g) == 0


def test_brute_subset_volume_count_hand_case():
    # degrees (3,3,4,4): volume 6 from {3,3} only, volume 7 from {3,4} four ways
    assert brute_subset_volume_count((3, 3, 4, 4), 6) == 1
    assert brute_subset_volume_count((3, 3, 4, 4), 7) == 4


def _plane_trees(edges: int) -> list:
    # independent generator: a tree with e edges is a tuple of subtrees
    # consuming e slots, each child costing 1 + its own edges
    if edges == 0:
        return [()]
    out = []

    def build(remaining: int, acc: tuple) -> None:
        if remaining == 0:
            out.append(acc)
            return
        for child_edges in range(remaining):
            for child in _plane_trees(child_edges):
                build(remaining - 1 - child_edges, acc + (child,))

    build(edges, ())
    return out


@pytest.mark.parametrize("k", range(1, 6))
def test_brute_doubly_rooted_count_closed_form(k):
    trees = _plane_trees(k)
    assert len(trees) == catalan(k)
    assert brute_doubly_rooted_count(k, trees) == math.comb(2 * k - 1, k - 1)


def _gluings(seed: int, count: int):
    rng = random.Random(seed)
    return [sample_polygon_gluing(rng.randint(1, 12), rng) for _ in range(count)]


def test_face_order_form_canonicalizes_rooted_isomorphic_maps():
    rng = random.Random(99)
    for m in _gluings(seed=17, count=40):
        assert face_order_form(relabel(m, rng)) == m


def test_face_order_relabeling_fixes_root():
    rng = random.Random(29)
    for m in _gluings(seed=23, count=20):
        moved = relabel(m, rng)
        assert face_order_relabeling(moved)[moved.root] == 0


def test_expected_marked_size_matches_series_ratio():
    # the marked law weights size k by k*[z^k]C*beta^k
    beta = 0.1
    order = 200
    c = series_C(order)
    num = sum(k * c[k] * beta**k for k in range(order + 1))
    den = sum(c[k] * beta**k for k in range(order + 1))
    assert expected_marked_size(beta) == pytest.approx(num / den, rel=1e-9)


def _gluing_cases(seed: int, count: int, n_lo: int, n_hi: int):
    """(alpha, corners) pairs as the fixed-genus sampler meets them: a
    random plane tree, then a chain of random genus steps on it."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(n_lo, n_hi)
        alpha = dyck_partners(sample_dyck_word(n, rng))
        corners = vertex_corners(alpha)
        while len(corners) >= 3 and count:
            p = rng.randint(1, (len(corners) - 1) // 2)
            chosen = [corners[i] for i in sorted(rng.sample(range(len(corners)), 2 * p + 1))]
            yield alpha, chosen
            count -= 1
            alpha = glue_corners_reference(alpha, chosen)
            corners = vertex_corners(alpha)


def test_glue_corners_matches_the_face_walk():
    # the slices against the dart-by-dart walk of the new face, root
    # corner included, on steps drawn as the sampler draws them
    cases = [*_gluing_cases(61, 3000, 1, 60), *_gluing_cases(1000, 6, 1000, 1000)]
    assert sum(0 in corners for _, corners in cases) > 200
    for alpha, corners in cases:
        assert glue_corners(alpha, corners) == glue_corners_reference(alpha, corners)
