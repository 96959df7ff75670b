from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from unimap.core import (
    BranchDecomposition,
    branch_size_profile,
    core,
    core_and_branch_sizes,
    core_less_M,
    reconstruct,
)
from unimap.errors import DecompositionError, ParameterError
from unimap.maps import CombinatorialMap, from_polygon_gluing, genus, vertex_degrees
from unimap.parallel import fork_map
from unimap.samplers import (
    enumerate_pairings,
    sample_polygon_gluing,
    sample_unicellular_fixed_genus,
)

from .oracles import call_with_recursion_bound, core_less_M_by_reconstruct, path_torus, relabel

SQUARE = from_polygon_gluing(((0, 2), (1, 3)), 2)
# hexagon with one pendant edge folded in: genus 1, one vertex of degree 2
PENDANT = from_polygon_gluing(((0, 1), (2, 4), (3, 5)), 3)


def unicellular_maps(n: int, min_genus: int = 1):
    for pairing in enumerate_pairings(n):
        m = from_polygon_gluing(pairing, n)
        if genus(m) >= min_genus:
            yield m


def round_trip(m: CombinatorialMap) -> CombinatorialMap:
    return reconstruct(core(m))


def test_square_decomposes_to_itself():
    dec = core(SQUARE)
    assert dec.core == SQUARE
    assert dec.root_branch_index == 0
    assert dec.marked_edge == (0,)
    assert [b.n_edges for b in dec.branches] == [1, 1]
    assert reconstruct(dec) == SQUARE


def test_pendant_hexagon_profile():
    dec = core(PENDANT)
    assert dec.core.n_edges == 2
    assert sorted(b.n_edges for b in dec.branches) == [1, 2]
    assert reconstruct(dec) == PENDANT
    marked, others = branch_size_profile(PENDANT)
    assert (marked, others) in {(1, (2,)), (2, (1,))}


def test_core_rejects_genus_zero():
    tree = from_polygon_gluing(((0, 1), (2, 3)), 2)
    with pytest.raises(DecompositionError):
        core(tree)
    with pytest.raises(DecompositionError):
        branch_size_profile(tree)


def test_core_rejects_multi_face_maps():
    # one vertex, rotation (0 1 2 3 4 5): two faces, genus 1
    m = CombinatorialMap((1, 0, 4, 5, 2, 3), (1, 2, 3, 4, 5, 0), 0)
    assert m.n_faces() == 2 and genus(m) == 1
    with pytest.raises(DecompositionError):
        branch_size_profile(m)
    with pytest.raises(DecompositionError):
        core(m)


def test_leaf_peel_is_not_quadratic():
    # torus square with k leaves folded into one corner
    k = 20_000
    pairs = [(2 * i, 2 * i + 1) for i in range(k)]
    pairs += [(2 * k, 2 * k + 2), (2 * k + 1, 2 * k + 3)]
    m = from_polygon_gluing(tuple(pairs), k + 2)
    t0 = time.perf_counter()
    assert branch_size_profile(m) == (k + 1, (1,))
    assert reconstruct(core(m)) == m
    assert time.perf_counter() - t0 < 5.0


def test_deep_branch_round_trip_without_recursion():
    m = path_torus(1501)
    assert call_with_recursion_bound(round_trip, m) == m
    assert call_with_recursion_bound(branch_size_profile, m) == (1502, (1,))


def test_deep_decompositions_compare_without_recursion():
    m = path_torus(1501)
    a, b = core(m), core(m)
    assert a.branches[0] is not b.branches[0]
    checks = call_with_recursion_bound(lambda: (a == b, hash(a) == hash(b)))
    assert checks == (True, True)


def test_deep_branch_round_trip_at_scale():
    m = path_torus(100_000)
    t0 = time.perf_counter()
    assert call_with_recursion_bound(round_trip, m) == m
    assert time.perf_counter() - t0 < 10.0


def decomposition_digest(maps) -> tuple[int, str]:
    """Row count and sha256 of one JSON line per map: every tree,
    address and core dart of its decomposition, and its size profile."""
    digest = hashlib.sha256()
    lines = 0
    for m in maps:
        dec = core(m)
        row = [
            dec.core.alpha,
            [[b.tree, b.path] for b in dec.branches],
            dec.root_branch_index,
            dec.marked_edge,
            branch_size_profile(m),
        ]
        digest.update((json.dumps(row, separators=(",", ":")) + "\n").encode())
        lines += 1
    return lines, digest.hexdigest()


def sampled_maps():
    """Seeded positive-genus maps far past the exhaustive range: polygon
    gluings with up to 5,000 edges, then fixed-genus maps whose small g
    gives long chains and deep trees and whose large g gives big cores."""
    rng = random.Random(20261018)
    for _ in range(40):
        m = sample_polygon_gluing(rng.randint(2, 5000), rng)
        if genus(m) > 0:
            yield m
    for n in (100, 200, 400):
        for g in (1, 2, 5, n // 10, n // 4, n // 2 - 1, n // 2):
            for _ in range(2):
                yield sample_unicellular_fixed_genus(n, g, rng)


def test_decomposition_is_pinned_exhaustively():
    # every positive-genus gluing with 2..6 edges, in enumeration order
    maps = (m for n in range(2, 7) for m in unicellular_maps(n))
    assert decomposition_digest(maps) == (
        11_268,
        "d6f023cc9277b17a27aec65ba6d0300b1f3937ed7397c639e5ff631c488861c0",
    )


def test_decomposition_is_pinned_at_scale():
    assert decomposition_digest(sampled_maps()) == (
        82,
        "9f729099ca8398ee9ba448cb303d1dff3f615370415e21924d0de9827cdb487d",
    )


def test_decomposition_ignores_dart_labels():
    # the decomposition reads only the face tour from the root, so any
    # renaming of the darts that carries the root along changes nothing
    rng = random.Random(4)
    maps = [m for n in range(2, 7) for m in unicellular_maps(n)]
    maps += list(itertools.islice(sampled_maps(), 12))
    for m in maps:
        other = relabel(m, rng)
        assert core(other) == core(m)
        assert branch_size_profile(other) == branch_size_profile(m)


@pytest.mark.parametrize("n", range(2, 6))
def test_round_trip_exact_exhaustive_small(n):
    for m in unicellular_maps(n):
        assert reconstruct(core(m)) == m


def test_round_trip_exact_sampled_larger():
    rng = random.Random(20240816)
    done = 0
    while done < 400:
        n = rng.randint(2, 40)
        m = sample_polygon_gluing(n, rng)
        if genus(m) == 0:
            continue
        assert reconstruct(core(m)) == m
        done += 1


@pytest.mark.parametrize("n", range(2, 7))
def test_core_invariants(n):
    for m in unicellular_maps(n):
        dec = core(m)
        c = dec.core
        assert min(vertex_degrees(c)) >= 3
        assert genus(c) == genus(m)
        assert c.n_faces() == 1
        assert sum(b.n_edges for b in dec.branches) == n
        assert len(dec.branches) == c.n_edges
        # profile fast path agrees with the full decomposition
        marked, others = branch_size_profile(m)
        assert marked == dec.branches[dec.root_branch_index].n_edges
        assert others == tuple(
            sorted(
                b.n_edges
                for i, b in enumerate(dec.branches)
                if i != dec.root_branch_index
            )
        )


def test_branch_sizes_count_every_edge_once():
    rng = random.Random(77)
    for _ in range(60):
        m = sample_polygon_gluing(rng.randint(4, 30), rng)
        if genus(m) == 0:
            continue
        dec = core(m)
        assert sum(b.n_edges for b in dec.branches) == m.n_edges


def _core_read(m: CombinatorialMap):
    """What `core_and_branch_sizes` must return, read off `core`."""
    dec = core(m)
    return dec.core, tuple(sorted(b.n_edges for b in dec.branches))


def _core_read_mismatches(unit: tuple[int, int, int]) -> list[int]:
    """Indices of the gluings with n edges, every k-th from s for ``unit``
    = (n, k, s), whose core read differs from `core`'s."""
    n, k, s = unit
    bad = []
    for i, pairing in enumerate(enumerate_pairings(n)):
        if i % k == s:
            m = from_polygon_gluing(pairing, n)
            if genus(m) > 0 and core_and_branch_sizes(m) != _core_read(m):
                bad.append(i)
    return bad


def test_core_and_branch_sizes_match_core_exhaustively():
    # every positive-genus gluing with 1..7 edges, 134,706 of them at
    # n = 7, dealt across the CPUs this process may use
    units = [(n, 4, s) for n in range(1, 8) for s in range(4)]
    assert fork_map(_core_read_mismatches, units) == [[]] * len(units)


def test_core_and_branch_sizes_match_core_on_rerooted_samples():
    rng = random.Random(20261020)
    for _ in range(500):
        n = rng.randint(2, 120)
        m = sample_unicellular_fixed_genus(n, rng.randint(1, n // 2), rng)
        m = replace(m, root=rng.randrange(m.n_darts))
        assert core_and_branch_sizes(m) == _core_read(m)


def test_core_less_m_extremes():
    rng = random.Random(5)
    for _ in range(30):
        m = sample_polygon_gluing(rng.randint(3, 24), rng)
        if genus(m) == 0:
            continue
        # M above every branch size keeps the whole map
        assert core_less_M(m, m.n_edges + 1) == m
        assert core_less_M(m, 1 + max(b.n_edges for b in core(m).branches)) == m
        # M = 2 keeps only size-1 branches: that is the core itself
        assert core_less_M(m, 2) == core(m).core


def test_core_less_m_validation():
    # M is checked before the map is read: a non-int, a bool or M < 2 is
    # refused on any map, a plane tree included, and 2.5 is not read as 3
    tree = from_polygon_gluing(((0, 1), (2, 3)), 2)
    for m in (tree, SQUARE):
        for M in (1, 0, -3, 2.5, 3.0, True, "3", None):
            with pytest.raises(ParameterError):
                core_less_M(m, M)
    # with an int M, each error matches the route through `core` and the
    # trim in class and message
    cases = ((tree, 2, DecompositionError), (tree, 3, DecompositionError), (SQUARE, 1, ParameterError))
    for m, M, error in cases:
        with pytest.raises(error) as new:
            core_less_M(m, M)
        with pytest.raises(error) as old:
            core_less_M_by_reconstruct(core(m), M, reconstruct)
        assert type(new.value) is type(old.value) and str(new.value) == str(old.value)


def test_core_less_m_matches_reconstruct_exhaustively():
    # every positive-genus gluing with 1..6 edges, at M = 2, at each of its
    # branch sizes above 1 and just past its largest branch
    cases = 0
    for n in range(1, 7):
        for m in unicellular_maps(n):
            dec = core(m)
            sizes = sorted({b.n_edges for b in dec.branches})
            for M in [2] + [b for b in sizes if b > 1] + [sizes[-1] + 1]:
                assert core_less_M(m, M) == core_less_M_by_reconstruct(dec, M, reconstruct), (m, M)
                cases += 1
    assert cases == 32_785


def test_core_less_m_matches_reconstruct_on_relabelled_samples():
    # relabelled darts are not in face order, and a moved root can sit
    # anywhere on its branch, so the trim has to follow the face walk
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(2, 80)
        m = sample_unicellular_fixed_genus(n, rng.randint(1, n // 2), rng)
        rerooted = replace(m, root=rng.randrange(m.n_darts))
        for other in (m, relabel(m, rng), relabel(rerooted, rng)):
            dec = core(other)
            for M in (2, 3, 4, 8):
                assert core_less_M(other, M) == core_less_M_by_reconstruct(dec, M, reconstruct)


def test_core_less_m_on_deep_and_large_maps_without_recursion():
    # path_torus's root starts its 10,001-edge branch, so M = 2 and
    # M = 10,001 collapse the root's branch and M = 10,002 keeps it
    deep = path_torus(10_000)
    large = sample_unicellular_fixed_genus(2000, 800, random.Random(2000))
    for m, grid in ((deep, (2, 10_001, 10_002)), (large, (2, 3, 4))):
        dec = core(m)
        for M in grid:
            t0 = time.perf_counter()
            trimmed = call_with_recursion_bound(core_less_M, m, M)
            assert time.perf_counter() - t0 < 2.0
            assert trimmed == core_less_M_by_reconstruct(dec, M, reconstruct)
    assert core_less_M(deep, 10_001) == SQUARE
    assert core_less_M(deep, 10_002) == deep


def test_core_less_m_interpolates_edge_count():
    rng = random.Random(31)
    for _ in range(40):
        m = sample_polygon_gluing(rng.randint(6, 30), rng)
        if genus(m) == 0:
            continue
        prev = None
        for M in range(2, m.n_edges + 2):
            edges = core_less_M(m, M).n_edges
            if prev is not None:
                assert edges >= prev
            prev = edges
        assert prev == m.n_edges


def test_decomposition_validation():
    dec = core(PENDANT)
    with pytest.raises(DecompositionError):
        BranchDecomposition(dec.core, dec.branches[:1], dec.marked_edge)  # wrong branch count
    with pytest.raises((DecompositionError, ParameterError)):
        replace(dec, marked_edge=(9, 9, 9))  # unresolvable address


def test_bookkeeping_identity_after_trimming():
    # edges(core^{<M}) + sum over removed branches of their sizes = n
    rng = random.Random(13)
    for _ in range(40):
        m = sample_polygon_gluing(rng.randint(6, 40), rng)
        if genus(m) == 0:
            continue
        dec = core(m)
        for M in (2, 3, 5):
            kept = core_less_M(m, M).n_edges
            removed = sum(
                b.n_edges - 1
                for b in dec.branches
                if b.n_edges >= M
            )
            assert kept + removed == m.n_edges


def test_profile_census_total():
    # all profiles over U(6, *) cover every genus >= 1 gluing exactly once
    census = Counter()
    total = 0
    for m in unicellular_maps(6):
        census[branch_size_profile(m)] += 1
        total += 1
    assert sum(census.values()) == total
    # frozen spot value: marked branch carries the whole map iff core is
    # a single loop... which cannot happen; smallest profile has 2 branches
    assert all(1 + len(others) >= 2 for (_, others) in census)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.randoms(use_true_random=False))
def test_round_trip_property(n, rng):
    m = sample_polygon_gluing(n, rng)
    if genus(m) == 0:
        return
    dec = core(m)
    assert reconstruct(dec) == m
    assert sum(b.n_edges for b in dec.branches) == n
