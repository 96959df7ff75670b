from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from unimap.errors import (
    DisconnectedGraphError,
    EmptySideError,
    EnumerationCapError,
    ParameterError,
)
from unimap import experiments, expansion
from unimap.expansion import (
    CutWitness,
    _mask_precedes,
    _tree_as_edges,
    branch_substitution_transfer_check,
    cheeger_exact,
    count_subset_volumes,
    is_connected,
    is_kappa_expander,
    spectral_cheeger_bounds,
    wilson_interval,
)
from unimap.experiments import run_core_expander_experiment, verify_substitution_transfer
from unimap.maps import Multigraph, underlying_graph
from unimap.samplers import DegreeSequence
from unimap.trees import dyck_partners

from .oracles import (
    brute_cheeger_in_family,
    brute_cheeger_value,
    brute_subset_volume_count,
    cheeger_exact_reference,
    components,
    enumerate_doubly_rooted_trees,
    h_value,
)

C4 = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4 = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def random_multigraph(rng: random.Random, max_vertices: int = 10) -> Multigraph:
    n = rng.randint(2, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]  # random spanning tree
    for _ in range(rng.randint(0, n + 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        edges.append((min(u, v), max(u, v)))
    return Multigraph(n, tuple(edges))


def test_h_value_hand_cases():
    assert h_value(C4, (0, 1)).h_value == Fraction(1, 2)
    assert h_value(C4, (0, 2)).h_value == Fraction(4, 4)
    assert h_value(K4, (0,)).h_value == Fraction(3, 3)
    with pytest.raises(EmptySideError):
        h_value(C4, ())
    with pytest.raises(EmptySideError):
        h_value(C4, (0, 1, 2, 3))
    with pytest.raises(ParameterError):
        h_value(C4, (0, 9))


def test_h_value_loop_conventions():
    # loop adds 2 to volume, never to the boundary
    g = Multigraph(2, ((0, 1), (0, 0)))
    assert h_value(g, (1,)).h_value == Fraction(1, 1)
    assert h_value(g, (0,)).h_value == Fraction(1, 1)  # complement side has volume 1


def test_cheeger_exact_known_values():
    assert cheeger_exact(C4).h_value == Fraction(1, 2)
    assert cheeger_exact(K4).h_value == Fraction(2, 3)  # two-vertex cut: 4/6
    for k in (2, 3, 4):
        cycle = Multigraph(2 * k, tuple((i, (i + 1) % (2 * k)) for i in range(2 * k)))
        assert cheeger_exact(cycle).h_value == Fraction(1, k)


def test_cheeger_exact_matches_brute_force_on_random_graphs():
    rng = random.Random(424242)
    for _ in range(60):
        g = random_multigraph(rng, max_vertices=8)
        wit = cheeger_exact(g)
        assert wit.h_value == brute_cheeger_value(g)
        h_fam, subset_fam = brute_cheeger_in_family(g)
        assert wit.h_value == h_fam
        assert wit.subset == subset_fam


def test_cheeger_exact_matches_brute_force_with_heavy_multiplicities():
    # bundles of three and four parallel edges, plus loops, reach the
    # multiplicity layers that random sparse graphs rarely touch
    rng = random.Random(3344)
    for _ in range(80):
        n = rng.randint(2, 10)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(1, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            edges.extend([(u, v)] * rng.choice((1, 3, 4)))
        edges.extend((v, v) for v in rng.sample(range(n), rng.randint(0, n)))
        g = Multigraph(n, tuple(edges))
        wit = cheeger_exact(g)
        h_fam, subset_fam = brute_cheeger_in_family(g)
        assert wit.h_value == h_fam
        assert wit.subset == subset_fam


def _small_multigraphs(max_vertices: int, max_edges: int):
    """Every multigraph on 2..max_vertices vertices with at most max_edges
    edges, loops included; the edgeless and disconnected ones too."""
    for n in range(2, max_vertices + 1):
        slots = list(itertools.combinations_with_replacement(range(n), 2))
        for m in range(max_edges + 1):
            for edges in itertools.combinations_with_replacement(slots, m):
                yield Multigraph(n, edges)


def _labelled_trees(max_vertices: int):
    """Every labelled tree on 2..max_vertices vertices, one per Prüfer code."""
    for n in range(2, max_vertices + 1):
        for code in itertools.product(range(n), repeat=n - 2):
            deg = [1] * n
            for x in code:
                deg[x] += 1
            edges = []
            for x in code:
                leaf = deg.index(1)
                edges.append((leaf, x))
                deg[leaf] -= 1
                deg[x] -= 1
            edges.append(tuple(v for v in range(n) if deg[v] == 1))
            yield Multigraph(n, tuple(edges))


def _hang_legs(core_n: int, core_edges, legs, *, below: bool) -> Multigraph:
    """The core with ``legs[v]`` pendant leaves hung on core vertex v.

    The leaves get the numbers after the core's, or, with ``below``, each
    vertex's leaves are numbered just before it."""
    if below:
        label, nxt = [0] * core_n, 0
        for v in range(core_n):
            label[v] = nxt + legs[v]
            nxt = label[v] + 1
        leg_edges = [(label[v] - 1 - i, label[v]) for v in range(core_n) for i in range(legs[v])]
    else:
        label = list(range(core_n))
        fresh = itertools.count(core_n)
        leg_edges = [(v, next(fresh)) for v in range(core_n) for _ in range(legs[v])]
    edges = [(label[u], label[v]) for u, v in core_edges] + leg_edges
    return Multigraph(core_n + sum(legs), tuple(edges))


def _assert_matches_reference(graphs) -> int:
    met = 0
    for g in graphs:
        cap = max(24, g.n_vertices)
        assert cheeger_exact(g, cap=cap) == cheeger_exact_reference(g, cap=cap), g
        met += 1
    return met


def test_cheeger_exact_matches_reference_engine(monkeypatch):
    met: list[Multigraph] = []

    def recording(g, *, cap=24):
        met.append(g)
        return cheeger_exact(g, cap=cap)

    monkeypatch.setattr(expansion, "cheeger_exact", recording)
    # one share, so that every call is made in this process and recorded
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    verify_substitution_transfer(instances=2000, seed=13)
    monkeypatch.undo()
    assert len(met) == 4000  # the base graph and its spliced graph, per instance

    graphs = met
    for n in range(2, 13):  # heavy ties
        graphs.append(Multigraph(n, tuple((i, (i + 1) % n) for i in range(n))))
        graphs.append(Multigraph(n, tuple(itertools.combinations(range(n), 2))))
    _assert_matches_reference(graphs)


def test_cheeger_exact_matches_reference_on_small_multigraphs():
    assert _assert_matches_reference(_small_multigraphs(5, 5)) == 19_025


def test_cheeger_exact_matches_reference_on_labelled_trees():
    # leaves everywhere: every set that holds a leaf's neighbour but not
    # the leaf is skipped, in every labelling
    assert _assert_matches_reference(_labelled_trees(7)) == 18_248


def test_cheeger_exact_matches_reference_on_caterpillars():
    spine = [(i, i + 1) for i in range(5)]
    graphs = [
        _hang_legs(s, spine[: s - 1], legs, below=below)
        for s in range(1, 7)
        for legs in itertools.product(range(3), repeat=s)
        for below in (False, True)
        if s + sum(legs) >= 2
    ]
    assert _assert_matches_reference(graphs) == 2 * (3 + 9 + 27 + 81 + 243 + 729) - 2


def test_cheeger_exact_matches_reference_with_leaves_on_loops_and_bundles():
    # cores whose vertices carry loops or parallel edges, legs on top
    cores = [
        (n, edges)
        for n in range(1, 4)
        for m in range(1, 4)
        for edges in itertools.combinations_with_replacement(
            list(itertools.combinations_with_replacement(range(n), 2)), m
        )
        if len(set(edges)) < m or any(u == v for u, v in edges)
    ]
    graphs = [
        _hang_legs(n, edges, legs, below=below)
        for n, edges in cores
        for legs in itertools.product(range(3), repeat=n)
        for below in (False, True)
        if n + sum(legs) >= 2
    ]
    assert _assert_matches_reference(graphs) > 1000


def test_cheeger_exact_matches_reference_on_sampled_cores(monkeypatch):
    # the underlying graph of every sample and every core of one seeded run
    # at the benchmark's shape, where core vertices carry many parallel edges
    maps = []
    cheeger = experiments._cheeger_or_none

    def recording(m, where):
        maps.append(m)
        return cheeger(m, where)

    monkeypatch.setattr(experiments, "_cheeger_or_none", recording)
    # one share, so that every call is made in this process and recorded
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_core_expander_experiment(0.4, 0.1, (30, 40, 50, 60), 40, 1)
    monkeypatch.undo()
    assert len(maps) == 320  # no branch reaches M, so the core less M is the sample
    graphs = [g for g in (underlying_graph(m)[0] for m in maps) if g.n_vertices >= 2]
    assert max(max(Counter(g.edges).values()) for g in graphs) >= 5
    assert _assert_matches_reference(graphs) == len(graphs)


def test_cheeger_exact_matches_reference_on_heavy_bundles():
    # bundles of 5 to 13 parallel edges, and loops, on 2 to 9 vertices
    rng = random.Random(25)
    graphs = []
    for _ in range(300):
        n = rng.randint(2, 9)
        edges = []
        for _ in range(rng.randint(1, 2 * n)):
            u, v = sorted((rng.randrange(n), rng.randrange(n)))
            edges += [(u, v)] * (rng.randint(5, 13) if u != v else rng.randint(1, 3))
        graphs.append(Multigraph(n, tuple(edges)))
    assert _assert_matches_reference(graphs) == 300


def test_cheeger_exact_builds_its_witness_without_h_value():
    # the search holds the best cut's boundary and volume, and the flood's
    # reach is a disconnected graph's witness, so no edge is rescanned;
    # the witness still equals the rescan of the oracle
    graphs = [C4, K4, Multigraph(2, ((0, 1),)), Multigraph(3, ((0, 1), (1, 1), (1, 2), (1, 2)))]
    graphs += list(_labelled_trees(5))
    graphs += [Multigraph(4, ((0, 1), (2, 3))), Multigraph(5, ((1, 1), (0, 2), (0, 2), (3, 4)))]
    graphs += [Multigraph(3, ()), Multigraph(3, ((1, 2), (0, 0)))]
    for g in graphs:
        wit = cheeger_exact(g)
        assert wit == h_value(g, wit.subset)


def test_is_connected_agrees_with_components():
    # the bitmask flood against the component search, on every multigraph
    # with 1..4 vertices and at most 4 edges, loops and bundles included
    for n in range(1, 5):
        slots = list(itertools.combinations_with_replacement(range(n), 2))
        for m in range(5):
            for edges in itertools.combinations_with_replacement(slots, m):
                g = Multigraph(n, edges)
                assert is_connected(g) == (len(components(g)) == 1), g
    path = Multigraph(64, tuple((i, i + 1) for i in range(63)))
    assert is_connected(path)
    assert not is_connected(Multigraph(64, path.edges[:40] + path.edges[41:]))


def test_mask_precedes_is_sorted_tuple_order():
    def members(mask):
        return tuple(v for v in range(7) if mask >> v & 1)

    for a, b in itertools.permutations(range(1 << 7), 2):
        assert _mask_precedes(a, b) == (members(a) < members(b)), (a, b)


def test_tree_as_edges_enters_v2_on_the_exit_partner():
    for k in range(1, 7):
        for drt in enumerate_doubly_rooted_trees(k):
            edges, next_id = _tree_as_edges(drt, 100, 200, 300)
            enter_v2 = dyck_partners(drt.word)[drt.exit]
            ups = [t for t, s in enumerate(drt.word) if s == 1]
            fresh = iter(range(300, 300 + k))
            assert [child for _, child in edges] == [
                200 if t == enter_v2 else next(fresh) for t in ups
            ]
            assert next_id == 300 + k - 1
            assert edges[0][0] == 100


def test_cheeger_witness_consistency():
    rng = random.Random(5)
    for _ in range(30):
        g = random_multigraph(rng)
        wit = cheeger_exact(g)
        assert h_value(g, wit.subset).h_value == wit.h_value
        assert wit.vol_x <= wit.vol_complement
        assert wit.vol_x + wit.vol_complement == sum(g.degrees)


def test_cheeger_exact_edge_cases():
    with pytest.raises(EmptySideError):
        cheeger_exact(Multigraph(1, ((0, 0),)))
    with pytest.raises(EnumerationCapError):
        cheeger_exact(Multigraph(30, tuple((i, i + 1) for i in range(29))))
    disconnected = Multigraph(4, ((0, 1), (2, 3)))
    assert cheeger_exact(disconnected).h_value == 0
    assert cheeger_exact(disconnected).boundary == 0


def test_is_kappa_expander():
    ok, wit = is_kappa_expander(C4, Fraction(1, 2))
    assert ok and wit is None
    ok, wit = is_kappa_expander(C4, Fraction(2, 3))
    assert not ok
    assert wit is not None and wit.h_value < Fraction(2, 3)
    ok, wit = is_kappa_expander(Multigraph(1, ((0, 0),)), Fraction(1))
    assert ok and wit is None  # no cut exists: vacuously an expander
    with pytest.raises(ParameterError):
        is_kappa_expander(C4, Fraction(-1, 2))
    for bad in ("abc", "1/0", None, []):
        with pytest.raises(ParameterError, match="kappa must be a rational number"):
            is_kappa_expander(C4, bad)


def test_spectral_bounds_bracket_exact_value():
    rng = random.Random(99)
    graphs = [C4, K4] + [random_multigraph(rng, 8) for _ in range(25)]
    for g in graphs:
        try:
            low, high = spectral_cheeger_bounds(g)
        except DisconnectedGraphError:
            continue
        h = float(cheeger_exact(g).h_value)
        assert low <= h + 1e-9
        assert h <= high + 1e-9


def test_package_import_leaves_numpy_unloaded():
    # numpy loads only inside spectral_cheeger_bounds: not at import, not
    # while sampling U(n, g), not in a core-expander run
    code = """
import json, random, sys
import unimap, unimap.experiments, unimap.cli
from unimap.samplers import sample_unicellular_fixed_genus
sample_unicellular_fixed_genus(60, 24, random.Random(0))
unimap.experiments.run_core_expander_experiment(0.4, 0.1, (30,), 2, 1)
loaded = "numpy" in sys.modules
from unimap.expansion import spectral_cheeger_bounds
from unimap.maps import Multigraph
c4 = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
k4 = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
print(json.dumps([loaded, spectral_cheeger_bounds(c4), spectral_cheeger_bounds(k4)]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(expansion.__file__).parents[1])},
    ).stdout
    loaded, c4, k4 = json.loads(out)
    assert not loaded
    # normalized Laplacian spectra: C4 has lambda_2 = 1, K4 has 4/3
    assert c4 == pytest.approx([0.5, 2**0.5])
    assert k4 == pytest.approx([2 / 3, (8 / 3) ** 0.5])
    assert c4 == list(spectral_cheeger_bounds(C4))  # the same pair as in process
    assert k4 == list(spectral_cheeger_bounds(K4))


def test_spectral_bounds_errors():
    with pytest.raises(EmptySideError):
        spectral_cheeger_bounds(Multigraph(1, ()))
    with pytest.raises(DisconnectedGraphError):
        spectral_cheeger_bounds(Multigraph(4, ((0, 1), (2, 3))))


def test_count_subset_volumes_matches_brute_force():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(1, 9)
        degrees = tuple(rng.randint(3, 6) for _ in range(k))
        total = sum(degrees)
        v = rng.randint(1, total // 2)
        got = count_subset_volumes(degrees, v)
        assert got.count == brute_subset_volume_count(degrees, v)
        assert got.count <= got.bound or got.bound == 0 and got.count == 0


def test_count_subset_volumes_validation():
    with pytest.raises(ParameterError):
        count_subset_volumes((3, 3), 4)  # 2V > total
    with pytest.raises(ParameterError):
        count_subset_volumes((3, 3), 0)
    d = DegreeSequence((3, 3, 4, 4))
    assert count_subset_volumes(d, 6).count == 1


def test_wilson_interval_known_values():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.07
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.93 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert lo == pytest.approx(1 - hi, abs=1e-12)
    with pytest.raises(ParameterError):
        wilson_interval(5, 0)
    with pytest.raises(ParameterError):
        wilson_interval(7, 5)


def test_branch_substitution_transfer_on_cycles():
    rng = random.Random(8)
    for _ in range(40):
        assert branch_substitution_transfer_check(C4, 3, rng)
    state = rng.getstate()
    disconnected_graphs = (
        Multigraph(4, ((0, 1), (2, 3))),
        Multigraph(2, ()),
        Multigraph(3, ((1, 1),)),
    )
    for disconnected in disconnected_graphs:
        with pytest.raises(DisconnectedGraphError):
            branch_substitution_transfer_check(disconnected, 2, rng)
        assert rng.getstate() == state  # refused before any tree is drawn
    with pytest.raises(ParameterError):
        branch_substitution_transfer_check(C4, 0, rng)


def test_transfer_verdict_on_ints_matches_the_fractions(monkeypatch):
    # the verdict compares ints, and must read as h(big) >= h(H) / (2M+1)
    # does in Fractions: on seeded instances, and on cuts handed in place
    # of the exact ones so that it can fail
    seen = []

    def recording(g, cap=24):
        seen.append(cheeger_exact(g, cap=cap))
        return seen[-1]

    monkeypatch.setattr(expansion, "cheeger_exact", recording)
    rng = random.Random(31)
    for _ in range(60):
        h_graph, M = random_multigraph(rng, 5), rng.randint(1, 4)
        verdict = branch_substitution_transfer_check(h_graph, M, rng)
        base, wit = seen[-2:]
        assert verdict == (wit.h_value >= base.h_value / (2 * M + 1))
    verdicts = Counter()
    grid = itertools.product((1, 3), (1, 5), (2, 7), (0, 1, 2, 3), (1, 6), (3, 9), (1, 2))
    for b_bnd, b_x, b_c, w_bnd, w_x, w_c, M in grid:
        base, wit = CutWitness((0,), b_bnd, b_x, b_c), CutWitness((0,), w_bnd, w_x, w_c)
        cuts = iter((base, wit))
        monkeypatch.setattr(expansion, "cheeger_exact", lambda g, cap=24: next(cuts))
        verdict = branch_substitution_transfer_check(C4, M, rng)
        assert verdict == (wit.h_value >= base.h_value / (2 * M + 1))
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_cut_witness_derives_h():
    # h = boundary / min(vol_x, vol_complement), read off the fields
    assert CutWitness((1, 0), 3, 4, 6).h_value == Fraction(3, 4)
    assert CutWitness((0,), 3, 8, 6).h_value == Fraction(1, 2)
    assert CutWitness((0,), 0, 0, 6).h_value == 0  # nothing crosses: h = 0
    assert CutWitness((2, 0, 1), 1, 5, 5).subset == (0, 1, 2)
    with pytest.raises(EmptySideError):
        CutWitness((), 1, 0, 4)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_cheeger_symmetry_property(rng):
    g = random_multigraph(rng, max_vertices=7)
    wit = cheeger_exact(g)
    comp = tuple(v for v in range(g.n_vertices) if v not in set(wit.subset))
    if comp:
        assert h_value(g, comp).h_value == wit.h_value  # h(X) == h(complement)
