from __future__ import annotations

import hashlib
import itertools
import logging
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unimap.errors import EnumerationCapError, ParameterError
from unimap.maps import encode_map, genus, vertex_degrees
from unimap.samplers import (
    DegreeSequence,
    count_one_vertex_maps,
    double_factorial_odd,
    enumerate_pairings,
    sample_branch_size,
    sample_configuration_model,
    sample_pairing,
    sample_polygon_gluing,
    sample_unicellular_fixed_genus,
    _branch_size_tables,
    _genus_count_column,
    _genus_step_weight,
    _genus_steps,
)
from unimap.series import expected_plain_size
from unimap.trees import dyck_partners, sample_dyck_word

from .oracles import (
    all_matchings,
    call_with_recursion_bound,
    corner_genus,
    enumerate_pairings_recursive,
    expected_marked_size,
    glue_corners,
    harer_zagier_table,
    polygon_map,
    rejection_fixed_genus,
    vertex_corners,
)


@pytest.mark.parametrize("p", range(0, 7))
def test_enumerate_pairings_count(p):
    pairings = list(enumerate_pairings(p))
    assert len(pairings) == double_factorial_odd(p)
    assert len(set(pairings)) == len(pairings)
    assert set(pairings) == set(all_matchings(tuple(range(2 * p))))


def test_enumerate_pairings_cap():
    with pytest.raises(EnumerationCapError):
        next(enumerate_pairings(9))
    # refused at the call, before any item is asked for
    with pytest.raises(EnumerationCapError):
        enumerate_pairings(9)


@pytest.mark.parametrize(
    "prefix",
    [((1, 2),), ((0, 0),), ((0, 6),), ((0, 1), (3, 4)), ((0, 1), (2, 3), (4, 5), (6, 7))],
)
def test_enumerate_pairings_refuses_a_prefix_it_would_not_make(prefix):
    with pytest.raises(ParameterError):
        enumerate_pairings(3, prefix)


def test_enumerate_pairings_from_a_prefix():
    assert list(enumerate_pairings(3, ((0, 2),))) == [
        p for p in enumerate_pairings(3) if p[0] == (0, 2)
    ]
    assert list(enumerate_pairings(2, ((0, 3), (1, 2)))) == [((0, 3), (1, 2))]


@pytest.mark.parametrize("p", range(0, 8))
def test_enumerate_pairings_keeps_the_recursive_order(p):
    assert list(enumerate_pairings(p)) == list(enumerate_pairings_recursive(p))


def test_double_factorial_values():
    assert [double_factorial_odd(p) for p in range(5)] == [1, 1, 3, 15, 105]


def test_count_one_vertex_maps_values():
    assert count_one_vertex_maps(2) == 1
    assert count_one_vertex_maps(4) == 21
    assert count_one_vertex_maps(6) == 1485
    # odd p: the closed form is a non-integer rational, catching parity slips
    assert count_one_vertex_maps(3) == Fraction(15, 4)


@pytest.mark.parametrize("n_points", [4, 6])
def test_sample_pairing_is_uniform_small(n_points):
    # all_matchings lists (min, max) pairs sorted by their first point, so
    # equal keys also pin that convention
    matchings = set(all_matchings(tuple(range(n_points))))
    rng = random.Random(0)
    counts = Counter(sample_pairing(n_points, rng) for _ in range(1000 * len(matchings)))
    assert set(counts) == matchings
    for c in counts.values():
        assert 880 <= c <= 1120


def test_sample_pairing_is_linear():
    # a draw-and-pop sampler is quadratic: about 0.5 s at 80,000 points,
    # so about 12 s here
    t0 = time.perf_counter()
    pairs = sample_pairing(400_000, random.Random(1))
    assert time.perf_counter() - t0 < 5.0
    assert len(pairs) == 200_000
    assert sorted(d for pair in pairs for d in pair) == list(range(400_000))


def test_polygon_gluing_genus_distribution_matches_recurrence():
    table = harer_zagier_table(4)
    rng = random.Random(12)
    draws = 4000
    counts = Counter(genus(sample_polygon_gluing(4, rng)) for _ in range(draws))
    for g in range(3):
        expect = draws * table[(4, g)] / 105
        assert abs(counts[g] - expect) < 5 * math.sqrt(expect)


def test_fixed_genus_sampler_hits_target():
    rng = random.Random(3)
    for n, g in [(6, 1), (6, 3), (10, 2), (14, 5)]:
        m = sample_unicellular_fixed_genus(n, g, rng)
        assert m.n_edges == n
        assert genus(m) == g
        assert m.n_faces() == 1


def test_fixed_genus_sampler_logs_attempts(caplog):
    rng = random.Random(5)
    with caplog.at_level(logging.DEBUG, logger="unimap.samplers"):
        sample_unicellular_fixed_genus(6, 3, rng)
    assert any("attempts" in rec.message for rec in caplog.records)


def test_fixed_genus_sampler_reaches_the_high_genus_regime():
    # rejection needed 3.8e7 gluings on average here and spun for hours
    rng = random.Random(1)
    t0 = time.perf_counter()
    m = sample_unicellular_fixed_genus(100, 40, rng)
    assert time.perf_counter() - t0 < 5.0
    assert (m.n_edges, m.n_faces(), genus(m)) == (100, 1, 40)


@pytest.mark.parametrize("g", [400, 500])
def test_fixed_genus_sampler_large_n_without_recursion(g):
    # 40 frames above this one: the count table, the genus steps and the
    # base tree must all be loops, whatever n is
    t0 = time.perf_counter()
    m = call_with_recursion_bound(sample_unicellular_fixed_genus, 1000, g, random.Random(g))
    assert time.perf_counter() - t0 < 30.0
    assert (m.n_edges, m.n_faces(), genus(m)) == (1000, 1, g)


def test_harer_zagier_column_matches_oracle():
    # the odd-cycle column against the Harer-Zagier recurrence
    table = harer_zagier_table(200)
    for n in range(201):
        assert _genus_count_column(n) == tuple(table[(n, g)] for g in range(n // 2 + 1))


def test_genus_step_weights_sum_to_trisection_total():
    # Chapuy: 2g eps_g(n) = sum_p C(n+1-2g+2p, 2p+1) eps_{g-p}(n)
    table = harer_zagier_table(60)
    for n in range(1, 61):
        for g in range(1, n // 2 + 1):
            total = sum(_genus_step_weight(n, g, p) for p in range(1, g + 1))
            assert total == 2 * g * table[(n, g)]


def _pairs(alpha):
    return [(d, a) for d, a in enumerate(alpha) if d < a]


def test_vertex_gluing_hits_every_genus_g_map_2g_times():
    # every (2p+1)-subset of vertices of every genus-(g-p) map, for all p
    for n in range(1, 7):
        by_genus: dict[int, list[tuple[int, ...]]] = {}
        for pairing in all_matchings(tuple(range(2 * n))):
            m = polygon_map(pairing, n)
            by_genus.setdefault(corner_genus(m), []).append(m.alpha)
        hits: Counter = Counter()
        for h, maps in by_genus.items():
            for alpha in maps:
                corners = vertex_corners(alpha)
                for p in range(1, (len(corners) - 1) // 2 + 1):
                    for chosen in itertools.combinations(corners, 2 * p + 1):
                        glued = tuple(glue_corners(alpha, chosen))
                        hits[glued] += 1
                        assert corner_genus(polygon_map(_pairs(glued), n)) == h + p
        expected = {a: 2 * g for g, maps in by_genus.items() if g for a in maps}
        assert hits == expected


def _relabelling_sample(n: int, g: int, rng: random.Random):
    """The fixed-genus sampler on the oracle's steps: the same draws through
    the package's own functions, then each genus step ranks the vertices
    and relabels every dart (`vertex_corners`, `glue_corners`)."""
    steps = _genus_steps(n, g, rng)
    alpha = dyck_partners(sample_dyck_word(n, rng))
    for p in reversed(steps):
        corners = vertex_corners(alpha)
        chosen = sorted(rng.sample(range(len(corners)), 2 * p + 1))
        alpha = glue_corners(alpha, [corners[i] for i in chosen])
    return polygon_map(_pairs(alpha), n)


def test_fixed_genus_sampler_replays_the_relabelling_steps():
    # every (n, g) with n <= 60, g = 0 and n // 2 included, four seeds each
    cases = [(n, g, s) for n in range(1, 61) for g in range(n // 2 + 1) for s in range(4)]
    assert len(cases) >= 3000
    for n, g, s in cases:
        seed = f"replay:{n}:{g}:{s}"
        expected = _relabelling_sample(n, g, random.Random(seed))
        assert sample_unicellular_fixed_genus(n, g, random.Random(seed)) == expected, (n, g, s)


# sha256 of the six n = 1000 samples below, each encode_map line ending in
# "\n", as `_relabelling_sample` draws them
FIXED_GENUS_1000_SHA256 = "150325a52242158b8aa549fac89349eb6891c2e809a641cabbc46c9ff3d87486"


def test_fixed_genus_sampler_replays_the_relabelling_steps_at_1000():
    digest = hashlib.sha256()
    for g in (400, 100):
        for seed in range(3):
            m = sample_unicellular_fixed_genus(1000, g, random.Random(seed))
            assert m == _relabelling_sample(1000, g, random.Random(seed)), (g, seed)
            digest.update(encode_map(m).encode() + b"\n")
    assert digest.hexdigest() == FIXED_GENUS_1000_SHA256


def test_fixed_genus_sampler_chi_square_at_5_2():
    # 483 genus-2 maps with 5 edges, 20,000 draws; 644 is about the
    # 1e-6 upper quantile of chi-square with 482 degrees of freedom
    gluings = [polygon_map(p, 5) for p in all_matchings(tuple(range(10)))]
    classes = [m.alpha for m in gluings if corner_genus(m) == 2]
    assert len(classes) == harer_zagier_table(5)[(5, 2)] == 483
    rng = random.Random("chi2:5:2")
    draws = 20_000
    counts = Counter(sample_unicellular_fixed_genus(5, 2, rng).alpha for _ in range(draws))
    assert set(counts) == set(classes)
    expect = draws / len(classes)
    stat = sum((counts[c] - expect) ** 2 / expect for c in classes)
    assert stat < 644


def test_fixed_genus_sampler_matches_rejection_oracle():
    # two-sample chi-square over the 70 tori with 4 edges; 140 is about
    # the 1e-6 upper quantile with 69 degrees of freedom
    draws = 7000
    rng = random.Random("trisection")
    ours = Counter(sample_unicellular_fixed_genus(4, 1, rng).alpha for _ in range(draws))
    rng = random.Random("rejection")
    theirs = Counter(rejection_fixed_genus(4, 1, rng).alpha for _ in range(draws))
    assert set(ours) == set(theirs)
    assert len(ours) == harer_zagier_table(4)[(4, 1)]
    stat = sum((ours[c] - theirs[c]) ** 2 / (ours[c] + theirs[c]) for c in ours)
    assert stat < 140


class _UncalledRng:
    """An rng stand-in that fails if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the arguments were checked")


@pytest.mark.parametrize(
    "sampler, args",
    [
        pytest.param(sampler, args, id=f"{sampler.__name__}{args}")
        for sampler, args in [
            (sample_unicellular_fixed_genus, (5.0, 2)),
            (sample_unicellular_fixed_genus, (6, 1.0)),
            (sample_unicellular_fixed_genus, (True, 0)),
            (sample_unicellular_fixed_genus, (6, True)),
            (sample_polygon_gluing, (2.0,)),
            (sample_polygon_gluing, (True,)),
            (sample_pairing, (4.0,)),
            (sample_pairing, (True,)),
        ]
    ],
)
def test_samplers_refuse_float_and_bool_sizes(sampler, args):
    # a float size used to raise TypeError from range(), and a bool one
    # sampled as 0 or 1
    with pytest.raises(ParameterError, match="int"):
        sampler(*args, _UncalledRng())


def test_fixed_genus_sampler_rejects_bad_genus():
    rng = random.Random(1)
    with pytest.raises(ParameterError):
        sample_unicellular_fixed_genus(5, 3, rng)  # 2g > n
    with pytest.raises(ParameterError):
        sample_unicellular_fixed_genus(4, -1, rng)
    with pytest.raises(ParameterError):
        sample_unicellular_fixed_genus(0, 0, rng)


def test_degree_sequence_validation():
    with pytest.raises(ParameterError):
        DegreeSequence((2, 3, 3))
    with pytest.raises(ParameterError):
        DegreeSequence(())
    d = DegreeSequence((3, 3, 4, 4))
    assert d.total == 14 and d.k == 4
    assert d.admits_unicellular  # 7 + 4 = 11 odd


@pytest.mark.parametrize(
    "entries", [(3.0, 3.0, 4.0), (4.5, 3.5), (3, True, 4), (3, 3, 4.0)], ids=repr
)
def test_degree_sequence_refuses_non_int_degrees(entries):
    # a float or bool degree used to reach block_rotation's range() as a TypeError
    with pytest.raises(ParameterError, match="degree must be an int >= 3"):
        DegreeSequence(entries)


def test_degree_sequence_parity_rule():
    # total/2 + k must be odd
    assert DegreeSequence((3, 3)).admits_unicellular  # 3 + 2 = 5
    assert not DegreeSequence((3, 3, 3, 3)).admits_unicellular  # 6 + 4 = 10
    assert not DegreeSequence((3, 3, 4)).admits_unicellular  # 5 + 3, odd total


def test_configuration_model_respects_degrees():
    rng = random.Random(9)
    d = DegreeSequence((3, 3, 4, 4))
    for _ in range(50):
        m = sample_configuration_model(d, rng)
        assert m.n_darts == d.total
        # rotations are fixed blocks, so degrees survive exactly
        assert vertex_degrees(m) == tuple(sorted(d.entries))


def test_configuration_model_accepts_plain_sequences():
    rng = random.Random(2)
    m = sample_configuration_model((3, 3), rng)
    assert m.n_darts == 6


@pytest.mark.parametrize("degrees", [(1, 1), (2, 3, 3), (), (3, 4)])
def test_configuration_model_checks_degrees_as_a_degree_sequence(degrees):
    # the degree rule of DegreeSequence, plus an even degree sum
    with pytest.raises(ParameterError):
        sample_configuration_model(degrees, random.Random(0))


def test_branch_size_sampler_tables_match_closed_forms():
    def mean(cum):
        return sum(k * (cum[k] - cum[k - 1]) for k in range(1, len(cum)))

    for beta in (0.05, 0.1, 0.2, 0.24):
        plain, marked = _branch_size_tables(beta)
        # the draw bisects for u in (0, 1), so it never runs off the end
        assert plain[0] == marked[0] == 0.0 and plain[-1] == marked[-1] == 1.0
        assert mean(plain) == pytest.approx(expected_plain_size(beta), abs=1e-10)
        assert mean(marked) == pytest.approx(expected_marked_size(beta), abs=1e-10)


def test_sample_branch_size_laws_differ_correctly():
    # the marked law is the size-biased plain law; check frequency ratios
    rng = random.Random(7)
    beta = 0.15
    draws = 20000
    plain = Counter(sample_branch_size("Y", beta, rng) for _ in range(draws))
    marked = Counter(sample_branch_size("X", beta, rng) for _ in range(draws))
    assert min(plain) == 1 and min(marked) >= 1
    # P_X(k) proportional to k * P_Y(k): compare k=1 vs k=2 odds
    odds_plain = plain[2] / plain[1]
    odds_marked = marked[2] / marked[1]
    assert odds_marked == pytest.approx(2 * odds_plain, rel=0.15)
    with pytest.raises(ParameterError):
        sample_branch_size("Z", beta, rng)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), st.randoms(use_true_random=False))
def test_gluing_sampler_shape_property(n, rng):
    m = sample_polygon_gluing(n, rng)
    assert m.n_darts == 2 * n
    assert m.root == 0
    assert m.n_faces() == 1
