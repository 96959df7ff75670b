from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import unimap.census
import unimap.core
import unimap.experiments
import unimap.parallel
import unimap.transfer
from unimap.census import _least_chord_first, census_chunks, turn_classes
from unimap.core import _Segments, branch_size_profile, core, core_less_M, reconstruct
from unimap.errors import DecompositionError, EnumerationCapError, ParameterError, UnimapError
from unimap.expansion import wilson_interval
from unimap.experiments import (
    ExperimentConfig,
    ExperimentReport,
    _as_pair,
    _branch_profile_law,
    _cheeger_or_none,
    _cm_map_is_unicellular,
    _d_power_coefficient,
    min_degree3_census,
    persist_report,
    profile_census,
    run_core_expander_experiment,
    verify_branch_profile_law,
    verify_cm_unicellular,
    verify_decomposition_identity,
    verify_one_vertex_law,
    verify_substitution_transfer,
)
from unimap.maps import CombinatorialMap, from_polygon_gluing
from unimap.samplers import (
    block_rotation,
    double_factorial_odd,
    enumerate_pairings,
    sample_branch_size,
    sample_unicellular_fixed_genus,
)
from unimap.series import derive_constants

from .oracles import (
    branch_profile_law,
    c_times_d_power,
    chord_word_starts_least,
    core_less_M_by_reconstruct,
    harer_zagier_table,
    min_degree3_counts,
    rooting_tally_by_counter,
)


def test_config_validation_and_digest():
    cfg = ExperimentConfig("demo", {"n": 4})
    assert cfg.digest() == ExperimentConfig("demo", {"n": 4}).digest()
    other = ExperimentConfig("demo", {"n": 5})
    assert cfg.digest() != other.digest()
    # the mode is read off the parameters: a seed makes a run Monte Carlo
    assert cfg.mode == "exact"
    seeded = ExperimentConfig("demo", {"n": 4, "seed": 7})
    assert seeded.mode == "monte-carlo"
    assert json.loads(seeded.canonical_json())["mode"] == "monte-carlo"
    with pytest.raises(ParameterError):
        ExperimentConfig("demo", {"seed": "7"})  # seed must be an int
    with pytest.raises(ParameterError):
        ExperimentConfig("demo", {"seed": None})
    with pytest.raises(ParameterError):  # True would be written as true
        ExperimentConfig("demo", {"seed": True})


def test_report_payload_excludes_runtime():
    cfg = ExperimentConfig("demo", {"n": 4})
    a = ExperimentReport(cfg, {"x": 1}, {}, "pass", runtime_s=1.0)
    b = ExperimentReport(cfg, {"x": 1}, {}, "pass", runtime_s=9.9)
    assert a.payload_json() == b.payload_json()
    assert a.to_dict()["meta"]["runtime_s"] == 1.0
    with pytest.raises(ParameterError):
        ExperimentReport(cfg, {}, {}, "maybe")


def test_report_serializes_fractions_exactly():
    cfg = ExperimentConfig("demo", {})
    r = ExperimentReport(cfg, {"p": Fraction(1, 3)}, {}, "pass")
    assert '"1/3"' in r.payload_json()


def test_report_refuses_a_value_json_cannot_write():
    report = ExperimentReport(ExperimentConfig("demo", {}), {"s": {1, 2}}, {}, "pass")
    with pytest.raises(ParameterError, match="type set is not serializable"):
        report.payload_json()
    with pytest.raises(ParameterError, match="type set is not serializable"):
        ExperimentConfig("demo", {"s": {1, 2}}).digest()


@pytest.mark.parametrize("n", range(2, 7))
def test_profile_census_covers_every_pairing(n):
    census = profile_census(n)
    assert sum(census.values()) == double_factorial_odd(n)
    table = harer_zagier_table(6)
    by_genus: dict[int, int] = {}
    for (g, _e, _m, _o), cnt in census.items():
        by_genus[g] = by_genus.get(g, 0) + cnt
    for g, cnt in by_genus.items():
        assert cnt == table[(n, g)]


def test_profile_census_cap(monkeypatch):
    def no_gluing(*args):
        raise AssertionError("a gluing was built past the cap")

    # the cap is checked before any work
    monkeypatch.setattr(unimap.census, "from_polygon_gluing", no_gluing)
    with pytest.raises(EnumerationCapError):
        profile_census(9)


@pytest.mark.parametrize("n", (0, -1, 9, 2.0, True), ids=repr)
def test_census_refuses_a_bad_n_before_any_work(monkeypatch, n):
    def no_work(*args):
        raise AssertionError("work started for a bad n")

    monkeypatch.setattr(unimap.census, "from_polygon_gluing", no_work)
    monkeypatch.setattr(unimap.parallel, "fork_map", no_work)
    error = EnumerationCapError if n == 9 else ParameterError
    with pytest.raises(error):
        profile_census.__wrapped__(n)
    with pytest.raises(error):
        min_degree3_census.__wrapped__(n)


@cache
def _single_walk(n: int) -> dict:
    """The census as one walk over all pairings in this process."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(unimap.census, "census_chunks", lambda n: iter([()]))
        return profile_census.__wrapped__(n)


@pytest.mark.parametrize("n", (6, 7))
@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_census_shares_match_a_single_walk(monkeypatch, n, cpus):
    single = _single_walk(n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    shared = profile_census.__wrapped__(n)
    assert list(shared.items()) == list(single.items())  # key order included
    assert list(shared) == sorted(shared)
    with pytest.raises(ChildProcessError):  # no child is left behind
        os.waitpid(-1, os.WNOHANG)


def test_census_key_order_reaches_no_payload(monkeypatch):
    from perfbench.workloads import CENSUS_N, CENSUS_PAYLOAD_SHA256

    one_vertex = verify_one_vertex_law().payload_json()
    monkeypatch.setattr(
        unimap.experiments, "profile_census", lambda n: dict(reversed(profile_census(n).items()))
    )
    monkeypatch.setattr(unimap.experiments, "min_degree3_census", min_degree3_census.__wrapped__)
    assert verify_one_vertex_law().payload_json() == one_vertex
    for (claim, g), digest in CENSUS_PAYLOAD_SHA256.items():
        check = {
            "decomposition-identity": verify_decomposition_identity,
            "branch-profile": verify_branch_profile_law,
        }[claim]
        payload = check(CENSUS_N, g).payload_json()
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, (claim, g)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_census_shares_cover_every_chunk_once(monkeypatch, tmp_path, k):
    # each walk, in whichever process, appends its prefix and pid to a file
    log = tmp_path / "walked"

    def record(n, prefix, built):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {json.dumps(prefix)}\n")
        built.append(0)
        return iter(())

    monkeypatch.setattr(unimap.census, "turn_classes", record)
    monkeypatch.setattr(unimap.experiments, "double_factorial_odd", lambda n: 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    assert profile_census.__wrapped__(7) == {}
    lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
    walked = [tuple(map(tuple, json.loads(prefix))) for _, prefix in lines]
    chunks = list(census_chunks(7))
    assert len(chunks) == 13 * 11
    assert sorted(walked) == sorted(chunks) and len(set(walked)) == len(chunks)
    assert len({pid for pid, _ in lines}) == k


def test_census_chunks_cut_the_enumeration_in_order():
    chunks = list(census_chunks(6))
    assert len(chunks) == 11 * 9
    pairings = list(enumerate_pairings(6))
    assert list(dict.fromkeys(p[:2] for p in pairings)) == chunks
    # the chunks' walks, one after another, are the whole walk
    assert [p for c in chunks for p in enumerate_pairings(6, c)] == pairings
    assert list(census_chunks(5)) == [()]


def test_census_raises_unless_every_gluing_is_built(monkeypatch):
    # a share that builds one gluing too few, in a forked child as well
    def one_short(n, prefix, built):
        yield from turn_classes(n, prefix, built)
        built[-1] -= 1

    monkeypatch.setattr(unimap.census, "turn_classes", one_short)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="built"):
        profile_census.__wrapped__(6)


def _turned(pairing, r: int, n: int) -> tuple[tuple[int, int], ...]:
    """The gluing turned by r: dart d becomes d - r mod 2n."""
    return tuple(((a - r) % (2 * n), (b - r) % (2 * n)) for a, b in pairing)


@pytest.mark.parametrize("n", range(1, 7))
def test_turn_classes_partition_every_gluing(n):
    # covers periods below 2n too, such as ((0, 2), (1, 3)) with p = 1
    seen = []
    for m, period in turn_classes(n):
        pairing = tuple((d, a) for d, a in enumerate(m.alpha) if d < a)
        members = {from_polygon_gluing(_turned(pairing, r, n), n) for r in range(2 * n)}
        assert len(members) == period
        seen.extend(members)
    assert len(seen) == len(set(seen)) == double_factorial_odd(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_chord_filter_matches_the_least_letter_of_the_word(n):
    for pairing in enumerate_pairings(n):
        assert _least_chord_first(pairing, 2 * n) == chord_word_starts_least(pairing, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_rooting_tally_matches_every_rooting_of_a_class(n):
    # classes with p < 2n, such as ((0, 2), (1, 3)) with p = 1, included
    short = 0
    for m, period in turn_classes(n):
        if m.n_vertices() == n + 1:  # a plane tree has no core
            continue
        segs = _Segments(m)
        tally = {(b, others): k for b, others, k in segs.rootings(period)}
        assert tally == Counter(segs.profile(r) for r in range(period))
        short += period < 2 * n
    assert short > 0


def test_class_tally_matches_the_counter_tally_on_every_class():
    # every class of turns with n <= 7: the sizes read off `cut` and
    # `mate` against the branches' contours, and the run-by-run tally
    # against the Counter-based one, triple by triple in the same order
    classes = 0
    for n in range(1, 8):
        for m, period in turn_classes(n):
            if m.n_vertices() == n + 1:  # a plane tree has no core
                continue
            segs = _Segments(m)
            sizes = segs.sizes()
            contours = [len(segs.branch(j)[0]) // 2 for j, k in enumerate(segs.mate) if j < k]
            assert sizes == sorted(contours)
            assert list(segs.rootings(period)) == rooting_tally_by_counter(sizes, 2 * n, period)
            classes += 1
    assert classes == 10_721  # positive-genus classes for n = 2..7


def test_rooting_tally_refuses_an_inexact_share():
    # a turn by one dart is no automorphism of a map with branches of two
    # sizes: 1/6 of the size-1 branch's 2 darts is no count
    segs = _Segments(from_polygon_gluing(((0, 2), (1, 4), (3, 5)), 3))
    assert segs.sizes() == [1, 2]
    with pytest.raises(ArithmeticError):
        list(segs.rootings(1))


def test_profile_census_builds_every_gluing(monkeypatch):
    # every pairing is built, and so validated, not only the representatives
    built = []

    def counting(pairing, n):
        built.append(pairing)
        return from_polygon_gluing(pairing, n)

    monkeypatch.setattr(unimap.census, "from_polygon_gluing", counting)
    profile_census.__wrapped__(4)
    assert len(built) == len(set(built)) == 105


@pytest.mark.parametrize("n", range(2, 7))
def test_profile_census_matches_one_decomposition_per_gluing(n):
    slow: Counter = Counter()
    for pairing in enumerate_pairings(n):
        m = from_polygon_gluing(pairing, n)
        g = (n + 1 - m.n_vertices()) // 2
        if g == 0:
            slow[(0, 0, 0, ())] += 1
            continue
        marked, others = branch_size_profile(m)
        slow[(g, 1 + len(others), marked, others)] += 1
    assert profile_census.__wrapped__(n) == dict(slow)


@pytest.mark.parametrize("n", range(2, 6))
def test_segments_profile_rerooted_matches_the_turned_gluing(n):
    for pairing in enumerate_pairings(n):
        m = from_polygon_gluing(pairing, n)
        if m.n_vertices() == n + 1:  # a plane tree has no core
            continue
        segs = _Segments(m)
        for r in range(2 * n):
            turned = from_polygon_gluing(_turned(pairing, r, n), n)
            assert segs.profile(r) == branch_size_profile(turned)


def test_profile_census_7_is_pinned():
    digest = hashlib.sha256(repr(sorted(profile_census(7).items())).encode()).hexdigest()
    assert digest == "22878430b4863f8b28d12877eb3f50fac18fdee9857776717f72844264b141f3"


def test_min_degree3_census_spot_values():
    # 2 edges: only the one-vertex torus gluing has min degree 3
    assert min_degree3_census(2) == {1: 1}
    # 3 edges, genus 1, two degree-3 vertices: exactly one rooted map;
    # plus the genus-0 triple star... which has a degree-3 center but
    # leaves of degree 1, so no genus-0 entry survives
    assert min_degree3_census(3).get(1, 0) == 1
    assert 0 not in min_degree3_census(3)
    assert sum(min_degree3_census(4).values()) > 0


@pytest.mark.parametrize("e", range(1, 7))
def test_min_degree3_census_matches_degree_enumeration(e):
    assert min_degree3_census(e) == min_degree3_counts(e)


def test_one_vertex_law_passes():
    r = verify_one_vertex_law((2, 4))
    assert r.verdict == "pass"
    assert r.observed["p=2"]["probability"] == Fraction(1, 3)
    assert r.expected["p=2"]["probability"]["source"] == "closed-form"
    with pytest.raises(ParameterError):
        verify_one_vertex_law((3,))
    with pytest.raises(EnumerationCapError):
        verify_one_vertex_law((10,))
    with pytest.raises(ParameterError, match="repeats"):
        verify_one_vertex_law((2, 2))


def _no_census(monkeypatch) -> None:
    def no_census(*args):
        raise AssertionError("a census started for bad parameters")

    monkeypatch.setattr(unimap.experiments, "profile_census", no_census)
    monkeypatch.setattr(unimap.experiments, "min_degree3_census", no_census)


def test_one_vertex_law_refuses_a_non_int_p_before_any_census(monkeypatch):
    _no_census(monkeypatch)
    with pytest.raises(ParameterError, match="p must be an int >= 2, got 4.0"):
        verify_one_vertex_law((4.0,))


@pytest.mark.parametrize(
    "degrees,one_face", [((4, 4, 4), 1440), ((3, 4, 5), 1440), ((3, 3, 6), 1350)]
)
def test_cm_face_walk_matches_built_maps(degrees, one_face):
    sigma = block_rotation(degrees)
    hits = 0
    for pairing in enumerate_pairings(len(sigma) // 2):
        alpha = [0] * len(sigma)
        for a, b in pairing:
            alpha[a], alpha[b] = b, a
        slow = CombinatorialMap(alpha, sigma, 0).n_faces() == 1
        assert _cm_map_is_unicellular(pairing, sigma) == slow
        hits += slow
    assert hits == one_face


# Payload sha256 of two seeded runs.  They hold while the pairing sampler
# and the core's face-order labelling keep their streams.
@pytest.mark.parametrize(
    "run,digest",
    [
        (
            lambda: verify_cm_unicellular((3,) * 6, trials=4000, seed=13),
            "894c0cfa3390a7631af6470d2129f36148d7cfab93c883cc1ce3657d24aa9ef6",
        ),
        (
            lambda: run_core_expander_experiment(0.4, 0.1, (30, 40), trials=5, seed=1),
            "1a67069efa5e6ed7cb5e16003159a54e8f48a73e1d3f6b4305a2de44dfc610c8",
        ),
    ],
    ids=["cm-unicellular", "core-expander"],
)
def test_seeded_payloads_are_pinned(run, digest):
    assert hashlib.sha256(run().payload_json().encode()).hexdigest() == digest


def _branch_size_draws():
    rng = random.Random("pin:branch-sizes")
    return [
        sample_branch_size(law, beta, rng)
        for beta in (0.05, 0.1, 0.2, 0.24)
        for law in ("X", "Y")
        for _ in range(250)
    ]


# The grid steps of the delta search, the bisection tolerance, the branch-size
# truncation mass and the Wilson quantile are constants; these pin what they feed.
@pytest.mark.parametrize(
    "run,digest",
    [
        (
            lambda: [asdict(derive_constants(t, 0.1)) for t in (0.1, 0.2, 0.3, 0.4, 0.45)],
            "7c8de47e84a846fcfb3bd5e7006bb891f1101d27fe002a03a088549c99e1e5af",
        ),
        (
            _branch_size_draws,
            "d4c2635becc60802febe3499ffd3f369e6e3b6618b8c686e8f57a97c2675088b",
        ),
        (
            lambda: [wilson_interval(s, 100) for s in range(101)],
            "9a144461eb48da49c007c7a0879c61c635ee363f8e16a1bdd2d7b1099c4db5e1",
        ),
    ],
    ids=["derive-constants", "branch-sizes", "wilson-interval"],
)
def test_constant_outputs_are_pinned(run, digest):
    text = json.dumps(run(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("degrees", [(3.0, 3.0, 4.0), (4.5, 3.5), (3, 3, True)], ids=repr)
def test_cm_unicellular_refuses_non_int_degrees(degrees):
    with pytest.raises(ParameterError):
        verify_cm_unicellular(degrees)


def test_cm_unicellular_exact_small():
    r = verify_cm_unicellular((3, 3))
    assert r.verdict == "pass"
    assert r.observed["probability"] == Fraction(1, 5)
    assert r.config.mode == "exact"


def test_cm_unicellular_parity_flag():
    r = verify_cm_unicellular((3, 3, 3, 3))
    assert r.observed["probability"] == 0
    assert "parity" in r.observed["note"]


def test_cm_unicellular_monte_carlo_requires_seed():
    with pytest.raises(ParameterError):
        verify_cm_unicellular((3, 3, 3, 3, 3, 3), trials=100)


@pytest.mark.parametrize("trials,seed", [(True, 1), (2.0, 1), (100, True)], ids=repr)
def test_cm_unicellular_refuses_bad_monte_carlo_parameters_before_sampling(
    monkeypatch, trials, seed
):
    def no_sample(*args):
        raise AssertionError("sampled with bad parameters")

    monkeypatch.setattr(unimap.experiments, "sample_pairing", no_sample)
    with pytest.raises(ParameterError):
        verify_cm_unicellular((3,) * 6, trials=trials, seed=seed)


def test_cm_unicellular_monte_carlo_deterministic():
    d = (3, 3, 3, 3, 3, 3)
    a = verify_cm_unicellular(d, trials=2000, seed=5)
    b = verify_cm_unicellular(d, trials=2000, seed=5)
    assert a.payload_json() == b.payload_json()
    assert a.config.mode == "monte-carlo"
    assert a.verdict in ("pass", "informational")


def test_cm_unicellular_monte_carlo_is_informational_when_its_interval_holds_the_floor():
    # 18 darts, so n = 9 and the floor is 1/54; the 99% Wilson interval of
    # 30 trials is too wide to fall on one side of it
    r = verify_cm_unicellular((3,) * 6, trials=30, seed=1)
    assert r.observed["wilson_99_low"] < 1 / 54 <= r.observed["wilson_99_high"]
    assert r.verdict == "informational"


def test_cm_unicellular_monte_carlo_fails_when_its_interval_ends_below_the_floor(monkeypatch):
    monkeypatch.setattr(unimap.experiments, "_cm_map_is_unicellular", lambda *args: False)
    r = verify_cm_unicellular((3,) * 6, trials=1000, seed=1)
    assert r.observed["probability"] == 0
    assert r.observed["wilson_99_high"] < 1 / 54
    assert r.verdict == "fail"


@pytest.mark.parametrize("n,g", [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3)])
def test_decomposition_identity_small(n, g):
    r = verify_decomposition_identity(n, g)
    assert r.verdict == "pass"
    assert r.observed["cores_with_e_edges"] == r.expected["cores_with_e_edges"]["value"]


def test_d_power_coefficient_closed_form_matches_series_products():
    for n in range(31):
        for power in range(12):
            assert _d_power_coefficient(n, power) == c_times_d_power(n, power), (n, power)


@pytest.mark.parametrize("check", (verify_decomposition_identity, verify_branch_profile_law))
@pytest.mark.parametrize("n,g", [(6, 1.5), (6, True), (6.0, 1)], ids=repr)
def test_exact_claims_refuse_a_non_int_n_or_g_before_any_census(monkeypatch, check, n, g):
    # 1.5 used to pass over an empty comparison, and True to write "g":true
    _no_census(monkeypatch)
    with pytest.raises(ParameterError, match="must be an int"):
        check(n, g)


def test_decomposition_identity_validation():
    with pytest.raises(EnumerationCapError):
        verify_decomposition_identity(9, 1)
    with pytest.raises(ParameterError):
        verify_decomposition_identity(6, 0)


@pytest.mark.parametrize("n,g", [(4, 1), (5, 1), (6, 2)])
def test_branch_profile_law_small(n, g):
    r = verify_branch_profile_law(n, g)
    assert r.verdict == "pass"
    assert r.observed["beta_independent"] is True


@pytest.mark.parametrize("n", range(2, 9))
def test_branch_profile_law_matches_the_recursive_walk(n):
    for e in range(1, n + 1):
        for beta in (Fraction(1, 10), Fraction(2, 10)):
            assert _branch_profile_law(n, e, beta) == branch_profile_law(n, e, beta), (e, beta)


def test_substitution_transfer_small_run():
    r = verify_substitution_transfer(instances=40, seed=3)
    assert r.verdict == "pass"
    assert r.observed["violations"] == 0


def _transfer_on(monkeypatch, cpus: int, **params) -> ExperimentReport:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    report = verify_substitution_transfer(**params)
    with pytest.raises(ChildProcessError):  # no child is left behind
        os.waitpid(-1, os.WNOHANG)
    return report


@pytest.mark.parametrize("instances", (1, 2, 7, 500))
@pytest.mark.parametrize("seed", (0, 13))
def test_transfer_shares_match_one_share(monkeypatch, seed, instances):
    payloads = [
        _transfer_on(monkeypatch, cpus, instances=instances, seed=seed).payload_json()
        for cpus in (1, 2, 3)
    ]
    assert payloads[1:] == payloads[:1] * 2


@pytest.mark.parametrize("instances", (7, 500))
def test_transfer_shares_add_their_violations(monkeypatch, instances):
    # a check that fails on every two-vertex base graph, in forked shares too
    check = unimap.transfer.branch_substitution_transfer_check

    def failing_on_two(h_graph, m_cap, rng):
        return check(h_graph, m_cap, rng) and h_graph.n_vertices != 2

    monkeypatch.setattr(unimap.transfer, "branch_substitution_transfer_check", failing_on_two)
    reports = [_transfer_on(monkeypatch, cpus, instances=instances, seed=13) for cpus in (1, 2, 3)]
    one = reports[0].observed["violations"]
    assert one > 0
    for r in reports:
        assert r.observed["violations"] == one
        assert r.verdict == "fail"


@pytest.mark.parametrize(
    "params",
    [
        {"instances": 2.5},
        {"instances": True},
        {"instances": 0},
        {"max_h_vertices": 3.0},
        {"max_h_vertices": True},
        {"max_h_vertices": 1},
        {"max_m": 1.5},
        {"max_m": True},
        {"max_m": 0},
        {"seed": True},
        {"seed": 1.5},
        {"seed": "1"},
    ],
    ids=repr,
)
def test_transfer_refuses_bad_parameters_before_any_share(monkeypatch, params):
    def no_work(*args):
        raise AssertionError("a share started for bad parameters")

    monkeypatch.setattr(unimap.parallel, "fork_map", no_work)
    with pytest.raises(ParameterError):
        verify_substitution_transfer(**params)


def test_transfer_error_is_the_same_under_every_split(monkeypatch):
    # instance 1 draws a base graph past the exact cap, in a forked share
    # under two CPUs and in this process under one
    for cpus in (1, 2, 3):
        with pytest.raises(UnimapError) as info:
            _transfer_on(monkeypatch, cpus, instances=2, max_h_vertices=30, max_m=1, seed=99)
        assert type(info.value) is EnumerationCapError
        assert str(info.value) == "28 vertices exceeds the exact cap 24"
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)


def test_core_expander_experiment_shape():
    r = run_core_expander_experiment(0.4, 0.1, (20,), trials=2, seed=1)
    assert r.verdict == "informational"
    obs = r.observed["n=20"]
    assert obs["g"] == 8
    assert obs["transfer_violations"] == 0
    assert Fraction(obs["min_h_core"]) > 0
    quantities = {row["quantity"] for row in r.data}
    assert "min_h_core" in quantities
    assert any(q.startswith("edge_fraction[M=") for q in quantities)


def test_core_expander_refuses_a_repeated_n():
    # a repeated n would write every curve point twice but keep one row
    with pytest.raises(ParameterError, match="repeats"):
        run_core_expander_experiment(0.4, 0.1, (20, 20), trials=2, seed=3)


@pytest.mark.parametrize(
    "n_list,trials",
    [((12,), True), ((12,), 2.0), ((12.0,), 2), ((12, True), 2)],
    ids=repr,
)
def test_core_expander_refuses_non_int_counts_before_sampling(monkeypatch, n_list, trials):
    def no_sample(*args):
        raise AssertionError("sampled with bad counts")

    monkeypatch.setattr(unimap.experiments, "sample_unicellular_fixed_genus", no_sample)
    with pytest.raises(ParameterError, match="must be an int"):
        run_core_expander_experiment(0.4, 0.1, n_list, trials, 0)


@pytest.mark.parametrize("n_list,trials", [((), 2), ((12,), 0)], ids=repr)
def test_core_expander_refuses_no_n_or_no_trial_before_sampling(monkeypatch, n_list, trials):
    def no_sample(*args):
        raise AssertionError("sampled with no n or no trial")

    monkeypatch.setattr(unimap.experiments, "sample_unicellular_fixed_genus", no_sample)
    text = "trials must be an int >= 1, got 0" if n_list else "need at least one n"
    with pytest.raises(ParameterError, match=text):
        run_core_expander_experiment(0.4, 0.1, n_list, trials, 0)


@pytest.mark.parametrize("n_list", [(1,), (0,), (-3,), (20, 1)], ids=repr)
def test_core_expander_refuses_an_infeasible_n_before_any_trial(monkeypatch, n_list):
    def no_work(*args):
        raise AssertionError("a trial started for an infeasible n")

    monkeypatch.setattr(unimap.parallel, "fork_map", no_work)
    n = n_list[-1]
    text = f"n={n} edges and genus g=" if n >= 1 else f"n must be an int >= 1, got {n}"
    with pytest.raises(ParameterError, match=text):
        run_core_expander_experiment(0.4, 0.1, n_list, 2, 0)


@pytest.mark.parametrize("bad", ["0.4", None, 0.4j], ids=repr)
def test_core_expander_refuses_a_non_real_theta(bad):
    with pytest.raises(ParameterError, match="theta must be a real number"):
        run_core_expander_experiment(bad, 0.1, (20,), 1, 0)


def test_core_expander_decomposes_each_sample_once(monkeypatch):
    # a trial walks its sample's face once, in `core_and_branch_sizes`, and
    # trims with `core_less_M` only when some branch has at least M = 102
    # edges, which no sample with 12 or 16 edges has
    walks, calls = [], []
    face_tour = unimap.core.face_tour
    monkeypatch.setattr(unimap.core, "face_tour", lambda m: walks.append(m) or face_tour(m))
    monkeypatch.setattr(unimap.experiments, "core_less_M", lambda m, M: calls.append(m))
    # a forked share's calls never reach these lists, so one share runs them all
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    run_core_expander_experiment(0.4, 0.1, (12, 16), trials=3, seed=2)
    assert len(walks) == 6 and calls == []


def _record_by_branch_trees(m, M: int, m_grid: list[int]) -> tuple:
    """A trial's record read off every branch tree of ``core(m)`` and
    trimmed by `reconstruct`, as `_sample_record` read it before it took
    the core and the trim from face walks."""
    dec = core(m)
    sizes = [b.n_edges for b in dec.branches]
    trimmed = m if max(sizes) < M else core_less_M_by_reconstruct(dec, M, reconstruct)
    return (
        _as_pair(_cheeger_or_none(dec.core, "the core")),
        _as_pair(_cheeger_or_none(trimmed, "the core less M")),
        tuple(sum(b if b < mm else 1 for b in sizes) for mm in m_grid),
    )


def test_core_expander_records_with_a_small_m_match_the_branch_trees(monkeypatch):
    # with M = 3 most samples have a branch to collapse, so `core_less_M` runs
    real_sample = unimap.experiments.sample_unicellular_fixed_genus
    real_record = unimap.experiments._sample_record
    samples, records, calls = [], [], []

    def sample(n, g, rng):
        samples.append(real_sample(n, g, rng))
        return samples[-1]

    def record(seed, M, m_grid, unit):
        records.append((M, m_grid, real_record(seed, M, m_grid, unit)))
        return records[-1][2]

    monkeypatch.setattr(
        unimap.experiments, "derive_constants", lambda *a: replace(derive_constants(*a), M=3)
    )
    monkeypatch.setattr(unimap.experiments, "sample_unicellular_fixed_genus", sample)
    monkeypatch.setattr(unimap.experiments, "_sample_record", record)
    monkeypatch.setattr(
        unimap.experiments, "core_less_M", lambda m, M: calls.append(m) or core_less_M(m, M)
    )
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    report = run_core_expander_experiment(0.4, 0.1, (12, 16, 30), trials=4, seed=5)
    assert report.expected["M"]["value"] == 3
    assert len(samples) == len(records) == 12
    assert 0 < len(calls) <= 12
    for m, (M, m_grid, rec) in zip(samples, records):
        assert M == 3 and rec == _record_by_branch_trees(m, M, m_grid)


def _core_expander_on(monkeypatch, cpus: int, *args) -> ExperimentReport:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    try:
        return run_core_expander_experiment(0.4, 0.1, *args)
    finally:
        with pytest.raises(ChildProcessError):  # no child is left behind
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "args",
    [((12, 16), 3, 2), ((30, 40, 50, 60), 5, 20260816)],
    ids=["small", "criterion-11"],
)
def test_core_expander_shares_match_one_share(monkeypatch, args):
    payloads = [_core_expander_on(monkeypatch, cpus, *args).payload_json() for cpus in (1, 2, 3)]
    assert payloads[1:] == payloads[:1] * 2


# Payload sha256 of the benchmark's core-expander shape, (30, 40, 50, 60)
# x 40 trials, at seed 1; it holds while every trial keeps its stream.
def test_core_expander_at_benchmark_scale_is_pinned(monkeypatch):
    digest = "e3207fb8ffed9a1b4c8235b517e6e6146c9ccbc2c9fba8b5997acfd9785bacc8"
    for cpus in (1, 2):
        report = _core_expander_on(monkeypatch, cpus, (30, 40, 50, 60), 40, 1)
        assert hashlib.sha256(report.payload_json().encode()).hexdigest() == digest, cpus


def _core_expander_error(monkeypatch, cpus: int, *args) -> tuple[type, str]:
    with pytest.raises(UnimapError) as info:
        _core_expander_on(monkeypatch, cpus, *args)
    return type(info.value), str(info.value)


def test_core_expander_cap_error_is_the_same_under_every_split(monkeypatch):
    errors = [_core_expander_error(monkeypatch, cpus, (150,), 3, 1) for cpus in (1, 2, 3)]
    assert errors[0][0] is EnumerationCapError
    assert errors[1:] == errors[:1] * 2


def test_core_expander_raises_the_first_failing_trials_error(monkeypatch):
    # trials 1 and 2 fail: under two shares trial 1 fails in the child and
    # trial 2 in this process, and the run must still name trial 1
    cheeger = unimap.experiments._cheeger_or_none

    def failing(m, where):
        if "trial 0" in where:
            return cheeger(m, where)
        raise DecompositionError(f"made to fail: {where}")

    monkeypatch.setattr(unimap.experiments, "_cheeger_or_none", failing)
    for cpus in (1, 2, 3):
        error = _core_expander_error(monkeypatch, cpus, (16,), 3, 3)
        assert error == (DecompositionError, "made to fail: n=16, trial 1, the core")


def test_core_expander_edge_fractions_match_trimmed_maps():
    seed, trials = 4, 3
    r = run_core_expander_experiment(0.4, 0.1, (12, 16), trials=trials, seed=seed)
    rows = [row for row in r.data if row["quantity"].startswith("edge_fraction[M=")]
    assert len(rows) >= 2 * 7
    for row in rows:
        n = row["n"]
        mm = int(row["quantity"][len("edge_fraction[M=") : -1])
        total = Fraction(0)
        for t in range(trials):
            rng = random.Random(f"{seed}:core:{n}:{t}")
            m = sample_unicellular_fixed_genus(n, r.observed[f"n={n}"]["g"], rng)
            total += Fraction(core_less_M(m, mm).n_edges, n)
        assert row["value"] == float(total / trials)


def test_core_expander_single_vertex_core_is_vacuous():
    # seed 11 at n=16 draws a map whose core is one vertex with 14 loops
    r = run_core_expander_experiment(0.4, 0.1, (16,), trials=2, seed=11)
    assert r.verdict == "informational"
    obs = r.observed["n=16"]
    assert obs["vacuous_cores"] >= 1
    assert obs["kappa_satisfied"] == obs["trials"]


def _core_expander_with_h(monkeypatch, fake) -> ExperimentReport:
    """The run at (16, 20), 4 trials, seed 3, with `fake(h, where)` in
    place of each exact Cheeger constant that exists."""
    cheeger = unimap.experiments._cheeger_or_none

    def patched(m, where):
        h = cheeger(m, where)
        return None if h is None else fake(h, where)

    monkeypatch.setattr(unimap.experiments, "_cheeger_or_none", patched)
    return run_core_expander_experiment(0.4, 0.1, (16, 20), trials=4, seed=3)


def test_core_expander_fails_on_a_transfer_violation(monkeypatch):
    r = _core_expander_with_h(
        monkeypatch, lambda h, where: Fraction(1, 10**6) if "core less" in where else h
    )
    assert r.verdict == "fail"
    for n in (16, 20):
        assert r.observed[f"n={n}"]["transfer_violations"] == 4


def test_core_expander_fails_on_a_core_without_expansion(monkeypatch):
    r = _core_expander_with_h(
        monkeypatch, lambda h, where: Fraction(0) if where.endswith("the core") else h
    )
    assert r.verdict == "fail"
    for n in (16, 20):
        obs = r.observed[f"n={n}"]
        assert obs["min_h_core"] == 0
        assert obs["kappa_satisfied"] == 0
        assert obs["transfer_violations"] == 0


def test_core_expander_names_the_graph_past_the_cheeger_cap():
    # at n = 150 some sample's graph has more than 24 vertices
    with pytest.raises(EnumerationCapError, match=r"n=150, trial \d+, the core") as info:
        run_core_expander_experiment(0.4, 0.1, (150,), trials=3, seed=1)
    assert "exceeds the exact cap 24" in str(info.value)


def test_core_expander_reports_bit_identical():
    a = run_core_expander_experiment(0.4, 0.1, (16,), trials=2, seed=9)
    b = run_core_expander_experiment(0.4, 0.1, (16,), trials=2, seed=9)
    assert a.payload_json() == b.payload_json()
    c = run_core_expander_experiment(0.4, 0.1, (16,), trials=2, seed=10)
    assert a.payload_json() != c.payload_json()


def test_exact_reports_carry_no_floats():
    def no_floats(x):
        if isinstance(x, float):
            return False
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return True

    for report in (
        verify_one_vertex_law((2, 4)),
        verify_cm_unicellular((3, 3)),
        verify_decomposition_identity(4, 1),
        verify_branch_profile_law(4, 1),
    ):
        payload = report.payload()
        assert no_floats(payload["observed"])
        assert no_floats(payload["expected"])


def test_persist_report_writes_all_files(tmp_path):
    r = run_core_expander_experiment(0.4, 0.1, (16,), trials=2, seed=9)
    paths = persist_report(r, tmp_path)
    assert set(paths) == {"report", "results", "manifest", "data"}
    report = json.loads(Path(paths["report"]).read_text())
    assert report["verdict"] == "informational"
    assert "meta" in report
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["config_sha256"] == r.config.digest()
    lines = Path(paths["results"]).read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["claim"] == "core-expander"
    csv_lines = Path(paths["data"]).read_text().splitlines()
    assert csv_lines[0] == "experiment,n,quantity,value"
    assert len(csv_lines) == len(r.data) + 1
    # appending is additive on rerun
    persist_report(r, tmp_path)
    assert len(Path(paths["results"]).read_text().splitlines()) == 2
