"""Acceptance suite: one test per numbered criterion.

Each test is the binding statement of a criterion, at the stated tolerance
and scale.  conftest.py prints a one-line PASS/FAIL verdict per criterion
after the run.  Every check here is either exact arithmetic or an explicit
numeric tolerance written next to the assertion.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from unimap.core import core, reconstruct
from unimap.expansion import (
    cheeger_exact,
    count_subset_volumes,
    spectral_cheeger_bounds,
)
from unimap.experiments import (
    run_core_expander_experiment,
    verify_branch_profile_law,
    verify_cm_unicellular,
    verify_decomposition_identity,
    verify_one_vertex_law,
    verify_substitution_transfer,
)
from unimap.maps import Multigraph, from_polygon_gluing, genus
from unimap.samplers import (
    count_one_vertex_maps,
    double_factorial_odd,
    enumerate_pairings,
    sample_unicellular_fixed_genus,
)
from unimap.series import (
    expected_plain_size,
    derive_constants,
    eval_D,
    series_C,
    series_C_closed_form,
    series_D,
    series_D_closed_form,
    series_T,
    solve_beta,
    solve_beta_closed_form,
    tail_bound,
)
from unimap.trees import doubly_rooted_count, dyck_to_children, enumerate_plane_trees

from .oracles import (
    brute_cheeger_in_family,
    brute_cheeger_value,
    brute_doubly_rooted_count,
)


def test_criterion_01_one_vertex_law():
    # P(one vertex) = 1/(p+1) for p in {2, 4, 6}, exact, under 60 s total
    t0 = time.perf_counter()
    report = verify_one_vertex_law((2, 4, 6))
    elapsed = time.perf_counter() - t0
    assert report.verdict == "pass"
    for p in (2, 4, 6):
        assert report.observed[f"p={p}"]["probability"] == Fraction(1, p + 1)
    assert elapsed < 60.0


def test_criterion_02_pairing_and_one_vertex_counts():
    for p in (2, 4, 6):
        pairings = list(enumerate_pairings(p))
        assert len(pairings) == double_factorial_odd(p)
        formula = math.factorial(2 * p) // (2**p * math.factorial(p) * (p + 1))
        assert count_one_vertex_maps(p) == formula
        direct = sum(
            1 for pr in pairings if from_polygon_gluing(pr, p).n_vertices() == 1
        )
        assert direct == formula


def test_criterion_03_series_identities():
    order = 50
    t = series_T(order)
    d = series_D(order)
    c = series_C(order)
    assert t + t * d == d
    assert d.z_derivative() == c
    assert series_D_closed_form(order) == d
    assert series_C_closed_form(order) == c
    assert doubly_rooted_count(1) == 1
    for k in (2, 3):
        trees = [dyck_to_children(w) for w in enumerate_plane_trees(k)]
        assert doubly_rooted_count(k) == brute_doubly_rooted_count(k, trees)
        assert d[k] == doubly_rooted_count(k)


def test_criterion_04_beta_equation():
    for i in range(1, 100):
        c = i / 100
        root = solve_beta(c)
        assert abs(root - solve_beta_closed_form(c)) <= 1e-12
        assert abs(c * expected_plain_size(root) - 1.0) <= 1e-12


def test_criterion_05_decomposition_bijection():
    # exhaustive: every one-face map with n <= 6 edges, genus 1 or 2
    for n in range(2, 7):
        for pairing in enumerate_pairings(n):
            m = from_polygon_gluing(pairing, n)
            if genus(m) in (1, 2):
                assert reconstruct(core(m)) == m
    # sampled: 10^4 maps up to n = 60 in the feasible high-genus band
    rng = random.Random("acceptance:roundtrip")
    for _ in range(10_000):
        n = rng.randint(2, 60)
        g_hi = n // 2
        g_lo = max(1, min(g_hi, math.ceil(2 * n / 5)))
        g = rng.randint(g_lo, g_hi)
        m = sample_unicellular_fixed_genus(n, g, rng)
        assert reconstruct(core(m)) == m
    # counting identity for every (n, g) with n <= 8
    for n in range(2, 9):
        for g in range(1, n // 2 + 1):
            assert verify_decomposition_identity(n, g).verdict == "pass"


def test_criterion_06_branch_profile_law():
    for n, g in ((6, 1), (8, 2)):
        report = verify_branch_profile_law(n, g)
        assert report.verdict == "pass"
        assert report.observed["beta_independent"] is True


def _random_connected_multigraph(rng: random.Random, max_vertices: int) -> Multigraph:
    n = rng.randint(2, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, n)):
        # extra edges may repeat or be loops
        edges.append((rng.randrange(n), rng.randrange(n)))
    return Multigraph(n, tuple(edges))


def test_criterion_07_cheeger_engine():
    rng = random.Random("acceptance:cheeger")
    for _ in range(200):
        g = _random_connected_multigraph(rng, 10)
        wit = cheeger_exact(g)
        assert wit.h_value == brute_cheeger_value(g)
        assert (wit.h_value, wit.subset) == brute_cheeger_in_family(g)
        low, high = spectral_cheeger_bounds(g)
        h = float(wit.h_value)
        assert low <= h + 1e-9
        assert h <= high + 1e-9
    for k in (2, 3, 4):
        cycle = Multigraph(2 * k, tuple((i, (i + 1) % (2 * k)) for i in range(2 * k)))
        assert cheeger_exact(cycle).h_value == Fraction(1, k)


def test_criterion_08_substitution_transfer():
    report = verify_substitution_transfer(
        instances=500, max_h_vertices=6, max_m=4, seed=0
    )
    assert report.verdict == "pass"
    assert report.observed["violations"] == 0


def test_criterion_09_subset_volume_bound():
    rng = random.Random("acceptance:volumes")
    for _ in range(100):
        k = rng.randint(2, 18)
        degrees = [rng.randint(3, 8) for _ in range(k)]
        if sum(degrees) % 2:
            degrees[0] += 1
        n = sum(degrees) // 2
        for V in range(1, n + 1):
            result = count_subset_volumes(degrees, V)
            ceiling = (V // 3) * math.comb((2 * n) // 3, V // 3)
            assert result.bound == ceiling
            assert result.count <= ceiling


def test_criterion_10_tail_bound():
    order = 220
    d = series_D(order)
    for theta in (0.1, 0.2, 0.3, 0.4):
        pipe = derive_constants(theta, 0.1)
        beta = pipe.beta_star / 2.0
        den = eval_D(beta)
        for k in range(1, 31):
            head = sum(d[j] * beta**j for j in range(k))
            tail_exact = 1.0 - head / den
            assert tail_exact <= tail_bound(pipe.beta_star, pipe.A, k) + 1e-12


def test_criterion_11_asymptotics_informational():
    # exact unicellularity floor 1/(6n) on every tested small degree sequence
    for degrees in ((3, 3), (4, 4, 4), (3, 4, 5), (3, 3, 6), (3, 3, 4, 4), (5, 3, 3, 3)):
        report = verify_cm_unicellular(degrees)
        assert report.config.mode == "exact"
        n_edges = sum(degrees) // 2
        assert report.observed["probability"] >= Fraction(1, 6 * n_edges)
    # sampled cores at n in [30, 60], g = ceil(0.4 n)
    report = run_core_expander_experiment(
        0.4, 0.1, (30, 40, 50, 60), trials=5, seed=20260816
    )
    assert report.verdict == "informational"
    for n in (30, 40, 50, 60):
        obs = report.observed[f"n={n}"]
        assert obs["g"] == math.ceil(Fraction(2, 5) * n)
        assert obs["transfer_violations"] == 0
        if obs["min_h_core"] is not None:
            assert obs["min_h_core"] > 0
    quantities = {row["quantity"] for row in report.data}
    assert any(q.startswith("edge_fraction[M=") for q in quantities)


def test_criterion_12_monte_carlo_determinism():
    first = run_core_expander_experiment(0.4, 0.1, (24,), trials=3, seed=7)
    second = run_core_expander_experiment(0.4, 0.1, (24,), trials=3, seed=7)
    assert first.payload_json() == second.payload_json()

    degrees = (3, 3, 3, 3, 3, 3)
    third = verify_cm_unicellular(degrees, trials=4000, seed=13)
    fourth = verify_cm_unicellular(degrees, trials=4000, seed=13)
    assert third.config.mode == "monte-carlo"
    assert third.payload_json() == fourth.payload_json()
