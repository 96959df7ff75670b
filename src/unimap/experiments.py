"""Experiment harness: configs, reports, persistence, and the claim checks.

Every check in this module is either exact (finite enumeration, rational
arithmetic, no floats in the verdict path) or Monte Carlo with an explicit
seed and a 99% Wilson interval.  Reports split into a deterministic payload
and a meta block; the payload of a seeded run is byte-for-byte reproducible,
while wall-clock time lives in meta and never enters the payload hash.

Verdicts are "pass", "fail", or "informational".  Informational reports are
for asymptotic statements that a finite run can illustrate but not decide;
they still hard-fail (verdict "fail") when an exact inequality that must
hold sample-by-sample is violated, since that can only mean a bug.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Any

# nothing here calls `core`; perfbench's tracer test reads
# `experiments.core` to check that tracing leaves it as it found it
from .core import core, core_and_branch_sizes, core_less_M  # noqa: F401
from .errors import EnumerationCapError, ParameterError, check_int
from .expansion import cheeger_exact, wilson_interval
from .maps import underlying_graph
from .samplers import (
    ENUMERATION_CAP,
    DegreeSequence,
    _genus_count_column,
    block_rotation,
    count_one_vertex_maps,
    double_factorial_odd,
    enumerate_pairings,
    sample_pairing,
    sample_unicellular_fixed_genus,
)
from .series import derive_constants, series_D

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "fraction_str",
    "min_degree3_census",
    "persist_report",
    "profile_census",
    "run_core_expander_experiment",
    "verify_branch_profile_law",
    "verify_cm_unicellular",
    "verify_decomposition_identity",
    "verify_one_vertex_law",
    "verify_substitution_transfer",
]

_VERDICTS = ("pass", "fail", "informational")


def fraction_str(x: Any) -> str:
    """json's `default` hook, for reports and the CLI: a Fraction becomes
    "p/q", so exact values survive serialization unchanged; any other type
    json cannot write is refused."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise ParameterError(f"value of type {type(x).__name__} is not serializable")


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=fraction_str)


@dataclass(frozen=True)
class ExperimentConfig:
    """What was run: a name and its parameters.

    ``parameters`` must be JSON-serializable.  A run is Monte Carlo exactly
    when its parameters carry a seed, which must be an int and not a bool:
    True would be written as true and seed the streams as "True", not 1.
    The content digest covers the name, parameters, and mode.
    """

    name: str
    parameters: dict

    def __post_init__(self) -> None:
        if "seed" in self.parameters and type(self.parameters["seed"]) is not int:
            raise ParameterError("monte-carlo experiments require an integer seed")

    @property
    def mode(self) -> str:
        return "monte-carlo" if "seed" in self.parameters else "exact"

    def _fields(self) -> dict:
        return {"name": self.name, "parameters": self.parameters, "mode": self.mode}

    def canonical_json(self) -> str:
        return _canonical_json(self._fields())

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment run.

    ``expected`` entries are {"value": ..., "source": ...} pairs naming where
    the reference number comes from ("exact-enumeration", "closed-form",
    "series-coefficient", "constant-pipeline", "asymptotic-target").
    ``data`` holds long-format rows for the CSV sink.  Everything except
    ``runtime_s`` is part of the reproducible payload.
    """

    config: ExperimentConfig
    observed: dict
    expected: dict
    verdict: str
    data: tuple[dict, ...] = ()
    runtime_s: float = 0.0

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ParameterError(
                f"verdict must be one of {_VERDICTS}, got {self.verdict!r}"
            )

    @property
    def claim(self) -> str:
        return self.config.name

    def payload(self) -> dict:
        return json.loads(self.payload_json())

    def payload_json(self) -> str:
        return _canonical_json(
            {
                "config": self.config._fields(),
                "claim": self.claim,
                "observed": self.observed,
                "expected": self.expected,
                "verdict": self.verdict,
                "data": self.data,
            }
        )

    def to_dict(self) -> dict:
        out = self.payload()
        out["meta"] = {"runtime_s": self.runtime_s}
        return out


def persist_report(report: ExperimentReport, out_dir: str | Path) -> dict[str, str]:
    """Write report.json, append results.jsonl, refresh manifest.json.

    Long-format rows (experiment, n, quantity, value) go to data.csv when the
    report carries any; otherwise an earlier report's data.csv is removed.
    Returns the paths written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, str] = {}

    report_path = out / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    paths["report"] = str(report_path)

    payload_line = report.payload_json()
    jsonl_path = out / "results.jsonl"
    with jsonl_path.open("a") as fh:
        fh.write(payload_line + "\n")
    paths["results"] = str(jsonl_path)

    manifest_path = out / "manifest.json"
    manifest = {
        "name": report.config.name,
        "claim": report.claim,
        "config_sha256": report.config.digest(),
        "payload_sha256": hashlib.sha256(payload_line.encode()).hexdigest(),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    paths["manifest"] = str(manifest_path)

    csv_path = out / "data.csv"
    csv_path.unlink(missing_ok=True)  # a report without rows keeps no earlier rows
    if report.data:
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["experiment", "n", "quantity", "value"])
            for row in report.data:
                writer.writerow(
                    [
                        row.get("experiment", report.config.name),
                        "" if row.get("n") is None else row.get("n"),
                        row["quantity"],
                        row["value"],
                    ]
                )
        paths["data"] = str(csv_path)
    return paths


# ---------------------------------------------------------------------------
# Exhaustive censuses shared by the exact checks.


@lru_cache(maxsize=None, typed=True)
def profile_census(n: int) -> dict:
    """Branch-size profiles of every rooted one-face map with n edges.

    Covers all (2n-1)!! polygon pairings with one decomposition per class
    of turns (see `census.turn_classes`): the class's genus and branch
    sizes are read once, and its p rootings are tallied by the size of the
    branch their root marks without visiting a root (see
    `_Segments.rootings`).  Keys are (genus, core_edges, marked_size,
    sorted_other_sizes); plane trees are tallied under (0, 0, 0, ()) since
    they have no core.

    The chunks of `census.census_chunks` go through `parallel.fork_map`,
    and their tallies add.  Keys are sorted, so the dict does not depend on
    the split.  The census raises unless the chunks built (2n-1)!! gluings
    in all.
    """
    # imported here, so that a process that runs no census does not carry them
    from .census import census_chunks, chunk_tally
    from .parallel import fork_map

    check_int("n", n, 1)
    enumerate_pairings(n)  # refuses n past the cap before any work starts
    counts: Counter = Counter()
    built = 0
    for tally, walked in fork_map(partial(chunk_tally, n), list(census_chunks(n))):
        counts.update(tally)
        built += walked
    if built != double_factorial_odd(n):
        raise RuntimeError(f"the census built {built} of {double_factorial_odd(n)} gluings")
    return dict(sorted(counts.items()))


@lru_cache(maxsize=None, typed=True)
def min_degree3_census(e: int) -> dict[int, int]:
    """Count of rooted one-face maps with e edges and min degree 3, by genus.

    Read off `profile_census(e)` rather than enumerated again: a one-face
    map has minimum degree 3 exactly when peeling leaves and contracting
    degree-2 chains removes nothing, i.e. when its core keeps all e edges.
    So N(e, g) sums the census entries keyed (g, e, ., .) with g >= 1.
    """
    counts: Counter = Counter()
    for (g, core_edges, _marked, _others), cnt in profile_census(e).items():
        if g >= 1 and core_edges == e:
            counts[g] += cnt
    return dict(counts)


def _d_power_coefficient(n: int, power: int) -> int:
    """[z^n] C(z) * D(z)**power, by the closed form: the sum over
    i + j = n - power - 1 of binom(n-1+j, j) * binom(power+1+i, i) * 2^i."""
    top = n - power - 1
    return sum(
        math.comb(n - 1 + top - i, top - i) * math.comb(power + 1 + i, i) * 2**i
        for i in range(top + 1)
    )


# ---------------------------------------------------------------------------
# Exact claim checks.


def verify_one_vertex_law(p_list: tuple[int, ...] = (2, 4, 6)) -> ExperimentReport:
    """Probability that a 2p-gon gluing has one vertex equals 1/(p+1).

    Exhaustive over all (2p-1)!! pairings, read off `profile_census(p)`,
    exact rationals throughout; also cross-checks the closed one-vertex
    count (2p)!/(2^p p! (p+1)).
    """
    t0 = time.perf_counter()
    p_list = tuple(p_list)
    if not p_list:
        raise ParameterError("need at least one p")
    if len(set(p_list)) != len(p_list):
        raise ParameterError(f"p_list repeats a value: {p_list}")
    for p in p_list:
        check_int("p", p, 2)
        if p % 2:
            raise ParameterError(f"one-vertex gluings need an even p, got {p}")
        if p > ENUMERATION_CAP:
            raise EnumerationCapError(f"exhaustive check needs p <= {ENUMERATION_CAP}, got {p}")
    config = ExperimentConfig(name="one-vertex-law", parameters={"p_list": list(p_list)})
    observed: dict = {}
    expected: dict = {}
    ok = True
    for p in p_list:
        total = double_factorial_odd(p)
        # one vertex means genus p/2, by Euler with one face
        ones = sum(c for (g, *_), c in profile_census(p).items() if 2 * g == p)
        prob = Fraction(ones, total)
        law = Fraction(1, p + 1)
        formula = count_one_vertex_maps(p)
        observed[f"p={p}"] = {
            "pairings": total,
            "one_vertex_maps": ones,
            "probability": prob,
        }
        expected[f"p={p}"] = {
            "probability": {"value": law, "source": "closed-form"},
            "one_vertex_maps": {"value": formula, "source": "closed-form"},
        }
        ok = ok and prob == law and Fraction(ones) == formula
    return ExperimentReport(
        config=config,
        observed=observed,
        expected=expected,
        verdict="pass" if ok else "fail",
        runtime_s=time.perf_counter() - t0,
    )


def _cm_map_is_unicellular(pairing, sigma) -> bool:
    """One-face test for gluing the rotation ``sigma`` along ``pairing``,
    without building a map: the face of dart 0 must visit every dart."""
    n_darts = len(sigma)
    alpha = [0] * n_darts
    for a, b in pairing:
        alpha[a] = b
        alpha[b] = a
    length = 1
    d = sigma[alpha[0]]
    while d != 0:
        d = sigma[alpha[d]]
        length += 1
    return length == n_darts


def verify_cm_unicellular(
    degrees: DegreeSequence | tuple[int, ...],
    *,
    trials: int = 100_000,
    seed: int | None = None,
) -> ExperimentReport:
    """P(one face) for the configuration model on a fixed degree sequence.

    Exact when the sequence has at most 14 darts (every pairing enumerated);
    Monte Carlo with a 99% Wilson interval otherwise, in which case int
    trials >= 1 and an int seed are required.  The reference point is the
    1/(3n) asymptotic with the proved floor 1/(6n); parity-violating
    sequences report probability exactly zero and draw nothing.
    """
    t0 = time.perf_counter()
    if not isinstance(degrees, DegreeSequence):
        degrees = DegreeSequence(tuple(degrees))
    total = degrees.total
    if total % 2 != 0:
        raise ParameterError(f"degree sum must be even, got {total}")
    n = total // 2
    exact = total <= 14
    params: dict = {"degrees": list(degrees.entries)}
    if not exact and degrees.admits_unicellular:
        check_int("trials", trials, 1)
        params.update(trials=trials, seed=seed)
    # the config refuses a seed that is not an int, before any sampling
    config = ExperimentConfig(name="cm-unicellular", parameters=params)

    sigma = block_rotation(degrees.entries)
    floor = Fraction(1, 6 * n)
    expected = {
        "probability": {"value": Fraction(1, 3 * n), "source": "asymptotic-target"},
        "floor": {"value": floor, "source": "closed-form"},
    }
    if not degrees.admits_unicellular:
        observed: dict = {
            "probability": Fraction(0),
            "note": "no one-face map exists for this sequence (parity)",
        }
        verdict = "pass"
    elif exact:
        pairings = double_factorial_odd(n)
        hits = sum(_cm_map_is_unicellular(p, sigma) for p in enumerate_pairings(n))
        observed = {
            "probability": Fraction(hits, pairings),
            "unicellular_pairings": hits,
            "pairings": pairings,
        }
        verdict = "pass" if observed["probability"] >= floor else "fail"
    else:
        rngs = (random.Random(f"{seed}:cm:{t}") for t in range(trials))
        hits = sum(_cm_map_is_unicellular(sample_pairing(total, rng), sigma) for rng in rngs)
        lo, hi = wilson_interval(hits, trials)
        observed = {
            "probability": Fraction(hits, trials),
            "wilson_99_low": lo,
            "wilson_99_high": hi,
            "trials": trials,
        }
        if lo >= float(floor):
            verdict = "pass"
        elif hi < float(floor):
            verdict = "fail"
        else:
            verdict = "informational"
    return ExperimentReport(
        config=config,
        observed=observed,
        expected=expected,
        verdict=verdict,
        runtime_s=time.perf_counter() - t0,
    )


def _check_census_claim(what: str, n: int, g: int) -> None:
    """Refuse an (n, g) that a census claim cannot read, before any census."""
    check_int("n", n, 2)
    check_int("g", g, 1)
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"{what} needs n <= {ENUMERATION_CAP}, got {n}")
    if 2 * g > n:
        raise ParameterError(f"need 1 <= g <= n/2, got g={g}, n={n}")


def verify_decomposition_identity(n: int, g: int) -> ExperimentReport:
    """#{maps in U(n,g) whose core has e edges} against the counting formula.

    The formula is N(e,g) * [z^n] C(z) D(z)^{e-1} with N(e,g) the number of
    rooted one-face genus-g maps with e edges and minimum degree 3.  Both
    sides by exhaustive enumeration plus exact series coefficients, every e.
    """
    t0 = time.perf_counter()
    _check_census_claim("identity check", n, g)
    config = ExperimentConfig(name="decomposition-identity", parameters={"n": n, "g": g})
    census = profile_census(n)
    by_edges: Counter = Counter()
    for (gg, e, _marked, _others), cnt in census.items():
        if gg == g:
            by_edges[e] += cnt
    observed_counts = {str(e): by_edges[e] for e in sorted(by_edges)}
    expected_counts: dict[str, int] = {}
    for e in range(1, n + 1):
        value = min_degree3_census(e).get(g, 0) * _d_power_coefficient(n, e - 1)
        if value:
            expected_counts[str(e)] = value
    ok = observed_counts == expected_counts
    return ExperimentReport(
        config=config,
        observed={"cores_with_e_edges": observed_counts},
        expected={
            "cores_with_e_edges": {
                "value": expected_counts,
                "source": "exact-enumeration*series-coefficient",
            }
        },
        verdict="pass" if ok else "fail",
        runtime_s=time.perf_counter() - t0,
    )


def _multiset_orderings(values: tuple[int, ...]) -> int:
    mult: Counter = Counter(values)
    out = math.factorial(len(values))
    for m in mult.values():
        out //= math.factorial(m)
    return out


def _branch_profile_law(
    n: int, e: int, beta: Fraction
) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """Conditional law of (marked size, sorted other sizes) given e core edges.

    Computed from the size-biased branch weights at the given beta; the beta
    powers cancel in the conditioning, which the callers check by evaluating
    at two different beta values.
    """
    d = series_D(n)
    weights: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    # each sorted tuple of the other sizes once; a size past n - e + 1 would
    # leave some branch empty, and the marked branch takes what is left
    for others in combinations_with_replacement(range(1, n - e + 2), e - 1):
        marked = n - sum(others)
        if marked >= 1:
            w = marked * d[marked] * beta**marked * _multiset_orderings(others)
            for y in others:
                w *= d[y] * beta**y
            weights[marked, others] = w
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


def verify_branch_profile_law(n: int, g: int) -> ExperimentReport:
    """Exact conditional branch-profile distribution against the product law.

    For every core edge count e, the distribution of (marked branch size,
    multiset of other sizes) over U(n,g) given e is compared, as exact
    rationals, with the size-biased-times-independent product law; the law is
    evaluated at two different beta values to confirm beta cancels.
    """
    t0 = time.perf_counter()
    _check_census_claim("profile law check", n, g)
    config = ExperimentConfig(name="branch-profile", parameters={"n": n, "g": g})
    census = profile_census(n)
    by_e: dict[int, Counter] = {}
    for (gg, e, marked, others), cnt in census.items():
        if gg == g:
            by_e.setdefault(e, Counter())[(marked, others)] += cnt

    ok = True
    beta_independent = True
    observed: dict = {}
    expected: dict = {}
    for e in sorted(by_e):
        empirical_total = sum(by_e[e].values())
        law_a = _branch_profile_law(n, e, Fraction(1, 10))
        law_b = _branch_profile_law(n, e, Fraction(2, 10))
        beta_independent = beta_independent and law_a == law_b
        obs_e: dict[str, Fraction] = {}
        exp_e: dict[str, Fraction] = {}
        keys = set(by_e[e]) | set(law_a)
        for key in sorted(keys):
            marked, others = key
            label = f"marked={marked},others={list(others)}"
            emp = Fraction(by_e[e].get(key, 0), empirical_total)
            law = law_a.get(key, Fraction(0))
            obs_e[label] = emp
            exp_e[label] = law
            ok = ok and emp == law
        observed[f"e={e}"] = obs_e
        expected[f"e={e}"] = {
            "value": exp_e,
            "source": "size-biased-product-law",
        }
    observed["beta_independent"] = beta_independent
    ok = ok and beta_independent
    return ExperimentReport(
        config=config,
        observed=observed,
        expected=expected,
        verdict="pass" if ok else "fail",
        runtime_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Randomized checks and experiments.


def verify_substitution_transfer(
    *,
    instances: int = 500,
    max_h_vertices: int = 6,
    max_m: int = 4,
    seed: int = 0,
) -> ExperimentReport:
    """h(G) >= h(H)/(2M+1) after splicing random trees into a base graph H.

    Each instance draws a random connected multigraph H and a size cap M,
    replaces every edge by a path through a random tree of at most M edges,
    and compares exact Cheeger constants.  The inequality is a theorem, so a
    single violation is a failure.

    The instances go through `parallel.fork_map`, each drawing from its own
    stream, seeded by its index, so the report and any error are the ones
    a single loop gives.  The parameters are checked before any instance
    starts.
    """
    # imported here, so that a process that runs no transfer check does not carry them
    from .parallel import fork_map
    from .transfer import transfer_violated

    t0 = time.perf_counter()
    check_int("instances", instances, 1)
    check_int("max_h_vertices", max_h_vertices, 2)
    check_int("max_m", max_m, 1)
    config = ExperimentConfig(
        name="substitution-transfer",
        parameters={
            "instances": instances,
            "max_h_vertices": max_h_vertices,
            "max_m": max_m,
            "seed": seed,
        },
    )
    work = partial(transfer_violated, seed, max_h_vertices, max_m)
    violations = sum(fork_map(work, range(instances)))
    observed = {"instances": instances, "violations": violations}
    expected = {
        "violations": {"value": 0, "source": "transfer-inequality"},
    }
    return ExperimentReport(
        config=config,
        observed=observed,
        expected=expected,
        verdict="pass" if violations == 0 else "fail",
        runtime_s=time.perf_counter() - t0,
    )


def _genus_for(theta: float, n: int) -> int:
    # str() first so 0.4 means 2/5, not its binary float neighbour
    return math.ceil(Fraction(str(theta)) * n)


def _cheeger_or_none(m, where: str) -> Fraction | None:
    """Exact Cheeger constant of the underlying graph, None when no cut exists.

    ``where`` names the graph in the error raised past the exact engine's cap.
    """
    graph = underlying_graph(m)[0]
    if graph.n_vertices < 2:
        return None
    try:
        return cheeger_exact(graph).h_value
    except EnumerationCapError as exc:
        raise EnumerationCapError(f"{where}: {exc}") from exc


def _fraction(pair: tuple[int, int] | None) -> Fraction | None:
    return None if pair is None else Fraction(*pair)


def _as_pair(h: Fraction | None) -> tuple[int, int] | None:
    return None if h is None else (h.numerator, h.denominator)


def _sample_record(
    seed: int, M: int, m_grid: list[int], unit: tuple[int, int, int]
) -> tuple[tuple[int, int] | None, tuple[int, int] | None, tuple[int, ...]]:
    """Trial t at n, for `unit` = (n, g, t): its sample of U(n, g), drawn
    from the stream seeded by (seed, n, t), read as h(core), h(core less
    M), each a (numerator, denominator) pair, or None when the graph has no
    cut, and the edges that trimming at each M' of `m_grid` keeps.  Ints
    only, so that the record can leave a forked share.

    The core and the branch sizes come from `core_and_branch_sizes`, one
    walk around the face that builds no branch tree.  Trimming at M'
    keeps sum_b (b if b < M' else 1) edges, which is
    `core_less_M(m, M').n_edges` by construction.  `core_less_M(m, M)`
    runs, to build the core less M for its Cheeger constant, only when
    some branch has at least M edges: otherwise the core less M is m.
    """
    n, g, t = unit
    m = sample_unicellular_fixed_genus(n, g, random.Random(f"{seed}:core:{n}:{t}"))
    the_core, sizes = core_and_branch_sizes(m)
    trimmed = m if max(sizes) < M else core_less_M(m, M)
    h_core = _cheeger_or_none(the_core, f"n={n}, trial {t}, the core")
    h_trim = _cheeger_or_none(trimmed, f"n={n}, trial {t}, the core less M={M}")
    kept = tuple(sum(b if b < mm else 1 for b in sizes) for mm in m_grid)
    return _as_pair(h_core), _as_pair(h_trim), kept


def run_core_expander_experiment(
    theta: float,
    epsilon: float,
    n_list: tuple[int, ...],
    trials: int,
    seed: int,
) -> ExperimentReport:
    """Sample U(n, ceil(theta n)) and measure the core's expansion behaviour.

    `_sample_record` does one trial's work, and each n's row is read off
    its trials' records: the least exact Cheeger constants of the core and
    of the core less the pipeline's M, how many trials break the
    substitution inequality h(trimmed) >= h(core)/(2M+1), and how many
    cores reach kappa.  The verdict is informational (the expander
    statement is asymptotic), but a violation of that inequality or a
    non-positive core Cheeger constant flips it to fail.  The mean
    edge fraction kept at each M of a grid is emitted as long-format data
    rows, one curve per n.

    A core can collapse to a single vertex (every core edge a loop, which
    happens exactly when the core has 2g edges).  Such samples have no cut
    to measure; they count as vacuous expanders that reach kappa, are
    tallied separately, and are skipped by the transfer check.

    The trials (n, t), listed n first, go through `parallel.fork_map`, each
    drawing from its own stream, so the report and any error are the ones
    a single loop over the trials gives.  The parameters, the constants
    and each n's count table are checked and built before any trial
    starts, so every share inherits them.
    """
    # imported here, so that a process that runs no experiment does not carry it
    from .parallel import fork_map

    t0 = time.perf_counter()
    n_list = tuple(n_list)
    check_int("trials", trials, 1)
    if not n_list:
        raise ParameterError("need at least one n")
    for n in n_list:
        check_int("n", n, 1)
    if len(set(n_list)) != len(n_list):
        raise ParameterError(f"n_list repeats a value: {n_list}")
    pipe = derive_constants(theta, epsilon)
    config = ExperimentConfig(
        name="core-expander",
        parameters={
            "theta": theta,
            "epsilon": epsilon,
            "n_list": list(n_list),
            "trials": trials,
            "seed": seed,
        },
    )
    m_grid = sorted({2, 4, 8, 16, 32, 64, pipe.M})
    kappa = Fraction(str(pipe.kappa))
    genera = {n: _genus_for(theta, n) for n in n_list}
    for n, g in genera.items():
        if 2 * g > n:
            raise ParameterError(f"no one-face map has n={n} edges and genus g={g}")
        _genus_count_column(n)
    units = [(n, g, t) for n, g in genera.items() for t in range(trials)]
    flat = fork_map(partial(_sample_record, seed, pipe.M, m_grid), units)
    all_records = [(_fraction(hc), _fraction(ht), kept) for hc, ht, kept in flat]
    observed: dict = {}
    data: list[dict] = []
    for a, (n, g) in enumerate(genera.items()):
        records = all_records[a * trials : (a + 1) * trials]
        h_cores = [h for h, _, _ in records if h is not None]
        h_trimmed = [h for _, h, _ in records if h is not None]
        kept = map(sum, zip(*(k for _, _, k in records)))
        curve = {mm: Fraction(k, n * trials) for mm, k in zip(m_grid, kept)}
        row = observed[f"n={n}"] = {
            "g": g,
            "mean_edge_fraction_at_M": float(curve[pipe.M]),
            "min_h_core": min(h_cores, default=None),
            "min_h_trimmed": min(h_trimmed, default=None),
            "transfer_violations": sum(
                hc is not None and ht is not None and ht < hc / (2 * pipe.M + 1)
                for hc, ht, _ in records
            ),
            "kappa_satisfied": trials - sum(h < kappa for h in h_cores),
            "vacuous_cores": trials - len(h_cores),
            "trials": trials,
        }
        points = [(f"edge_fraction[M={mm}]", v) for mm, v in curve.items()]
        points += [(q, row[q]) for q in ("min_h_core", "min_h_trimmed")]
        data += [
            {"experiment": "core-expander", "n": n, "quantity": q, "value": float(v)}
            for q, v in points
            if v is not None
        ]
    expected = {
        "edge_fraction": {"value": 1.0 - epsilon, "source": "asymptotic-target"},
        "kappa": {"value": pipe.kappa, "source": "constant-pipeline"},
        "M": {"value": pipe.M, "source": "constant-pipeline"},
        "transfer_violations": {"value": 0, "source": "transfer-inequality"},
    }
    failed = any(
        row["transfer_violations"] or (row["min_h_core"] is not None and row["min_h_core"] <= 0)
        for row in observed.values()
    )
    return ExperimentReport(
        config=config,
        observed=observed,
        expected=expected,
        verdict="fail" if failed else "informational",
        data=tuple(data),
        runtime_s=time.perf_counter() - t0,
    )
