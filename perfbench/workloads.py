"""The benchmark's workloads: inputs from a seed, operations, correctness gates.

A workload is a fixed batch of operations.  An operation is one call of
the workload's public entry point followed by its correctness check; the
batch runs closed-loop in one interpreter, each operation starting when
the previous one is done.  `make_inputs` is the set-up: it may use the
package (large_n builds its maps with it) but must leave the exact-census
caches cold, since filling them is what the census operations measure.

Each gate returns None when the output is right and a short reason when
it is not.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from unimap.core import branch_size_profile, core, core_less_M, reconstruct
from unimap.experiments import (
    profile_census,
    run_core_expander_experiment,
    verify_branch_profile_law,
    verify_decomposition_identity,
    verify_substitution_transfer,
)
from unimap.maps import genus
from unimap.samplers import (
    double_factorial_odd,
    sample_branch_size,
    sample_polygon_gluing,
)
from unimap.series import solve_beta
from unimap.trees import sample_doubly_rooted_tree

CENSUS_N = 7
CENSUS_GENERA = (1, 2, 3)

# sha256 of ExperimentReport.payload_json() for each exact census report.
# Exact outputs must never change, so these are pinned.
CENSUS_PAYLOAD_SHA256 = {
    ("decomposition-identity", 1): "f7305f965d3f467f9dc39a9fb2f43ecb970dbb361512b70354c3bb58690f6143",
    ("decomposition-identity", 2): "688ae5001dcde372322b5748b41f620eb08439860e1912e2eeda8fb29a49193c",
    ("decomposition-identity", 3): "be949d0d0ea34ce5f1e4d1899d5441afd42e53eeac21142fcea8080b13b4dfca",
    ("branch-profile", 1): "0c5835b229dc14e8156815c034fb6a8e1e357dfb3ae42775c34abdbf4795806a",
    ("branch-profile", 2): "f0c48d905571b02c52542b82acedfc83af87adc55b030717e050d1acc0206a65",
    ("branch-profile", 3): "b8b755148bc41334b773a2f06c7a223c14b8337d71aeaf34f82c5ec440b8b15b",
}

CORE_EXPANDER = dict(theta=0.4, epsilon=0.1, n_list=(30, 40, 50, 60), trials=40)

LARGE_N_MAPS = 3
LARGE_N_POLYGON_EDGES = 2000
LARGE_N_C = 0.4
LARGE_N_M = 8

TRANSFER = dict(instances=6000, max_h_vertices=5, max_m=4)


@dataclass(frozen=True)
class Operation:
    """One call of the workload's entry point and the gate on its output."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def payload_sha256(report) -> str:
    return hashlib.sha256(report.payload_json().encode()).hexdigest()


# -- census ----------------------------------------------------------------


def census_inputs(seed: int) -> list[tuple[str, int]]:
    """The exact lane has no randomness: every seed gives the same inputs."""
    del seed
    return [(claim, g) for claim in ("decomposition-identity", "branch-profile") for g in CENSUS_GENERA]


def _census_check(claim: str, g: int) -> Callable[[Any], str | None]:
    def check(report) -> str | None:
        if report.verdict != "pass":
            return f"verdict {report.verdict}"
        digest = payload_sha256(report)
        if digest != CENSUS_PAYLOAD_SHA256[(claim, g)]:
            return f"payload sha256 {digest}"
        total = sum(profile_census(CENSUS_N).values())
        if total != double_factorial_odd(CENSUS_N):
            return f"census counts sum to {total}"
        return None

    return check


def _census_run(claim: str, g: int):
    if claim == "decomposition-identity":
        return verify_decomposition_identity(CENSUS_N, g)
    return verify_branch_profile_law(CENSUS_N, g)


def census_ops(inputs) -> list[Operation]:
    return [
        Operation(f"{claim} g={g}", lambda c=claim, g=g: _census_run(c, g), _census_check(claim, g))
        for claim, g in inputs
    ]


# -- core_expander -----------------------------------------------------------


def core_expander_inputs(seed: int) -> dict:
    return dict(CORE_EXPANDER, seed=seed)


def core_expander_check(report) -> str | None:
    if report.verdict != "informational":
        return f"verdict {report.verdict}"
    for key, row in report.observed.items():
        if row["transfer_violations"]:
            return f"{key}: {row['transfer_violations']} transfer violations"
        if row["min_h_core"] is not None and not row["min_h_core"] > 0:
            return f"{key}: min_h_core {row['min_h_core']}"
    return None


def core_expander_ops(inputs) -> list[Operation]:
    return [
        Operation(
            f"core-expander seed={inputs['seed']}",
            lambda: run_core_expander_experiment(**inputs),
            core_expander_check,
        )
    ]


# -- large_n ---------------------------------------------------------------


def _edge_addresses(tree) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    stack = [((), tree)]
    while stack:
        addr, node = stack.pop()
        for i, child in enumerate(node):
            out.append(addr + (i,))
            stack.append((addr + (i,), child))
    return out


def large_n_map(rng: random.Random, polygon_edges: int, c: float) -> dict:
    """A one-face map with a Boltzmann branch on each edge of a random core.

    The core is that of a uniform polygon gluing with `polygon_edges` edges
    (genus near polygon_edges/2); each of its edges gets a uniform doubly
    rooted tree whose size is drawn from the branch-size laws at
    beta = solve_beta(c), the marked law on the root's edge.  The root is a
    uniform edge of that branch.  Returns the map with the n, g, core edge
    count and largest branch it was built with.
    """
    base = core(sample_polygon_gluing(polygon_edges, rng))
    beta = solve_beta(c)
    branches = []
    for i in range(len(base.branches)):
        law = "X" if i == base.root_branch_index else "Y"
        branches.append(sample_doubly_rooted_tree(sample_branch_size(law, beta, rng), rng))
    root_tree = branches[base.root_branch_index].tree
    marked = rng.choice(_edge_addresses(root_tree))
    dec = replace(base, branches=tuple(branches), marked_edge=marked)
    sizes = [b.n_edges for b in branches]
    return {
        "map": reconstruct(dec),
        "n": sum(sizes),
        "g": genus(base.core),
        "core_edges": len(sizes),
        "max_branch": max(sizes),
    }


def large_n_inputs(seed: int, count: int = LARGE_N_MAPS, polygon_edges: int = LARGE_N_POLYGON_EDGES) -> list[dict]:
    rng = random.Random(f"perfbench:large_n:{seed}")
    return [large_n_map(rng, polygon_edges, LARGE_N_C) for _ in range(count)]


def large_n_run(item: dict) -> dict:
    m = item["map"]
    dec = core(m)
    return {
        "dec": dec,
        "rebuilt": reconstruct(dec),
        "profile": branch_size_profile(m),
        "trimmed": core_less_M(m, LARGE_N_M),
    }


def _large_n_check(item: dict) -> Callable[[dict], str | None]:
    def check(out: dict) -> str | None:
        m, dec = item["map"], out["dec"]
        if out["rebuilt"] != m:
            return "reconstruct(core(m)) != m"
        if m.n_edges != item["n"] or genus(m) != item["g"]:
            return f"n={m.n_edges}, g={genus(m)}; generated n={item['n']}, g={item['g']}"
        sizes = [b.n_edges for b in dec.branches]
        if len(sizes) != item["core_edges"]:
            return f"{len(sizes)} core edges, generated {item['core_edges']}"
        root = sizes[dec.root_branch_index]
        others = tuple(sorted(sizes[:dec.root_branch_index] + sizes[dec.root_branch_index + 1:]))
        if out["profile"] != (root, others):
            return "branch_size_profile disagrees with core"
        kept = sum(s if s < LARGE_N_M else 1 for s in sizes)
        if out["trimmed"].n_edges != kept:
            return f"core_less_M kept {out['trimmed'].n_edges} edges, expected {kept}"
        return None

    return check


def large_n_ops(inputs) -> list[Operation]:
    return [
        Operation(f"large_n map {i} n={item['n']}", lambda item=item: large_n_run(item), _large_n_check(item))
        for i, item in enumerate(inputs)
    ]


# -- transfer ----------------------------------------------------------------


def transfer_inputs(seed: int) -> dict:
    return dict(TRANSFER, seed=seed)


def transfer_check(report) -> str | None:
    if report.observed["violations"] != 0:
        return f"{report.observed['violations']} violations"
    if report.verdict != "pass":
        return f"verdict {report.verdict}"
    return None


def transfer_ops(inputs) -> list[Operation]:
    return [
        Operation(
            f"transfer seed={inputs['seed']}",
            lambda: verify_substitution_transfer(**inputs),
            transfer_check,
        )
    ]


def describe(inputs) -> Any:
    """JSON-able record of the inputs; large_n maps are reduced to their sizes."""
    if isinstance(inputs, list) and inputs and isinstance(inputs[0], dict):
        return [{k: v for k, v in item.items() if k != "map"} for item in inputs]
    return inputs


WORKLOADS = {
    "census": (census_inputs, census_ops),
    "core_expander": (core_expander_inputs, core_expander_ops),
    "large_n": (large_n_inputs, large_n_ops),
    "transfer": (transfer_inputs, transfer_ops),
}
