"""Random instances of the substitution-transfer check, in shares that
processes can split.

Instance i draws its base graph, its size cap and its spliced trees from
one stream, `random.Random(f"{seed}:transfer:{i}")`, so instances are
independent and `transfer_share` can take every k-th of them (see
`unimap.parallel` and `unimap.experiments.verify_substitution_transfer`).
The module is imported only when a transfer check runs, so that a process
that runs none does not compile it.
"""

from __future__ import annotations

import random

from .expansion import branch_substitution_transfer_check
from .maps import Multigraph

__all__ = ["transfer_share"]


def _random_connected_multigraph(rng: random.Random, max_vertices: int) -> Multigraph:
    n_v = rng.randint(2, max_vertices)
    edges = []
    for v in range(1, n_v):
        edges.append((rng.randrange(v), v))
    for _ in range(rng.randint(0, n_v)):
        u = rng.randrange(n_v)
        v = rng.randrange(n_v)
        edges.append((min(u, v), max(u, v)))
    return Multigraph(n_v, tuple(sorted(edges)))


def transfer_share(
    seed: int, instances: int, max_h_vertices: int, max_m: int, k: int, s: int
) -> int:
    """Violations among transfer instances s, s + k, s + 2k, ... of
    `verify_substitution_transfer`."""
    violations = 0
    for i in range(s, instances, k):
        rng = random.Random(f"{seed}:transfer:{i}")
        h_graph = _random_connected_multigraph(rng, max_h_vertices)
        m_cap = rng.randint(1, max_m)
        if not branch_substitution_transfer_check(h_graph, m_cap, rng):
            violations += 1
    return violations
