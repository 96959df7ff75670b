"""Edge expansion: exact Cheeger constants, spectral brackets, and the
subset-counting estimates used to certify expansion of random cores.

Conventions, fixed once for the whole package: the volume of a vertex set
is its degree sum, loops count 2 toward volume and never cross a cut,
parallel edges count with multiplicity, and

    h(X) = boundary(X) / min(vol(X), vol(complement)).

The exact engine only enumerates connected subsets with vol <= total/2.
That restriction is lossless: any optimal cut side of at most half the
volume splits into components, and by the mediant inequality one of the
components does at least as well.  Nor does it search a set that holds a
vertex but leaves out one of its pendant leaves: such a set never attains
the minimum (the lemma is in `cheeger_exact`'s docstring).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DisconnectedGraphError,
    EmptySideError,
    EnumerationCapError,
    ParameterError,
    check_int,
)
from .maps import Multigraph
from .samplers import DegreeSequence
from .trees import DoublyRootedTree, sample_doubly_rooted_tree

__all__ = [
    "CHEEGER_CAP",
    "CutWitness",
    "SubsetVolumeCount",
    "branch_substitution_transfer_check",
    "cheeger_exact",
    "count_subset_volumes",
    "is_connected",
    "is_kappa_expander",
    "spectral_cheeger_bounds",
    "wilson_interval",
]

# most vertices cheeger_exact searches by default: its connected-subset
# walk is exponential in the vertex count
CHEEGER_CAP = 24


@dataclass(frozen=True)
class CutWitness:
    """A vertex subset with its cut data; h_value is exact."""

    subset: tuple[int, ...]
    boundary: int
    vol_x: int
    vol_complement: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", tuple(sorted(self.subset)))
        if not self.subset:
            raise EmptySideError("witness subset is empty")

    @property
    def h_value(self) -> Fraction:
        """boundary / min(vol_x, vol_complement), and 0 when nothing crosses.

        A boundary edge gives the smaller side a dart, so a zero volume
        forces a zero boundary; h is defined as 0 there instead of dividing.
        """
        if self.boundary == 0:
            return Fraction(0)
        return Fraction(self.boundary, min(self.vol_x, self.vol_complement))


def _flood(adj_mask: Sequence[int]) -> int:
    """The bitmask of the vertices a flood from vertex 0 reaches, where bit
    u of ``adj_mask[v]`` is set when u and v are adjacent."""
    reach = frontier = 1
    while frontier:
        grown = 0
        while frontier:
            vbit = frontier & -frontier
            frontier ^= vbit
            grown |= adj_mask[vbit.bit_length() - 1]
        frontier = grown & ~reach
        reach |= frontier
    return reach


def is_connected(g: Multigraph) -> bool:
    """Whether the multigraph has exactly one component."""
    adj_mask = [0] * g.n_vertices
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    return _flood(adj_mask) == (1 << g.n_vertices) - 1


def _mask_precedes(a: int, b: int) -> bool:
    """Whether the vertex set of mask ``a`` sorts before that of ``b`` as
    sorted tuples; ``a != b``.

    Below x, the lowest bit where they differ, the sets agree.  If x is in
    ``a``, then ``a`` comes first exactly when ``b`` goes on past x;
    otherwise ``a`` comes first exactly when it stops before x.
    """
    d = a ^ b
    x = d & -d
    if a & x:
        return b > x
    return a < x


def cheeger_exact(g: Multigraph, *, cap: int = CHEEGER_CAP) -> CutWitness:
    """Minimum of h over all cuts, with an argmin witness.

    Enumerates connected subsets grown upward from their minimum vertex,
    pruning once the volume passes half of the total; their number can
    grow exponentially, so a graph with more than ``cap`` vertices is
    refused.  Set-up is O(edges): each vertex's neighbours become a
    bitmask, and connectivity is one flood over them.  A subset carries
    its edge counts into every vertex, parallel edges with multiplicity,
    as the fields of one int, so a candidate's count is one field read.
    Ties go to the lexicographically smallest subset, decided on the
    bitmasks (see `_mask_precedes`), and the witness is built from the
    search's own boundary and volume.  Disconnected graphs short-circuit to h = 0 with
    the flood's reach, vertex 0's component, as the witness.

    A set that holds a vertex but not its pendant leaf is never searched.
    Lemma: let w have ``deg[w] == 1``, its one edge going to x, and let
    E = total/2.  A connected T with x in T, w not in T, |T| >= 2 and
    vol(T) <= E has boundary B >= 1 and volume V, and some connected U
    with vol(U) <= E has h(U) < h(T) = B/V:

    - if V < E, U = T + w has h(U) = (B-1)/(V+1) < B/V;
    - if V = E, the complement of T + w has volume E-1 and boundary B-1.
      T has an internal edge, so B <= E-2, hence (B-1)/(E-1) < B/E, and
      by the mediant inequality one component of that complement, of
      volume below E, does at least as well.

    So no such T is an argmin, and dropping them all leaves the least
    argmin, hence the witness, unchanged.  Banned vertices and those below
    the anchor never join a subset, so the search drops a whole branch as
    soon as its subset holds a vertex with a leaf among them, and skips an
    anchor with a leaf below it once its singleton is scored.
    """
    check_int("cap", cap, 2)  # a graph with fewer vertices has no cut
    n = g.n_vertices
    if n < 2:
        raise EmptySideError("expansion needs at least two vertices")
    if n > cap:
        raise EnumerationCapError(f"{n} vertices exceeds the exact cap {cap}")

    # adj_mask[v] is the bitmask of v's neighbours and plain_deg[v] its
    # degree without loops, which never cross a cut
    adj_mask = [0] * n
    plain_deg = list(g.degrees)
    for u, v in g.edges:
        if u == v:
            plain_deg[u] -= 2
        else:
            adj_mask[u] |= 1 << v
            adj_mask[v] |= 1 << u
    deg = g.degrees
    half = len(g.edges)  # the total volume is twice the edge count
    reach = _flood(adj_mask)
    if reach != (1 << n) - 1:
        subset = tuple(v for v in range(n) if reach >> v & 1)
        vol = sum(deg[v] for v in subset)
        return CutWitness(subset, 0, vol, 2 * half - vol)

    # field v of a subset's int, `width` bits at shift[v], counts its edges
    # into v; no count exceeds a plain degree, so none spills over, and
    # fields[v], the int of v's own edges, is what adding v adds
    width = max(plain_deg).bit_length()
    fmask = (1 << width) - 1
    shift = [v * width for v in range(n)]
    fields = [0] * n
    for u, v in g.edges:
        if u != v:
            fields[u] += 1 << shift[v]
            fields[v] += 1 << shift[u]
    # leaves[x] is the bitmask of x's degree-1 neighbours
    leaves = [0] * n
    for w in range(n):
        if deg[w] == 1:
            leaves[adj_mask[w].bit_length() - 1] |= 1 << w
    # the best cut as (boundary, vol, mask); every enumerated subset has
    # vol <= total/2, so its smaller side's volume is vol; (1, 0, 0) loses
    # to every subset
    best_bnd, best_vol, best_mask = 1, 0, 0

    for anchor in range(n):
        vol0 = deg[anchor]
        if vol0 > half:
            continue
        start = 1 << anchor
        bnd0 = plain_deg[anchor]
        lhs, rhs = bnd0 * best_vol, best_bnd * vol0
        if lhs < rhs or (lhs == rhs and _mask_precedes(start, best_mask)):
            best_bnd, best_vol, best_mask = bnd0, vol0, start
        below = start - 1
        if leaves[anchor] & below:
            continue
        # states: (subset mask, candidates, permanently banned, vol,
        # boundary, leaves of the subset, its edge-count int); the vertices
        # below the anchor start out banned; each connected subset with
        # minimum vertex = anchor shows up exactly once because siblings
        # ban every candidate branched on before them
        stack = [
            (start, adj_mask[anchor] & ~below, below, vol0, bnd0, leaves[anchor], fields[anchor])
        ]
        while stack:
            mask, cand, banned, vol, bnd, held, ins = stack.pop()
            tried = 0
            c = cand
            while c:
                vbit = c & -c
                c ^= vbit
                v = vbit.bit_length() - 1
                new_banned = banned | tried
                tried |= vbit
                new_vol = vol + deg[v]
                if new_vol > half:
                    continue
                new_held = held | leaves[v]
                if new_held & new_banned:
                    continue
                new_bnd = bnd + plain_deg[v] - 2 * (ins >> shift[v] & fmask)
                new_mask = mask | vbit
                lhs, rhs = new_bnd * best_vol, best_bnd * new_vol
                if lhs < rhs or (lhs == rhs and _mask_precedes(new_mask, best_mask)):
                    best_bnd, best_vol, best_mask = new_bnd, new_vol, new_mask
                # c holds the candidates not yet tried, none in the subset
                new_cand = c | (adj_mask[v] & ~new_mask & ~new_banned)
                stack.append(
                    (new_mask, new_cand, new_banned, new_vol, new_bnd, new_held, ins + fields[v])
                )

    if not best_mask:
        raise EmptySideError("no subset with volume at most half the total")
    subset = tuple(v for v in range(n) if best_mask >> v & 1)
    return CutWitness(subset, best_bnd, best_vol, 2 * half - best_vol)


def is_kappa_expander(
    g: Multigraph, kappa: Fraction | int | str, *, cap: int = CHEEGER_CAP
) -> tuple[bool, CutWitness | None]:
    """Whether every cut satisfies h >= kappa; a violating cut otherwise.

    A one-vertex graph has no cut at all, so it is vacuously an expander.
    """
    try:
        kq = Fraction(kappa)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"kappa must be a rational number, got {kappa!r}") from exc
    if kq < 0:
        raise ParameterError(f"kappa must be nonnegative, got {kappa}")
    if g.n_vertices == 1:
        return True, None
    wit = cheeger_exact(g, cap=cap)
    if wit.h_value >= kq:
        return True, None
    return False, wit


def spectral_cheeger_bounds(g: Multigraph) -> tuple[float, float]:
    """(lambda_2/2, sqrt(2 lambda_2)) for the degree-normalized Laplacian.

    Loops add 2 to the degree and 2 to the diagonal adjacency entry, which
    matches their cut behavior: pure lazy weight.  The pair brackets the
    exact Cheeger constant on every connected graph.  numpy is imported
    here, so importing the package does not load it.
    """
    import numpy as np

    n = g.n_vertices
    if n < 2:
        raise EmptySideError("expansion needs at least two vertices")
    if not is_connected(g):
        raise DisconnectedGraphError("spectral bounds need a connected graph")
    adj = np.zeros((n, n))
    for u, v in g.edges:
        if u == v:
            adj[u, u] += 2.0
        else:
            adj[u, v] += 1.0
            adj[v, u] += 1.0
    inv_sqrt_deg = 1.0 / np.sqrt(np.array(g.degrees, dtype=float))
    lap = np.eye(n) - inv_sqrt_deg[:, None] * adj * inv_sqrt_deg[None, :]
    lam2 = float(np.linalg.eigvalsh(lap)[1])
    lam2 = max(lam2, 0.0)
    return lam2 / 2.0, math.sqrt(2.0 * lam2)


@dataclass(frozen=True)
class SubsetVolumeCount:
    """N_V(d) together with its combinatorial ceiling."""

    V: int
    count: int
    bound: int


def count_subset_volumes(
    d: DegreeSequence | Sequence[int], V: int
) -> SubsetVolumeCount:
    """Exact number of vertex subsets of total degree V, with the ceiling
    floor(V/3) * binom(floor(|d|/3), floor(V/3)).

    Needs every degree >= 3 and 0 < V <= |d|/2; under those the count
    never exceeds the ceiling, which is the estimate driving the
    bad-event union bound.
    """
    if not isinstance(d, DegreeSequence):
        d = DegreeSequence(tuple(d))
    check_int("V", V, 1)
    total = d.total
    if 2 * V > total:
        raise ParameterError(f"volume {V} outside (0, {total}/2]")
    dp = [0] * (V + 1)
    dp[0] = 1
    for di in d.entries:
        for s in range(V, di - 1, -1):
            dp[s] += dp[s - di]
    bound = (V // 3) * math.comb(total // 3, V // 3)
    return SubsetVolumeCount(V=V, count=dp[V], bound=bound)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 99% confidence."""
    check_int("trials", trials, 1)
    check_int("successes", successes, 0)
    if successes > trials:
        raise ParameterError("successes outside [0, trials]")
    p = successes / trials
    z = 2.5758293035489004  # two-sided 99% quantile of the standard normal
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _tree_as_edges(
    drt: DoublyRootedTree, u: int, v: int, next_id: int
) -> tuple[list[tuple[int, int]], int]:
    """Edges of the doubly rooted tree with its first root at ``u`` and its
    second at ``v``; inner nodes get fresh ids starting at ``next_id``.
    The step matched with v2's exit is the one that enters v2: walking
    back from the exit, the first step where the height returns."""
    enter_v2, height = drt.exit, -1
    while height:
        enter_v2 -= 1
        height += drt.word[enter_v2]
    edges: list[tuple[int, int]] = []
    path = [u]
    for t, s in enumerate(drt.word):
        if s == -1:
            path.pop()
            continue
        if t == enter_v2:
            child = v
        else:
            child = next_id
            next_id += 1
        edges.append((path[-1], child))
        path.append(child)
    return edges, next_id


def branch_substitution_transfer_check(
    h_graph: Multigraph, M: int, rng: random.Random
) -> bool:
    """Substitute a random doubly rooted tree of size <= M for every edge
    and check that the expansion drops by a factor of at most 2M+1.

    Sizes are uniform on 1..M and trees uniform given the size.  Both
    Cheeger constants are exact, and the inequality is compared on ints.
    """
    check_int("M", M, 1)
    base = cheeger_exact(h_graph)
    # on two or more vertices, nothing crosses the best cut exactly when
    # the graph is disconnected
    if base.boundary == 0:
        raise DisconnectedGraphError("substitution needs a connected graph")
    edges: list[tuple[int, int]] = []
    next_id = h_graph.n_vertices
    for u, v in h_graph.edges:
        size = rng.randint(1, M)
        drt = sample_doubly_rooted_tree(size, rng)
        tree_edges, next_id = _tree_as_edges(drt, u, v, next_id)
        edges.extend(tree_edges)
    big = Multigraph(next_id, tuple(edges))
    wit = cheeger_exact(big, cap=max(CHEEGER_CAP, big.n_vertices))
    # h(big) >= h(H) / (2M+1) with both sides multiplied by the smaller
    # volumes, which are positive: every vertex of either graph has an edge
    return wit.boundary * min(base.vol_x, base.vol_complement) * (2 * M + 1) >= (
        base.boundary * min(wit.vol_x, wit.vol_complement)
    )
