"""Independent oracles the suite checks the library against.

Everything here is deliberately naive: direct recurrences, unrestricted
brute-force searches, permutation walks over explicit dart lists.  Slow but
short enough to audit by eye.  Nothing imports package internals beyond the
public dataclasses, so a bug in the library cannot hide in its own oracle.
The recursion bound at the top is the suite's one shared check that a walk
over a map-sized input is a loop.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from unimap.core import BranchDecomposition
from unimap.errors import (
    EmptySideError,
    EnumerationCapError,
    MalformedMapError,
    ParameterError,
)
from unimap.expansion import CutWitness
from unimap.maps import CombinatorialMap, Multigraph
from unimap.trees import DoublyRootedTree


def _stack_depth() -> int:
    """Frames on the call stack, this one included."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def call_with_recursion_bound(fn, *args):
    """``fn(*args)`` with the recursion limit 40 frames above the caller.

    Code that must not recurse on map-sized inputs runs under this bound,
    so a walk whose depth grows with the input raises ``RecursionError``.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def harer_zagier_table(n_max: int) -> dict[tuple[int, int], int]:
    """epsilon_g(n) = one-face gluings of the 2n-gon with genus g.

    Computed by the two-term recurrence
    (n+1) e_g(n) = (4n-2) e_g(n-1) + (2n-1)(n-1)(2n-3) e_{g-1}(n-2)
    with e_0(n) = Catalan(n).  Exact rationals, asserted integral.
    """
    table: dict[tuple[int, int], int] = {}

    def eps(n: int, g: int) -> Fraction:
        if g < 0 or n < 0 or 2 * g > n:
            return Fraction(0)
        if g == 0:
            return Fraction(catalan(n))
        if (n, g) in table:
            return Fraction(table[(n, g)])
        val = (
            Fraction(4 * n - 2) * eps(n - 1, g)
            + Fraction((2 * n - 1) * (n - 1) * (2 * n - 3)) * eps(n - 2, g - 1)
        ) / (n + 1)
        assert val.denominator == 1
        table[(n, g)] = val.numerator
        return val

    for n in range(n_max + 1):
        for g in range(n // 2 + 1):
            table[(n, g)] = int(eps(n, g))
    return table


def all_matchings(points: tuple[int, ...]):
    """Perfect matchings of an even point set, by direct recursion."""
    if not points:
        yield ()
        return
    a = points[0]
    for i in range(1, len(points)):
        b = points[i]
        rest = points[1:i] + points[i + 1 :]
        for sub in all_matchings(rest):
            yield ((a, b),) + sub


def polygon_map(pairing, n: int) -> CombinatorialMap:
    """Build the 2n-gon gluing without from_polygon_gluing."""
    alpha = [0] * (2 * n)
    for a, b in pairing:
        alpha[a] = b
        alpha[b] = a
    sigma = [(alpha[d] + 1) % (2 * n) for d in range(2 * n)]
    return CombinatorialMap(tuple(alpha), tuple(sigma), 0)


def path_torus(length: int) -> CombinatorialMap:
    """Torus square whose corner before dart 2L holds a path of L edges.

    Genus 1 with one branch ``length + 1`` edges long and a single tree
    ``length + 1`` levels deep; root dart 0 starts the path.
    """
    pairs = [(i, 2 * length - 1 - i) for i in range(length)]
    pairs += [(2 * length, 2 * length + 2), (2 * length + 1, 2 * length + 3)]
    return polygon_map(pairs, length + 2)


def relabel(m: CombinatorialMap, rng) -> CombinatorialMap:
    """The same rooted map with its darts renamed by a uniform permutation.

    The root is carried along, so the result is rooted-isomorphic to ``m``.
    """
    perm = list(range(m.n_darts))
    rng.shuffle(perm)
    alpha = [0] * m.n_darts
    sigma = [0] * m.n_darts
    for d in range(m.n_darts):
        alpha[perm[d]] = perm[m.alpha[d]]
        sigma[perm[d]] = perm[m.sigma[d]]
    return CombinatorialMap(tuple(alpha), tuple(sigma), perm[m.root])


def face_order_relabeling(m: CombinatorialMap) -> tuple[int, ...]:
    """Old-dart -> new-label table walking the single face from the root.

    Applying it gives face permutation ``(0 1 ... 2n-1)`` and root 0, the
    labelling a polygon gluing has.  A rooted isomorphism between two maps
    in this form must fix every dart, so rooted-isomorphic one-face maps
    have equal forms.
    """
    new_label = [-1] * m.n_darts
    d = m.root
    for t in range(m.n_darts):
        new_label[d] = t
        d = m.sigma[m.alpha[d]]
    assert d == m.root and -1 not in new_label, "the map has more than one face"
    return tuple(new_label)


def face_order_form(m: CombinatorialMap) -> CombinatorialMap:
    """Relabel a one-face map into its polygon-gluing labelling."""
    new_label = face_order_relabeling(m)
    alpha = [0] * m.n_darts
    sigma = [0] * m.n_darts
    for d in range(m.n_darts):
        alpha[new_label[d]] = new_label[m.alpha[d]]
        sigma[new_label[d]] = new_label[m.sigma[d]]
    return CombinatorialMap(tuple(alpha), tuple(sigma), 0)


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        d = start
        while not seen[d]:
            seen[d] = True
            length += 1
            d = perm[d]
        lengths.append(length)
    return lengths


def corner_genus(m: CombinatorialMap) -> int:
    """Genus by counting permutation cycles from scratch (Euler formula)."""
    v = len(_cycle_lengths(m.sigma))
    f = len(_cycle_lengths(tuple(m.sigma[m.alpha[d]] for d in range(m.n_darts))))
    e = m.n_darts // 2
    two_minus_2g = v - e + f
    assert (2 - two_minus_2g) % 2 == 0
    return (2 - two_minus_2g) // 2


def rejection_fixed_genus(n: int, g: int, rng) -> CombinatorialMap:
    """A uniform genus-g gluing of the 2n-gon, by rejecting uniform gluings.

    A uniform pairing comes from matching the smallest free side with a
    uniform partner; restricted to a genus class the gluings stay uniform.
    The expected number of tries is (2n-1)!!/eps_g(n), so keep n small.
    """
    while True:
        free = list(range(2 * n))
        pairing = []
        while free:
            a = free.pop(0)
            pairing.append((a, free.pop(rng.randrange(len(free)))))
        m = polygon_map(pairing, n)
        if corner_genus(m) == g:
            return m


def vertex_corners(alpha) -> list[int]:
    """One dart per vertex of a polygon gluing, sorted by face position.

    ``alpha`` is the edge involution in face order (sigma(d) = alpha(d)+1
    mod 2n).  Each vertex is represented by the dart d minimising
    (d - 1) mod 2n, its first corner after the root corner; the root dart
    0 ranks last.  This is how the fixed-genus sampler ranks the vertices
    it draws from.
    """
    n_darts = len(alpha)
    seen = bytearray(n_darts)
    corners = []
    for r in range(1, n_darts + 1):
        d = r % n_darts
        if seen[d]:
            continue
        corners.append(d)
        while not seen[d]:
            seen[d] = 1
            d = alpha[d] + 1
            if d == n_darts:
                d = 0
    return corners


def glue_corners(alpha, corners) -> list[int]:
    """Merge the vertices at ``corners`` (2p+1 of them, in face order).

    The new rotation is tau∘sigma with tau the cycle (c_1 ... c_{2p+1}),
    so the new face walks the old one as the slices [0,c_1) [c_2,c_3) ...
    [c_{2p},c_{2p+1}) [c_1,c_2) ... [c_{2p+1},2n), the root dart counting
    as 2n.  Returned relabelled in that order, as the edge involution of
    the glued polygon: one face, and genus p higher.
    """
    n_darts = len(alpha)
    cuts = [0, *[c or n_darts for c in corners], n_darts]
    pos = [0] * n_darts  # old dart -> new label
    moved: list[int] = []  # the old partners, in the new order
    t = 0
    for i in (*range(0, len(cuts) - 1, 2), *range(1, len(cuts) - 1, 2)):
        lo, hi = cuts[i], cuts[i + 1]
        pos[lo:hi] = range(t, t + hi - lo)
        moved += alpha[lo:hi]
        t += hi - lo
    return [pos[a] for a in moved]


def glue_corners_reference(alpha, corners) -> list[int]:
    """Merge the vertices at ``corners`` (2p+1 of them, in face order), as
    `glue_corners` does, but by walking the new face d -> tau(d+1), tau
    the cycle (c_1 c_2 ... c_{2p+1}), from the root, one dart at a time,
    and relabelling in that order."""
    n_darts = len(alpha)
    tau = dict(zip(corners, [*corners[1:], corners[0]]))
    pos = [-1] * n_darts
    order = []
    d = 0
    for t in range(n_darts):
        pos[d] = t
        order.append(d)
        d += 1
        if d == n_darts:
            d = 0
        d = tau.get(d, d)
    if -1 in pos:
        raise MalformedMapError("vertex gluing split the face")
    return [pos[alpha[d]] for d in order]


def min_degree3_counts(e: int) -> dict[int, int]:
    """Rooted one-face maps with e edges and every vertex degree >= 3, by genus.

    Every gluing of the 2e-gon; a vertex's degree is the length of its
    sigma-cycle.
    """
    counts: dict[int, int] = {}
    for pairing in all_matchings(tuple(range(2 * e))):
        m = polygon_map(pairing, e)
        if min(_cycle_lengths(m.sigma)) >= 3:
            g = corner_genus(m)
            counts[g] = counts.get(g, 0) + 1
    return counts


def c_times_d_power(n: int, power: int) -> int:
    """[z^n] C(z) * D(z)**power by multiplying truncated series.

    T_k = Cat(k) for k >= 1, D = T + T*D (the path decomposition) and
    C = z*D'; every coefficient is an int.
    """
    t = [0] + [catalan(k) for k in range(1, n + 1)]
    d = [0] * (n + 1)
    for k in range(1, n + 1):
        d[k] = t[k] + sum(t[i] * d[k - i] for i in range(1, k))
    prod = [k * d[k] for k in range(n + 1)]
    for _ in range(power):
        prod = [sum(prod[i] * d[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return prod[n]


def branch_profile_law(
    n: int, e: int, beta: Fraction
) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """Conditional law of (marked size, sorted other sizes) given e core edges.

    A recursive walk over the sorted sizes of the e - 1 other branches, the
    marked branch taking what is left of n.  A profile weighs
    marked * dt_marked * prod(dt_y) * beta**n times the orderings of the
    others, with dt_k = binom(2k-1, k-1); the weights are normalised.
    """

    def dt(k: int) -> int:
        return math.comb(2 * k - 1, k - 1)

    weights: dict[tuple[int, tuple[int, ...]], Fraction] = {}

    def rec(remaining: int, slots: int, chosen: tuple[int, ...]) -> None:
        if slots == 0:
            if remaining >= 1:
                orderings = math.factorial(len(chosen))
                for y in set(chosen):
                    orderings //= math.factorial(chosen.count(y))
                w = Fraction(remaining * dt(remaining) * orderings) * beta**remaining
                for y in chosen:
                    w *= dt(y) * beta**y
                key = (remaining, tuple(sorted(chosen)))
                weights[key] = weights.get(key, Fraction(0)) + w
            return
        # leave at least 1 edge for the marked branch and each further slot
        for y in range(1, remaining - slots + 1):
            if chosen and y < chosen[-1]:
                continue  # enumerate sorted tuples once
            rec(remaining - y, slots - 1, chosen + (y,))

    rec(n, e - 1, ())
    total = sum(weights.values())
    if total == 0:
        return {}
    return {k: v / total for k, v in weights.items()}


def expected_marked_size(beta: float) -> float:
    """E(X_beta) = beta*C'(beta)/C(beta) = 1 + 6*beta/(1-4*beta), the mean
    of the marked branch-size law."""
    return 1.0 + 6.0 * beta / (1.0 - 4.0 * beta)


def sup_rate_over_block(rate_function, eta: float, y_cap: float) -> float:
    """sup of ``rate_function(u, y)`` over u in [eta, 1], y in [0, y_cap].

    The package's earlier scan, kept as it was, with the rate passed in:
    for fixed u the rate is unimodal in y with maximiser y* = u - u^2/2,
    so the supremum over the interval is attained at min(y_cap, y*).
    Over u it scans a grid of step 1e-3, the whole grid every time.
    """
    best = -math.inf
    steps = max(1, round((1.0 - eta) / 1e-3))
    for i in range(steps + 1):
        u = min(1.0, eta + i * 1e-3)
        y = min(y_cap, u - 0.5 * u * u)
        val = rate_function(u, y)
        if val > best:
            best = val
    return best


def core_less_M_by_reconstruct(dec: BranchDecomposition, M: int, reconstruct) -> CombinatorialMap:
    """The map of ``dec`` with every branch of >= M edges replaced by a
    single edge: the package's earlier trim, kept as it was, with
    `core.reconstruct` passed in.

    The long branches become the one-edge tree and `reconstruct` rebuilds
    the map; a collapsed root branch moves the mark to its single edge.
    """
    if M < 2:
        raise ParameterError(f"M must be an int >= 2, got {M!r}")
    edge = DoublyRootedTree((1, -1), 1)
    branches = tuple(edge if b.n_edges >= M else b for b in dec.branches)
    marked = dec.marked_edge
    if dec.branches[dec.root_branch_index].n_edges >= M:
        marked = (0,)
    return reconstruct(replace(dec, branches=branches, marked_edge=marked))


def write_multigraph(g: Multigraph) -> str:
    """Edge-list text: header ``p mg <n_vertices> <n_edges>``, one edge per line."""
    lines = [f"p mg {g.n_vertices} {g.n_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def adjacency(g: Multigraph) -> list[list[int]]:
    """Neighbour lists without multiplicity; loops do not add neighbours."""
    adj: list[set[int]] = [set() for _ in range(g.n_vertices)]
    for u, v in g.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(s) for s in adj]


def components(g: Multigraph) -> list[list[int]]:
    """Vertex sets of the connected components (loops ignored), each sorted,
    listed by their smallest vertex."""
    adj = adjacency(g)
    seen = bytearray(g.n_vertices)
    comps = []
    for start in range(g.n_vertices):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = 1
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def h_value(g: Multigraph, subset) -> CutWitness:
    """Exact expansion of one cut, by a rescan of every edge.

    Loops lie entirely on their own side, so they add to volume and never
    to the boundary.  Both sides must be nonempty.
    """
    x = frozenset(subset)
    if not x:
        raise EmptySideError("subset is empty")
    if not x <= set(range(g.n_vertices)):
        raise ParameterError(f"subset {sorted(x)} out of range")
    if len(x) == g.n_vertices:
        raise EmptySideError("complement is empty")
    boundary = sum(1 for u, v in g.edges if (u in x) != (v in x))
    vol_x = sum(g.degrees[v] for v in x)
    return CutWitness(tuple(sorted(x)), boundary, vol_x, sum(g.degrees) - vol_x)


def brute_cheeger_value(g: Multigraph) -> Fraction:
    """min over every nonempty proper vertex subset, no restrictions at all."""
    n = g.n_vertices
    best: Fraction | None = None
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            inside = set(subset)
            boundary = sum(1 for u, v in g.edges if (u in inside) != (v in inside))
            if boundary == 0:
                h = Fraction(0)
            else:
                # a crossing edge puts a dart on each side, so min vol > 0
                vol_x = sum(g.degrees[v] for v in inside)
                h = Fraction(boundary, min(vol_x, sum(g.degrees) - vol_x))
            if best is None or h < best:
                best = h
    assert best is not None
    return best


def brute_cheeger_in_family(g: Multigraph) -> tuple[Fraction, tuple[int, ...]]:
    """Best cut among connected subsets with vol <= half, lex-min witness."""
    n = g.n_vertices
    adj = adjacency(g)
    total = sum(g.degrees)
    best_h: Fraction | None = None
    best_set: tuple[int, ...] | None = None
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            inside = set(subset)
            # connectivity of the induced subgraph
            stack = [subset[0]]
            seen = {subset[0]}
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != inside:
                continue
            vol_x = sum(g.degrees[v] for v in inside)
            if 2 * vol_x > total:
                continue
            boundary = sum(1 for u, v in g.edges if (u in inside) != (v in inside))
            h = Fraction(0) if boundary == 0 else Fraction(boundary, vol_x)
            if best_h is None or h < best_h or (h == best_h and subset < best_set):
                best_h, best_set = h, subset
    assert best_h is not None and best_set is not None
    return best_h, best_set


def cheeger_exact_reference(g: Multigraph, *, cap: int = 24) -> CutWitness:
    """Minimum of h over all cuts, with an argmin witness.

    The package's earlier exact engine, kept as it was: an n x n
    multiplicity table, a component search on every call, and the best
    cut held as a subset tuple.  `expansion.cheeger_exact` must return an
    equal witness.

    Enumerates connected subsets grown upward from their minimum vertex,
    pruning once the volume passes half of the total; ties go to the
    lexicographically smallest subset.  Disconnected graphs short-circuit
    to h = 0 with a component as the witness.
    """
    n = g.n_vertices
    if n < 2:
        raise EmptySideError("expansion needs at least two vertices")
    if n > cap:
        raise EnumerationCapError(f"{n} vertices exceeds the exact cap {cap}")
    comps = components(g)
    if len(comps) > 1:
        return h_value(g, comps[0])

    deg = g.degrees
    total = sum(deg)
    # layers[v][k] is the bitmask of the neighbours joined to v by more
    # than k edges, so v's edge count into a subset is the sum of the
    # layers' overlaps with it; loops never cross a cut
    mult_row = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        if u != v:
            mult_row[u][v] += 1
            mult_row[v][u] += 1
    layers = [
        [sum(1 << u for u in range(n) if row[u] > k) for k in range(max(row))]
        for row in mult_row
    ]
    # connected with two or more vertices: every vertex has a neighbour
    adj_mask = [layer[0] for layer in layers]
    plain_deg = [sum(row) for row in mult_row]

    best: tuple[int, int, tuple[int, ...]] | None = None  # (boundary, small-vol, subset)

    def consider(mask: int, vol: int, boundary: int) -> None:
        nonlocal best
        small = min(vol, total - vol)
        if best is not None:
            b_bnd, b_small, b_sub = best
            if boundary * b_small > b_bnd * small:
                return
            if boundary * b_small == b_bnd * small:
                subset = tuple(v for v in range(n) if mask >> v & 1)
                if subset >= b_sub:
                    return
                best = (boundary, small, subset)
                return
        best = (boundary, small, tuple(v for v in range(n) if mask >> v & 1))

    for anchor in range(n):
        if 2 * deg[anchor] > total:
            continue
        above = ~((1 << (anchor + 1)) - 1)
        start = 1 << anchor
        consider(start, deg[anchor], plain_deg[anchor])
        # states: (subset mask, candidates, permanently banned, vol, boundary);
        # each connected subset with minimum vertex = anchor shows up exactly
        # once because siblings ban every candidate branched on before them
        stack = [(start, adj_mask[anchor] & above, 0, deg[anchor], plain_deg[anchor])]
        while stack:
            mask, cand, banned, vol, bnd = stack.pop()
            tried = 0
            c = cand
            while c:
                vbit = c & -c
                c ^= vbit
                new_vol = vol + deg[vbit.bit_length() - 1]
                if 2 * new_vol <= total:
                    v = vbit.bit_length() - 1
                    into = sum((mask & layer).bit_count() for layer in layers[v])
                    new_bnd = bnd + plain_deg[v] - 2 * into
                    new_mask = mask | vbit
                    consider(new_mask, new_vol, new_bnd)
                    new_banned = banned | tried
                    new_cand = ((cand & ~tried & ~vbit) | (adj_mask[v] & above)) & ~new_mask & ~new_banned
                    stack.append((new_mask, new_cand, new_banned, new_vol, new_bnd))
                tried |= vbit

    if best is None:
        raise EmptySideError("no subset with volume at most half the total")
    return h_value(g, best[2])


def brute_subset_volume_count(degrees: tuple[int, ...], volume: int) -> int:
    count = 0
    for r in range(len(degrees) + 1):
        for subset in itertools.combinations(range(len(degrees)), r):
            if sum(degrees[i] for i in subset) == volume:
                count += 1
    return count


def brute_doubly_rooted_count(k: int, trees) -> int:
    """Second roots = nodes of the first child's closed subtree, summed."""

    def size(node) -> int:
        return 1 + sum(size(c) for c in node)

    return sum(size(tree[0]) for tree in trees)


def dyck_words(k: int):
    """Every Dyck word with k up-steps: place the up-steps every way and keep
    the arrangements whose running height never goes negative."""
    for ups in itertools.combinations(range(2 * k), k):
        word = [-1] * (2 * k)
        for i in ups:
            word[i] = 1
        if min(itertools.accumulate(word), default=0) >= 0:
            yield tuple(word)


def enumerate_doubly_rooted_trees(k: int) -> list[DoublyRootedTree]:
    """All doubly rooted trees with k edges, in canonical form: each Dyck
    word with v2's exit at a down-step no later than the first return to
    height 0."""
    out = []
    for word in dyck_words(k):
        first_return = list(itertools.accumulate(word)).index(0)
        out.extend(DoublyRootedTree(word, t) for t in range(1, first_return + 1) if word[t] == -1)
    return out


def enumerate_pairings_recursive(n_pairs: int):
    """The perfect matchings of 0..2*n_pairs-1 in lexicographic order, by
    the recursive generator `enumerate_pairings` used to be: pair the
    least free point with each later free point in turn, then recurse."""
    n = 2 * n_pairs
    used = bytearray(n)
    pairs: list[tuple[int, int]] = []

    def rec(start: int):
        a = start
        while a < n and used[a]:
            a += 1
        if a == n:
            yield tuple(pairs)
            return
        used[a] = 1
        for b in range(a + 1, n):
            if used[b]:
                continue
            used[b] = 1
            pairs.append((a, b))
            yield from rec(a + 1)
            pairs.pop()
            used[b] = 0
        used[a] = 0

    return rec(0)


def chord_word_starts_least(pairing, n: int) -> bool:
    """Whether the chord word c[d] = alpha[d] - d mod 2n of a 2n-gon gluing
    has its least letter at dart 0, on the whole word."""
    alpha = [0] * (2 * n)
    for a, b in pairing:
        alpha[a], alpha[b] = b, a
    c = [(a - d) % (2 * n) for d, a in enumerate(alpha)]
    return c[0] == min(c)


def rooting_tally_by_counter(sizes: list[int], n_darts: int, period: int):
    """The census tally of one class of turns as `_Segments.rootings` made
    it with a Counter: for each branch size b, in first-seen order, b, the
    sorted sizes without one b, and the roots among 0..period-1 whose
    branch has size b, k branches of size b holding 2bk of the darts."""
    out = []
    for b, k in Counter(sizes).items():
        roots, rest = divmod(2 * b * k * period, n_darts)
        if rest:
            raise ArithmeticError(f"{2 * b * k} darts do not split over {n_darts // period} turns")
        i = sizes.index(b)
        out.append((b, tuple(sizes[:i] + sizes[i + 1 :]), roots))
    return out


def doubly_rooted_check_by_partners(word, exit) -> None:
    """The validation `DoublyRootedTree` made through the whole partner
    table of its Dyck word: raises ``ParameterError`` with the same
    messages, returns ``None`` on a valid (word, exit)."""
    partner = [0] * len(word)
    opened: list[int] = []
    for i, s in enumerate(word):
        if s == 1:
            opened.append(i)
        elif s == -1 and opened:
            j = opened.pop()
            partner[i], partner[j] = j, i
        else:
            raise ParameterError(f"not a Dyck word: step {s!r} at height {len(opened)}")
    if opened:
        raise ParameterError("unbalanced Dyck word")
    if type(exit) is not int or exit < 1:
        raise ParameterError(f"exit must be an int >= 1, got {exit!r}")
    if not partner or exit > partner[0] or word[exit] != -1:
        raise ParameterError(f"exit {exit} is not a -1 step under the first child")
