"""Core / branch decomposition of a positive-genus one-face map.

Repeatedly deleting degree-1 vertices leaves the *core*: the maximal
submap with minimum degree 2.  Contracting its degree-2 chains gives a
map with minimum degree 3 and the same genus; each core edge then
carries a *branch*, the tree wrapped around that chain, recorded as a
doubly rooted plane tree whose spine is the chain itself.

Everything is read off one walk around the map's single face.  The
*core darts* are the darts that survive the peel at a vertex of degree
>= 3.  Cutting the face tour just before each core dart splits it into
one *segment* per core dart.  From core dart q at v1, the tour runs down
q's chain v1 -> ... -> v2 through the trees on one side of it, then
through the trees that follow the chain around v2, and stops at the next
core dart there.  The *mate* of q is the core dart at v2 that heads back
along the chain: its segment holds the trees on the other side, alpha(q)
and the trees that follow q around v1.  So the branch of q, presented
from q's end, has the contour segment(q) ++ segment(mate(q)): a dart is
a down-step (+1) when its partner comes later, and *v2's exit*, the
up-step (-1) that leaves v2 along the chain, sits at position
len(segment(q)).  That Dyck word and that exit are what the branch's
`DoublyRootedTree` stores.  The core darts in face order, paired by mate,
are the core as a polygon gluing.

The root dart of the map lies on some branch edge, the *marked edge*.
Its orientation is folded into the choice of presentation end: the root
is the marked edge's down dart exactly when that edge's up dart lies at
or after v2's exit.  Exactly one end of the branch satisfies this rule,
so `core` and `reconstruct` invert each other on the nose, not just up
to rooted isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import DecompositionError, ParameterError
from .maps import CombinatorialMap, face_tour, from_polygon_gluing
from .trees import DoublyRootedTree, dyck_address, dyck_partners, entry_dart

__all__ = [
    "BranchDecomposition",
    "branch_size_profile",
    "core",
    "core_less_M",
    "reconstruct",
]


@dataclass(frozen=True)
class BranchDecomposition:
    """Core map plus the branch data needed to rebuild the original map.

    core: one-face map with minimum degree 3 in face-order labelling
        (a polygon gluing); its darts are the frame for everything below.
    branches: one doubly rooted tree per core edge, listed in core edge
        order (edges sorted by their smaller dart); branch i's v1 end
        attaches at the smaller dart of edge i.
    marked_edge: address of the root edge inside the root branch, i.e.
        of the node its down-step enters (see `trees.entry_dart`).
    """

    core: CombinatorialMap
    branches: tuple[DoublyRootedTree, ...]
    marked_edge: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.branches) != len(self.attachments):
            raise DecompositionError(
                f"{len(self.branches)} branches for {len(self.attachments)} core edges"
            )
        # address must resolve inside the root branch
        entry_dart(self.branches[self.root_branch_index].word, self.marked_edge)

    @cached_property
    def attachments(self) -> tuple[tuple[int, int], ...]:
        """Per branch, the (v1 dart, v2 dart) pair of core darts whose face
        segments the branch contour fills: the core edges in core edge order."""
        return tuple((d, a) for d, a in enumerate(self.core.alpha) if d < a)

    @cached_property
    def root_branch_index(self) -> int:
        """Index of the branch carrying the original root: the core root's edge."""
        r = self.core.root
        a = self.core.alpha[r]
        return self.attachments.index((min(r, a), max(r, a)))

    def core_less_M(self, M: int) -> CombinatorialMap:
        """Rebuild the map with every branch of >= M edges replaced by a
        single edge.

        With M = 2 this is the core itself up to the degree-2 chains; the
        result keeps the root on its branch (collapsed branches move the
        mark to their single surviving edge).
        """
        if M < 2:
            raise ParameterError(f"M must be at least 2, got {M}")
        edge = DoublyRootedTree((1, -1), 1)
        branches = tuple(edge if b.n_edges >= M else b for b in self.branches)
        marked = self.marked_edge
        if self.branches[self.root_branch_index].n_edges >= M:
            marked = (0,)
        return reconstruct(replace(self, branches=branches, marked_edge=marked))


class _Segments:
    """The face tour of a one-face map, cut just before each core dart.

    Segment j is ``tour[cut[j]:cut[j + 1]]`` and starts with the j-th
    core dart met; ``owner[d]`` is the segment holding dart d and
    ``mate[j]`` the segment holding alpha of segment j's core dart.
    """

    def __init__(self, m: CombinatorialMap) -> None:
        n, alpha, sigma, root = m.n_darts, m.alpha, m.sigma, m.root
        tour = [0] * n
        d = root
        for t in range(n):
            tour[t] = d
            d = sigma[alpha[d]]
        # one face: the walk from the root first returns after all n darts
        if d != root or root in tour[1:]:
            raise DecompositionError("decomposition needs a one-face map")
        cycles = m.vertex_cycles()
        # one face: V - E + 1 = 2 - 2g, so V >= E exactly when g = 0
        if len(cycles) >= m.n_edges:
            raise DecompositionError("genus-zero map has an empty core")
        # a vertex is named by its smallest dart, the first of its cycle
        vertex_of = [0] * n
        deg = [0] * n
        for cyc in cycles:
            deg[cyc[0]] = len(cyc)
            for d in cyc:
                vertex_of[d] = cyc[0]
        alive = bytearray([1]) * n
        queue = [cyc[0] for cyc in cycles if len(cyc) == 1]
        while queue:
            v = queue.pop()
            if deg[v] != 1:
                continue
            d = v
            while not alive[d]:
                d = sigma[d]
            e = alpha[d]
            alive[d] = alive[e] = 0
            deg[v] -= 1
            w = vertex_of[e]
            deg[w] -= 1
            if deg[w] == 1:
                queue.append(w)
        is_core = [alive[d] and deg[vertex_of[d]] >= 3 for d in tour]
        # peeling leaves min degree 2; genus >= 1 guarantees some vertex of
        # degree >= 3, otherwise the surviving part would be a bare cycle
        # with genus 0
        if not any(is_core):
            raise DecompositionError("no degree-3 vertex survives peeling")
        start = is_core.index(True)
        tour = tour[start:] + tour[:start]
        is_core = is_core[start:] + is_core[:start]
        cut: list[int] = []
        owner = [0] * n
        j = -1
        for t, d in enumerate(tour):
            if is_core[t]:
                cut.append(t)
                j += 1
            owner[d] = j
        cut.append(n)
        self.tour = tour
        self.cut = cut
        self.owner = owner
        self.mate = [owner[alpha[tour[c]]] for c in cut[:-1]]

    def branch(self, j: int) -> tuple[list[int], int]:
        """Contour of segment j's branch seen from its core dart, and v2's exit."""
        cut, k = self.cut, self.mate[j]
        head = self.tour[cut[j] : cut[j + 1]]
        return head + self.tour[cut[k] : cut[k + 1]], len(head)

    def size(self, j: int) -> int:
        """Edge count of segment j's branch."""
        cut, k = self.cut, self.mate[j]
        return (cut[j + 1] - cut[j] + cut[k + 1] - cut[k]) // 2


def core(m: CombinatorialMap) -> BranchDecomposition:
    """Decompose a connected positive-genus one-face map.

    The emitted core carries the face-order labelling of a polygon
    gluing; the inverse is `reconstruct`.
    """
    segs = _Segments(m)
    alpha, r = m.alpha, m.root
    first = segs.owner[r]
    contour, split = segs.branch(first)
    if contour.index(r) < contour.index(alpha[r]) < split:
        # seen from this end the root would be the down dart of an edge
        # that closes before v2's exit, so the root's branch is presented
        # from the other end
        first = segs.mate[first]
    # core dart i of the emitted core is the i-th segment from `first`
    n_core = len(segs.mate)
    order = [(first + i) % n_core for i in range(n_core)]
    partner = [(segs.mate[j] - first) % n_core for j in order]
    edges = tuple((i, a) for i, a in enumerate(partner) if i < a)
    branches: list[DoublyRootedTree] = []
    marked: tuple[int, ...] = ()
    for i, _ in edges:
        contour, split = segs.branch(order[i])
        at = {d: t for t, d in enumerate(contour)}
        word = [1 if at[alpha[d]] > t else -1 for t, d in enumerate(contour)]
        branches.append(DoublyRootedTree(word, split))
        if i == 0:
            marked = dyck_address(word, min(at[r], at[alpha[r]]) + 1)
    return BranchDecomposition(
        core=from_polygon_gluing(edges, len(edges)),
        branches=tuple(branches),
        marked_edge=marked,
    )


def reconstruct(dec: BranchDecomposition) -> CombinatorialMap:
    """Rebuild the one-face map; exact inverse of `core`.

    The rebuilt face tour follows the core's: each core dart stands for
    its half of its branch's contour, ``[0, exit)`` for the smaller dart
    of the edge and ``[exit, 2k)`` for the larger, where ``exit`` is
    v2's exit.  The tour is then rotated to start at the root.
    """
    half: dict[int, tuple[int, int, int]] = {}
    for i, (b, (lo, hi)) in enumerate(zip(dec.branches, dec.attachments)):
        half[lo] = (i, 0, b.exit)
        half[hi] = (i, b.exit, len(b.word))

    place = [[0] * len(b.word) for b in dec.branches]
    t = 0
    for c in face_tour(dec.core):
        i, start, stop = half[c]
        row = place[i]
        for d in range(start, stop):
            row[d] = t
            t += 1

    partners = [dyck_partners(b.word) for b in dec.branches]
    i0 = dec.root_branch_index
    b0 = dec.branches[i0]
    down = entry_dart(b0.word, dec.marked_edge)
    up = partners[i0][down]
    root = place[i0][down if up >= b0.exit else up]
    pairing = [
        ((row[d] - root) % t, (row[e] - root) % t)
        for partner, row in zip(partners, place)
        for d, e in enumerate(partner)
        if d < e
    ]
    return from_polygon_gluing(pairing, t // 2)


def core_less_M(m: CombinatorialMap, M: int) -> CombinatorialMap:
    """Replace every branch of >= M edges by a single edge.

    Decomposes ``m`` first; a caller that already holds ``core(m)`` calls
    :meth:`BranchDecomposition.core_less_M` on it instead.
    """
    return core(m).core_less_M(M)


def branch_size_profile(m: CombinatorialMap) -> tuple[int, tuple[int, ...]]:
    """Edge counts of the branches: (root's branch, the rest sorted).

    A branch's size is half the summed lengths of its two face segments,
    so this reads the sizes `core(m)` would give without building any
    tree, which keeps it cheap inside exhaustive scans.
    """
    segs = _Segments(m)
    first = segs.owner[m.root]
    root_pair = (first, segs.mate[first])
    others = sorted(
        segs.size(j) for j, k in enumerate(segs.mate) if j < k and j not in root_pair
    )
    return segs.size(first), tuple(others)
