"""Core / branch decomposition of a positive-genus one-face map.

Repeatedly deleting degree-1 vertices leaves the *core*: the maximal
submap with minimum degree 2.  Contracting its degree-2 chains gives a
map with minimum degree 3 and the same genus; each core edge then
carries a *branch*, the tree wrapped around that chain, recorded as a
doubly rooted plane tree whose spine is the chain itself.

Trees hang off the chain in corners.  The assignment rule is by the
clockwise corner: a tree rooted in the corner immediately after a
surviving dart q (in rotation order) belongs to q's branch.  Under this
rule the branch of a chain v1 -> u_1 -> ... -> v2, seen from the v1 end,
is exactly the doubly rooted tree with spine vertices u_i and, at each
u_i, children = (trees after the incoming reversed dart) ++ (next spine
edge) ++ (trees after the outgoing dart).

The root dart of the map lives on some branch edge.  We store its
position as the address of that edge in the branch's presentation,
plus one orientation bit folded into the choice of presentation end:
the presentation is taken from the end (v1 or v2) that makes the
root dart agree with the marked edge's parent-side dart exactly when
the edge sits on the v1 side of the branch (on the spine or hanging
off its v1 flank).  Both `core` and `reconstruct` evaluate the same
side predicate, so the round trip is exact on the nose, not just up
to rooted isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DecompositionError, ParameterError
from .maps import CombinatorialMap, face_order_form, face_order_relabeling
from .trees import DoublyRootedTree, Tree, children_to_map, entry_dart

__all__ = [
    "BranchDecomposition",
    "branch_size_profile",
    "core",
    "core_less_M",
    "reconstruct",
]


def _marks_v1_side(path: tuple[int, ...], addr: tuple[int, ...]) -> bool:
    """Whether the edge at `addr` sits on the v1 side of the doubly rooted tree.

    Spine edges count as v1-side.  A hanging edge is v1-side when its
    attachment to the spine comes clockwise after the spine continuation,
    i.e. its address branches off above the path in address order.
    """
    if len(addr) <= len(path) and path[: len(addr)] == addr:
        return True
    i = 0
    while i < len(path) and i < len(addr) and path[i] == addr[i]:
        i += 1
    if i == len(path):
        # hangs below v2; v2's trees sit after the incoming spine dart
        return False
    return addr[i] > path[i]


@dataclass(frozen=True)
class BranchDecomposition:
    """Core map plus the branch data needed to rebuild the original map.

    core: one-face map with minimum degree 3 in face-order labelling
        (a polygon gluing); its darts are the frame for everything below.
    branches: one doubly rooted tree per core edge, listed in core edge
        order (edges sorted by their smaller dart); branch i's v1 end
        attaches at the smaller dart of edge i.
    root_branch_index: index of the branch carrying the original root.
    marked_edge: address of the root edge inside that branch.
    attachments: per branch, the (v1 dart, v2 dart) pair of core darts
        whose corners the branch spine replaces.
    """

    core: CombinatorialMap
    branches: tuple[DoublyRootedTree, ...]
    root_branch_index: int
    marked_edge: tuple[int, ...]
    attachments: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = _core_edges(self.core)
        if len(self.branches) != len(edges):
            raise DecompositionError(
                f"{len(self.branches)} branches for {len(edges)} core edges"
            )
        if self.attachments != edges:
            raise DecompositionError("attachments disagree with core edge list")
        root_edge = edges.index(
            (
                min(self.core.root, self.core.alpha[self.core.root]),
                max(self.core.root, self.core.alpha[self.core.root]),
            )
        )
        if self.root_branch_index != root_edge:
            raise DecompositionError("root branch is not the core root's edge")
        # address must resolve inside the root branch
        entry_dart(self.branches[self.root_branch_index].tree, self.marked_edge)

    @property
    def total_size(self) -> int:
        """Edge count of the reconstructed map."""
        return sum(b.n_edges for b in self.branches)

    def core_less_M(self, M: int) -> CombinatorialMap:
        """Rebuild the map with every branch of >= M edges replaced by a
        single edge.

        With M = 2 this is the core itself up to the degree-2 chains; the
        result keeps the root on its branch (collapsed branches move the
        mark to their single surviving edge).
        """
        if M < 2:
            raise ParameterError(f"M must be at least 2, got {M}")
        branches = tuple(
            DoublyRootedTree(((),), (0,)) if b.n_edges >= M else b
            for b in self.branches
        )
        marked = self.marked_edge
        if self.branches[self.root_branch_index].n_edges >= M:
            marked = (0,)
        return reconstruct(replace(self, branches=branches, marked_edge=marked))


def _core_edges(m: CombinatorialMap) -> tuple[tuple[int, int], ...]:
    return tuple(
        sorted((d, m.alpha[d]) for d in range(m.n_darts) if d < m.alpha[d])
    )


class _Skeleton:
    """Peeled view of a map: surviving darts, chain sides, tree corners."""

    def __init__(self, m: CombinatorialMap) -> None:
        # one face implies connected
        if m.n_faces() != 1:
            raise DecompositionError("decomposition needs a one-face map")
        self.m = m
        self.alpha = m.alpha
        self.sigma = m.sigma
        self.vertex_of = m.vertex_of()
        deg: dict[int, int] = {}
        for d in range(m.n_darts):
            deg[self.vertex_of[d]] = deg.get(self.vertex_of[d], 0) + 1
        # one face: V - E + 1 = 2 - 2g, so V >= E exactly when g = 0
        if len(deg) >= m.n_edges:
            raise DecompositionError("genus-zero map has an empty core")
        alive = bytearray([1]) * m.n_darts
        queue = [v for v, k in deg.items() if k == 1]
        while queue:
            v = queue.pop()
            if deg[v] != 1:
                continue
            # a vertex id is its smallest dart, so v itself is on the rotation
            d = v
            while not alive[d]:
                d = self.sigma[d]
            e = self.alpha[d]
            alive[d] = alive[e] = 0
            deg[v] -= 1
            w = self.vertex_of[e]
            deg[w] -= 1
            if deg[w] == 1:
                queue.append(w)
        self.alive = alive
        self.deg = deg
        # peeling leaves min degree 2; genus >= 1 guarantees some vertex of
        # degree >= 3, otherwise the surviving part would be a bare cycle
        # with genus 0
        if not any(deg[self.vertex_of[d]] >= 3 for d in range(m.n_darts) if alive[d]):
            raise DecompositionError("no degree-3 vertex survives peeling")
        self.sides: dict[int, tuple[int, ...]] = {}
        self.mate: dict[int, int] = {}
        for q in range(m.n_darts):
            if alive[q] and deg[self.vertex_of[q]] >= 3:
                side = self._trace(q)
                self.sides[q] = side
                self.mate[q] = self.alpha[side[-1]]
        self._assign_edges()

    def next_alive(self, d: int) -> int:
        e = self.sigma[d]
        while not self.alive[e]:
            e = self.sigma[e]
        return e

    def _trace(self, q: int) -> tuple[int, ...]:
        path = [q]
        while True:
            e = self.alpha[path[-1]]
            if self.deg[self.vertex_of[e]] >= 3:
                return tuple(path)
            if len(path) > self.m.n_darts:
                raise DecompositionError("chain trace failed to close")
            path.append(self.next_alive(e))

    def _dead_run(self, q: int) -> list[int]:
        """Tree roots in the corner clockwise after surviving dart q."""
        run = []
        e = self.sigma[q]
        while not self.alive[e]:
            run.append(e)
            e = self.sigma[e]
        return run

    def _subtree_edge_count(self, t: int, key: int, tag: dict[int, int]) -> int:
        count = 0
        stack = [t]
        while stack:
            d = stack.pop()
            tag[min(d, self.alpha[d])] = key
            count += 1
            e = self.sigma[self.alpha[d]]
            while e != self.alpha[d]:
                stack.append(e)
                e = self.sigma[e]
        return count

    def _assign_edges(self) -> None:
        """Branch key (smaller side dart) and edge count for every branch."""
        sizes: dict[int, int] = {}
        tag: dict[int, int] = {}
        for q, side in self.sides.items():
            key = min(q, self.mate[q])
            bucket = sizes.get(key, 0)
            if q == key:
                bucket += len(side)
                for p in side:
                    tag[min(p, self.alpha[p])] = key
            for p in side:
                for t in self._dead_run(p):
                    bucket += self._subtree_edge_count(t, key, tag)
            sizes[key] = bucket
        self.branch_sizes = sizes
        self.branch_of_edge = tag

    def present(
        self, q_first: int
    ) -> tuple[Tree, tuple[int, ...], dict[int, tuple[tuple[int, ...], int]]]:
        """Branch of side q_first as seen from that end.

        Returns (children tree, spine address, edge table), the table
        mapping each edge (smaller original dart) to (address, dart on
        the parent side of that edge in this presentation).
        """
        side = self.sides[q_first]
        alpha, sigma = self.alpha, self.sigma
        table: dict[int, tuple[tuple[int, ...], int]] = {}
        spine: list[int] = [0]

        def subtree(t: int, addr: tuple[int, ...]) -> Tree:
            table[min(t, alpha[t])] = (addr, t)
            kids: list[Tree] = []
            back = alpha[t]
            e = sigma[back]
            while e != back:
                kids.append(subtree(e, addr + (len(kids),)))
                e = sigma[e]
            return tuple(kids)

        def spine_node(i: int, addr: tuple[int, ...]) -> Tree:
            q_in = side[i - 1]
            table[min(q_in, alpha[q_in])] = (addr, q_in)
            back = alpha[q_in]
            kids: list[Tree] = []
            if i == len(side):
                # far endpoint: only its own corner's trees belong here
                e = sigma[back]
                while not self.alive[e]:
                    kids.append(subtree(e, addr + (len(kids),)))
                    e = sigma[e]
            else:
                q_out = side[i]
                e = sigma[back]
                while e != back:
                    if e == q_out:
                        spine.append(len(kids))
                        kids.append(spine_node(i + 1, addr + (len(kids),)))
                    else:
                        kids.append(subtree(e, addr + (len(kids),)))
                    e = sigma[e]
            return tuple(kids)

        kids: list[Tree] = [spine_node(1, (0,))]
        e = sigma[q_first]
        while not self.alive[e]:
            kids.append(subtree(e, (len(kids),)))
            e = sigma[e]
        return tuple(kids), tuple(spine), table


def core(m: CombinatorialMap) -> BranchDecomposition:
    """Decompose a connected positive-genus one-face map.

    The emitted core carries the face-order labelling of a polygon
    gluing; the inverse is `reconstruct`.
    """
    sk = _Skeleton(m)
    r = m.root
    root_key = sk.branch_of_edge[min(r, m.alpha[r])]
    side_a, side_b = root_key, sk.mate[root_key]
    tree, path, table = sk.present(side_a)
    addr, down = table[min(r, m.alpha[r])]
    chosen = side_a
    if (down == r) != _marks_v1_side(path, addr):
        chosen = side_b
        tree, path, table = sk.present(side_b)
        addr, down = table[min(r, m.alpha[r])]
        if (down == r) != _marks_v1_side(path, addr):
            raise DecompositionError("root encoding failed on both chain ends")

    order = sorted(sk.sides)
    index = {d: i for i, d in enumerate(order)}
    alpha_c = tuple(index[sk.mate[d]] for d in order)
    sigma_c = tuple(index[sk.next_alive(d)] for d in order)
    tmp = CombinatorialMap(len(order), alpha_c, sigma_c, index[chosen])
    relab = face_order_relabeling(tmp)
    core_map = face_order_form(tmp)
    side_of_new = {relab[index[d]]: d for d in order}

    edges = _core_edges(core_map)
    branches: list[DoublyRootedTree] = []
    for a, _b in edges:
        q = side_of_new[a]
        if q == chosen:
            branches.append(DoublyRootedTree(tree, path))
        else:
            t, p, _ = sk.present(q)
            branches.append(DoublyRootedTree(t, p))
    return BranchDecomposition(
        core=core_map,
        branches=tuple(branches),
        root_branch_index=0,
        marked_edge=addr,
        attachments=edges,
    )


def reconstruct(dec: BranchDecomposition) -> CombinatorialMap:
    """Rebuild the one-face map; exact inverse of `core`."""
    cm = dec.core
    edges = _core_edges(cm)
    edge_index = {d: i for i, (a, b) in enumerate(edges) for d in (a, b)}

    locals_: list[CombinatorialMap] = []
    entries: list[int] = []
    offsets: list[int] = []
    total = 0
    for b in dec.branches:
        lm = children_to_map(b.tree)
        locals_.append(lm)
        entries.append(entry_dart(b.tree, b.path))
        offsets.append(total)
        total += lm.n_darts

    alpha = [0] * total
    sigma = [0] * total
    for lm, off in zip(locals_, offsets):
        for d in range(lm.n_darts):
            alpha[off + d] = off + lm.alpha[d]
            sigma[off + d] = off + lm.sigma[d]

    def end_segment(core_dart: int) -> list[int]:
        """Rotation segment this core dart contributes at its vertex."""
        i = edge_index[core_dart]
        lm, off = locals_[i], offsets[i]
        start = 0 if core_dart == edges[i][0] else lm.alpha[entries[i]]
        seg = [start]
        e = lm.sigma[start]
        while e != start:
            seg.append(e)
            e = lm.sigma[e]
        return [off + d for d in seg]

    seen = [False] * cm.n_darts
    for d0 in range(cm.n_darts):
        if seen[d0]:
            continue
        cycle = [d0]
        seen[d0] = True
        e = cm.sigma[d0]
        while e != d0:
            cycle.append(e)
            seen[e] = True
            e = cm.sigma[e]
        merged: list[int] = []
        for c in cycle:
            merged.extend(end_segment(c))
        for t, d in enumerate(merged):
            sigma[d] = merged[(t + 1) % len(merged)]

    i0 = dec.root_branch_index
    down = offsets[i0] + entry_dart(dec.branches[i0].tree, dec.marked_edge)
    flag = _marks_v1_side(dec.branches[i0].path, dec.marked_edge)
    root = down if flag else alpha[down]
    raw = CombinatorialMap(total, tuple(alpha), tuple(sigma), root)
    # one-face maps have a distinguished labelling (darts in face order from
    # the root, as a polygon gluing); emitting it makes the round trip exact
    return face_order_form(raw)


def core_less_M(m: CombinatorialMap, M: int) -> CombinatorialMap:
    """Replace every branch of >= M edges by a single edge.

    Decomposes ``m`` first; a caller that already holds ``core(m)`` calls
    :meth:`BranchDecomposition.core_less_M` on it instead.
    """
    return core(m).core_less_M(M)


def branch_size_profile(m: CombinatorialMap) -> tuple[int, tuple[int, ...]]:
    """Edge counts of the branches: (root's branch, the rest sorted).

    Equivalent to reading sizes off `core(m)` but skips building the
    tree tuples, so it stays cheap inside exhaustive scans.
    """
    sk = _Skeleton(m)
    root_key = sk.branch_of_edge[min(m.root, m.alpha[m.root])]
    others = sorted(v for k, v in sk.branch_sizes.items() if k != root_key)
    return sk.branch_sizes[root_key], tuple(others)
