"""Core / branch decomposition of a positive-genus one-face map.

With one face, a leaf edge is a dart followed at once by its partner in
the face tour.  So peeling leaves is the matched-pair cancellation that
reduces a Dyck word, applied cyclically, and what survives is the face
word of the *core*: the maximal submap with minimum degree 2.  Genus 0
means the word cancels completely: a plane tree has an empty core.
Contracting the core's degree-2 chains gives a map with minimum degree
3 and the same genus; each core edge then carries a *branch*, the tree
wrapped around that chain, recorded as a doubly rooted plane tree whose
spine is the chain itself.

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

Trimming needs no tree either.  Replacing every branch of >= M edges by
one edge leaves a one-face map whose face word is the segments in face
order, starting from the segment that `core` emits as core dart 0: a
long branch's two segments keep one dart each, their core darts, which
form the new edge, and every other segment keeps all its darts, paired
by alpha as before.  The root stays where it was when its branch is
kept; when its branch collapses, the root is the first segment's one
dart, the single edge's down dart, as `reconstruct` places the mark
``(0,)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator

from .errors import DecompositionError, MalformedMapError, check_int
from .maps import CombinatorialMap, face_tour, from_face_word
from .trees import DoublyRootedTree, dyck_address, dyck_partners, entry_dart

__all__ = [
    "BranchDecomposition",
    "branch_size_profile",
    "core",
    "core_and_branch_sizes",
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


class _Segments:
    """The face tour of a one-face map, cut just before each core dart.

    Segment j is ``tour[cut[j]:cut[j + 1]]`` and starts with the j-th
    core dart met; ``owner[d]`` is the segment holding dart d and
    ``mate[j]`` the segment holding alpha of segment j's core dart.
    """

    def __init__(self, m: CombinatorialMap) -> None:
        n, alpha = m.n_darts, m.alpha
        try:
            tour = face_tour(m)
        except MalformedMapError as exc:
            raise DecompositionError("decomposition needs a one-face map") from exc
        # a leaf edge is a dart followed at once by its partner: cancel
        # such pairs as in reducing a Dyck word, then trim the ends cyclically
        stack: list[int] = []
        for d in tour:
            if stack and stack[-1] == alpha[d]:
                stack.pop()
            else:
                stack.append(d)
        i, j = 0, len(stack) - 1
        while i < j and stack[i] == alpha[stack[j]]:
            i, j = i + 1, j - 1
        word = stack[i : j + 1]
        if not word:
            raise DecompositionError("genus-zero map has an empty core")
        # in the peeled face word sigma(d) is the dart after alpha(d), and
        # a core dart is one whose vertex does not have degree 2
        after = [0] * n
        for d, e in zip(word, word[1:] + word[:1]):
            after[d] = e
        is_core = bytearray(n)
        for d in word:
            is_core[d] = after[alpha[after[alpha[d]]]] != d
        # some vertex has degree >= 3: with one face, a bare cycle's V = E
        # would make the Euler characteristic 1, which is odd
        start = next(t for t, d in enumerate(tour) if is_core[d])
        tour = tour[start:] + tour[:start]
        cut: list[int] = []
        owner = [0] * n
        j = -1
        for t, d in enumerate(tour):
            if is_core[d]:
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

    def sizes(self) -> list[int]:
        """Edge counts of all branches, in increasing order."""
        cut = self.cut
        return sorted(
            [(cut[j + 1] - cut[j] + cut[k + 1] - cut[k]) // 2 for j, k in enumerate(self.mate) if j < k]
        )

    def profile(self, root: int) -> tuple[int, tuple[int, ...]]:
        """Branch sizes with dart ``root`` as the map's root: the marked
        branch's size, then the other branches' sizes sorted.

        It serves one root, the map's own in `branch_size_profile`; the
        census tallies a whole class of rootings with `rootings`.
        """
        marked, sizes = self.size(self.owner[root]), self.sizes()
        sizes.remove(marked)
        return marked, tuple(sizes)

    def rootings(self, period: int) -> Iterator[tuple[int, tuple[int, ...], int]]:
        """`profile` over the roots 0..period-1, as (marked size, other
        sizes, number of roots), where turning by ``period`` darts maps
        the map to itself, as it does a census class's representative.

        A root marks the branch that owns it, and a branch of b edges owns
        2b darts, its two face segments.  The turn is an automorphism, so
        it maps each branch to one of the same size, and the darts of the
        k branches of size b form a turn-invariant set.  The turn permutes
        the 2n/p blocks of p consecutive darts cyclically, so each block,
        0..p-1 among them, holds p/2n of the set's 2bk darts.  The sizes
        are sorted, so the k branches of size b are one run, sizes[i:i+k],
        and the runs come in increasing b.
        """
        n, sizes = len(self.tour), tuple(self.sizes())
        i = 0
        while i < len(sizes):
            b = sizes[i]
            k = bisect_right(sizes, b, i) - i
            roots, rest = divmod(2 * b * k * period, n)
            if rest:
                raise ArithmeticError(
                    f"{2 * b * k} darts of size-{b} branches do not split over "
                    f"{n // period} turns of {period} darts"
                )
            yield b, sizes[:i] + sizes[i + 1 :], roots
            i += k


def core(m: CombinatorialMap) -> BranchDecomposition:
    """Decompose a connected positive-genus one-face map.

    The emitted core carries the face-order labelling of a polygon
    gluing; the inverse is `reconstruct`.
    """
    segs = _Segments(m)
    first, the_core = _rooted_core(segs, m)
    alpha, r = m.alpha, m.root
    n_core = len(segs.mate)
    branches: list[DoublyRootedTree] = []
    marked: tuple[int, ...] = ()
    # one branch per core edge, in core edge order: by the edge's smaller dart
    for i in [d for d, a in enumerate(the_core.alpha) if d < a]:
        contour, split = segs.branch((first + i) % n_core)
        at = {d: t for t, d in enumerate(contour)}
        word = [1 if at[alpha[d]] > t else -1 for t, d in enumerate(contour)]
        branches.append(DoublyRootedTree(word, split))
        if i == 0:
            marked = dyck_address(word, min(at[r], at[alpha[r]]) + 1)
    return BranchDecomposition(core=the_core, branches=tuple(branches), marked_edge=marked)


def core_and_branch_sizes(m: CombinatorialMap) -> tuple[CombinatorialMap, tuple[int, ...]]:
    """``core(m).core`` and the edge counts of its branches, sorted, read
    off one walk around the face without building any branch's tree."""
    segs = _Segments(m)
    return _rooted_core(segs, m)[1], tuple(segs.sizes())


def _first_segment(segs: _Segments, m: CombinatorialMap) -> int:
    """The segment that `core` emits as core dart 0: the root's segment, or
    that segment's mate when the root's branch is presented from the other
    end."""
    alpha, r = m.alpha, m.root
    first = segs.owner[r]
    contour, split = segs.branch(first)
    if contour.index(r) < contour.index(alpha[r]) < split:
        # seen from this end the root would be the down dart of an edge
        # that closes before v2's exit, so the root's branch is presented
        # from the other end
        first = segs.mate[first]
    return first


def _rooted_core(segs: _Segments, m: CombinatorialMap) -> tuple[int, CombinatorialMap]:
    """The core of ``m`` as `core` emits it, and the segment its dart 0
    stands for (see `_first_segment`)."""
    first = _first_segment(segs, m)
    # core dart i of the emitted core is the i-th segment from `first`
    return first, from_face_word([*range(first, len(segs.mate)), *range(first)], segs.mate)


def reconstruct(dec: BranchDecomposition) -> CombinatorialMap:
    """Rebuild the one-face map; exact inverse of `core`.

    The rebuilt face tour follows the core's: each core dart stands for
    its half of its branch's contour, ``[0, exit)`` for the smaller dart
    of the edge and ``[exit, 2k)`` for the larger, where ``exit`` is
    v2's exit.  The tour is then rotated to start at the root.
    """
    # the darts are the steps of the branches' words laid end to end; the
    # words are balanced, so their partners are those of the joined word
    partner = dyck_partners(list(chain.from_iterable([b.word for b in dec.branches])))
    half: dict[int, range] = {}
    end = 0
    for b, (lo, hi) in zip(dec.branches, dec.attachments):
        off, mid, end = end, end + b.exit, end + len(b.word)
        half[lo], half[hi] = range(off, mid), range(mid, end)
    face = list(chain.from_iterable(map(half.__getitem__, face_tour(dec.core))))

    i0 = dec.root_branch_index
    lo, hi = dec.attachments[i0]
    down = half[lo].start + entry_dart(dec.branches[i0].word, dec.marked_edge)
    up = partner[down]
    root = face.index(down if up in half[hi] else up)
    return from_face_word(face[root:] + face[:root], partner)


def core_less_M(m: CombinatorialMap, M: int) -> CombinatorialMap:
    """Replace every branch of >= M edges by a single edge.

    Equal to collapsing those branches of ``core(m)`` and calling
    `reconstruct`, but read off one walk around the face (see the module
    docstring): no branch tree is built.  M is checked before the map.
    """
    check_int("M", M, 2)
    segs = _Segments(m)
    tour, cut, mate = segs.tour, segs.cut, segs.mate
    first = _first_segment(segs, m)
    partner = list(m.alpha)
    kept: list[int] = []
    for j in list(range(first, len(mate))) + list(range(first)):
        if segs.size(j) >= M:
            # the collapsed branch's one edge joins the two core darts
            q = tour[cut[j]]
            partner[q] = tour[cut[mate[j]]]
            kept.append(q)
        else:
            kept.extend(tour[cut[j] : cut[j + 1]])
    root = 0 if segs.size(segs.owner[m.root]) >= M else kept.index(m.root)
    return from_face_word(kept[root:] + kept[:root], partner)


def branch_size_profile(m: CombinatorialMap) -> tuple[int, tuple[int, ...]]:
    """Edge counts of the branches: (root's branch, the rest sorted).

    A branch's size is half the summed lengths of its two face segments,
    so this reads the sizes `core(m)` would give without building any
    tree, which keeps it cheap inside exhaustive scans.
    """
    return _Segments(m).profile(m.root)
