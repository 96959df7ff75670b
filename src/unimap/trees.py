"""Plane trees and doubly rooted trees.

A rooted plane tree is stored as its Dyck word, a tuple of steps: ``1``
goes down an edge to a new child, ``-1`` comes back up.  Step t is dart t
of the tree's map in contour (face) order, root dart first, and a step's
matched partner (`dyck_partners`) is its dart's alpha.  A non-root node
is also named by its *address*, the child indices on the way down from
the root (`dyck_address`, inverted by `entry_dart`); `dyck_to_children`
gives the nested-tuple view, a node being the tuple of its children.

A doubly rooted tree is an isomorphism class of (plane tree, ordered pair of
distinct vertices).  The two marks make the object rigid, so each class has
a canonical rooted representative: root the tree at the first dart of the
v1 -> v2 path, so v1 is the root and v2 lies in the closed subtree of the
root's first child.  It is stored as the word plus v2's *exit*, the ``-1``
step that leaves v2 towards the root; canonical means the exit comes no
later than the word's first return to height 0.

Counting by edges: trees give the Catalan numbers t_k = Cat(k); doubly
rooted trees give dt_k = binom(2k-1, k-1) = 1, 3, 10, 35, 126, ....  By
the canonical form, a doubly rooted tree is a rooted plane tree plus a
non-root vertex v2 in the closed subtree of the root's first child.  Of
the k * t_k pairs (tree, non-root vertex), dt_k are canonical, a share
(k+1)/(2k) >= 1/2, so ``sample_doubly_rooted_tree`` draws uniform pairs
and keeps the canonical ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError, check_int
from .maps import CombinatorialMap, from_face_word

__all__ = [
    "DoublyRootedTree",
    "children_to_map",
    "doubly_rooted_count",
    "dyck_address",
    "dyck_partners",
    "dyck_to_children",
    "entry_dart",
    "enumerate_plane_trees",
    "sample_dyck_word",
    "sample_doubly_rooted_tree",
]


def sample_dyck_word(n: int, rng: random.Random) -> list[int]:
    """A uniform Dyck word of length 2n as a list of +1/-1 steps.

    Cycle lemma: shuffle n+1 up-steps and n down-steps, cut just after the
    last position where the prefix sum is minimal; the rotation is the
    unique one with all prefix sums positive, and dropping its leading
    up-step leaves a uniform Dyck word.
    """
    check_int("n", n, 0)
    if n == 0:
        return []
    steps = [1] * (n + 1) + [-1] * n
    rng.shuffle(steps)
    best = cut = 0
    prefix = 0
    for i, s in enumerate(steps):
        prefix += s
        if prefix <= best:
            best = prefix
            cut = i + 1
    rotated = steps[cut:] + steps[:cut]
    return rotated[1:]


def dyck_to_children(word: Sequence[int]) -> tuple:
    """The nested-tuple view of a Dyck word: a node is the tuple of its
    children in order, a leaf is ``()``; a node is frozen when it closes."""
    stack: list[list] = [[]]
    for s in word:
        if s == 1:
            stack.append([])
        elif s == -1 and len(stack) > 1:
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            raise ParameterError(f"not a Dyck word: step {s!r} at height {len(stack) - 1}")
    if len(stack) != 1:
        raise ParameterError("unbalanced Dyck word")
    return tuple(stack[0])


def dyck_partners(word: Sequence[int]) -> list[int]:
    """The step each step of a Dyck word is matched with: its contour's edge involution."""
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
    return partner


def dyck_address(word: Sequence[int], steps: int) -> tuple[int, ...]:
    """Address of the node a Dyck contour stands at after ``steps`` steps."""
    addr: list[int] = []
    seen = [0]  # children entered so far, per node on the current path
    for s in word[:steps]:
        if s == 1:
            addr.append(seen[-1])
            seen[-1] += 1
            seen.append(0)
        else:
            addr.pop()
            seen.pop()
    return tuple(addr)


def children_to_map(word: Sequence[int]) -> CombinatorialMap:
    """The plane tree as a map: darts 0..2k-1 in contour order, root dart 0.

    The contour pairing is non-crossing, so this is just a polygon gluing
    whose face cycle is the depth-first walk; the root dart points from the
    tree root at its first child.
    """
    partner = dyck_partners(word)
    if not partner:
        raise ParameterError("a map needs at least one edge")
    return from_face_word(range(len(partner)), partner)


def entry_dart(word: Sequence[int], address: Sequence[int]) -> int:
    """The step of a Dyck word that first enters the node at ``address``.

    Addresses are sequences of child indices from the root; the root itself
    (empty address) has no entry dart.  A sibling is skipped by jumping
    past its partner.
    """
    if not address:
        raise ParameterError("the root has no entry dart")
    partner = dyck_partners(word)
    d, end = 0, len(word)
    for idx in address:
        for _ in range(idx):
            d = partner[d] + 1 if d < end else end
        if idx < 0 or d >= end:
            raise ParameterError(f"address {tuple(address)} not in tree")
        end = partner[d]
        d += 1
    return d - 1


def enumerate_plane_trees(n_edges: int) -> list[tuple[int, ...]]:
    """All rooted plane trees with exactly ``n_edges`` edges, as Dyck words."""
    check_int("n_edges", n_edges, 0)

    # forests[w]: every forest of weight w = total edges + number of trees,
    # built from the lighter ones
    forests: list[list[tuple[int, ...]]] = [[()]]
    for weight in range(1, n_edges + 1):
        forests.append(
            [
                (1,) + first + (-1,) + rest
                for first_edges in range(weight)
                for first in forests[first_edges]
                for rest in forests[weight - first_edges - 1]
            ]
        )
    return forests[n_edges]


def doubly_rooted_count(k: int) -> int:
    """dt_k = binom(2k-1, k-1), the number of doubly rooted trees with k edges."""
    check_int("k", k, 1)
    return math.comb(2 * k - 1, k - 1)


@dataclass(frozen=True)
class DoublyRootedTree:
    """Canonical representative: tree rooted at the first v1 -> v2 path dart.

    ``word`` is the tree's Dyck word and v1 its root; ``exit`` is the ``-1``
    step that leaves v2 towards the root, so ``0 < exit <= partner[0]``
    (v2 lies in the first child's closed subtree).
    """

    word: tuple[int, ...]
    exit: int

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        # one height scan: a Dyck word, and its first return to height 0,
        # which is partner[0] (0 for the empty word)
        height = first_return = 0
        for t, s in enumerate(word):
            if s == 1:
                height += 1
            elif s == -1 and height:
                height -= 1
                if not (height or first_return):
                    first_return = t
            else:
                raise ParameterError(f"not a Dyck word: step {s!r} at height {height}")
        if height:
            raise ParameterError("unbalanced Dyck word")
        check_int("exit", self.exit, 1)
        if self.exit > first_return or word[self.exit] != -1:
            raise ParameterError(f"exit {self.exit} is not a -1 step under the first child")

    @property
    def n_edges(self) -> int:
        return len(self.word) // 2

    @property
    def tree(self) -> tuple:
        """The nested-tuple view of the tree (see `dyck_to_children`)."""
        return dyck_to_children(self.word)

    @property
    def path(self) -> tuple[int, ...]:
        """The address of v2; it starts with child 0."""
        return dyck_address(self.word, self.exit)


def sample_doubly_rooted_tree(k: int, rng: random.Random) -> DoublyRootedTree:
    """A uniform doubly rooted tree with k edges, by rejection.

    A uniform Dyck word and a uniform non-root vertex v2 are kept when the
    contour enters v2 before it first returns to height 0, i.e. when the
    pair is the canonical form; every canonical pair is equally likely and
    a draw is kept with probability (k+1)/(2k) >= 1/2.
    """
    check_int("k", k, 1)
    while True:
        word = sample_dyck_word(k, rng)
        v2 = rng.randrange(k) + 1
        height = ups = 0
        for t, s in enumerate(word):
            height += s
            if s == 1:
                ups += 1
                if ups == v2:
                    # v2's exit is the first later step back at the level
                    # that step t left
                    level, step = height - 1, t
                    while height > level:
                        step += 1
                        height += word[step]
                    return DoublyRootedTree(word, step)
            elif height == 0:
                break
