"""Plane trees and doubly rooted trees.

A rooted plane tree is stored as nested tuples: a node is the tuple of its
children subtrees in clockwise order, a leaf is ``()``.  The root dart of
the corresponding map points at the first child, and the contour (face)
order of the map's darts matches the usual depth-first parenthesis walk.

A doubly rooted tree is an isomorphism class of (plane tree, ordered pair of
distinct vertices).  The two marks make the object rigid, so each class has
a canonical rooted representative: root the tree at the first dart of the
v1 -> v2 path.  In the children-tuple encoding this means v2 always lives in
the closed subtree of the root's first child, i.e. its address starts with 0.

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

from .errors import ParameterError
from .maps import CombinatorialMap, from_polygon_gluing

__all__ = [
    "DoublyRootedTree",
    "Tree",
    "children_to_map",
    "doubly_rooted_count",
    "dyck_address",
    "dyck_partners",
    "dyck_to_children",
    "entry_dart",
    "enumerate_doubly_rooted_trees",
    "enumerate_plane_trees",
    "sample_dyck_word",
    "sample_plane_tree",
    "sample_doubly_rooted_tree",
    "tree_edges",
]

Tree = tuple  # nested tuples of subtrees; a leaf is ()


def tree_edges(tree: Tree) -> int:
    total = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        total += len(node)
        stack.extend(node)
    return total


def sample_dyck_word(n: int, rng: random.Random) -> list[int]:
    """A uniform Dyck word of length 2n as a list of +1/-1 steps.

    Cycle lemma: shuffle n+1 up-steps and n down-steps, cut just after the
    last position where the prefix sum is minimal; the rotation is the
    unique one with all prefix sums positive, and dropping its leading
    up-step leaves a uniform Dyck word.
    """
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
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


def dyck_to_children(word: Sequence[int]) -> Tree:
    """Parse a Dyck word into the children-tuple encoding of a plane tree.

    A ``1`` opens a child of the current node and any other step closes
    the current node; a node is frozen into its tuple when it closes.
    """
    stack: list[list] = [[]]
    for s in word:
        if s == 1:
            stack.append([])
        elif len(stack) > 1:
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            raise ParameterError("Dyck word closes below ground level")
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
        elif opened:
            j = opened.pop()
            partner[i], partner[j] = j, i
        else:
            raise ParameterError("Dyck word closes below ground level")
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


def children_to_map(tree: Tree) -> CombinatorialMap:
    """The plane tree as a map: darts 0..2k-1 in contour order, root dart 0.

    The contour pairing is non-crossing, so this is just a polygon gluing
    whose face cycle is the depth-first walk; the root dart points from the
    tree root at its first child.
    """
    pairing: list[tuple[int, int]] = []
    downs: list[int] = []  # down dart of each open edge on the current path
    stack = [iter(tree)]
    counter = 0
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if downs:
                pairing.append((downs.pop(), counter))
                counter += 1
        else:
            downs.append(counter)
            counter += 1
            stack.append(iter(child))
    if not pairing:
        raise ParameterError("a map needs at least one edge")
    return from_polygon_gluing(pairing, len(pairing))


def entry_dart(tree: Tree, address: Sequence[int]) -> int:
    """The contour dart that first enters the node at ``address``.

    Addresses are sequences of child indices from the root; the root itself
    (empty address) has no entry dart.
    """
    if not address:
        raise ParameterError("the root has no entry dart")
    d = -1
    node = tree
    for idx in address:
        if not 0 <= idx < len(node):
            raise ParameterError(f"address {tuple(address)} not in tree")
        d += 1 + sum(2 * (tree_edges(node[j]) + 1) for j in range(idx))
        node = node[idx]
    return d


def enumerate_plane_trees(n_edges: int) -> list[Tree]:
    """All rooted plane trees with exactly ``n_edges`` edges."""
    if n_edges < 0:
        raise ParameterError(f"n_edges must be nonnegative, got {n_edges}")

    def forests(weight: int) -> list[Tree]:
        # weight = total edges + number of trees
        if weight == 0:
            return [()]
        out: list[Tree] = []
        for first_edges in range(weight):
            for first in forests(first_edges):
                for rest in forests(weight - first_edges - 1):
                    out.append(((first,) + rest))
        return out

    return forests(n_edges)


def doubly_rooted_count(k: int) -> int:
    """dt_k = binom(2k-1, k-1), the number of doubly rooted trees with k edges."""
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    return math.comb(2 * k - 1, k - 1)


@dataclass(frozen=True)
class DoublyRootedTree:
    """Canonical representative: tree rooted at the first v1 -> v2 path dart.

    ``path`` is the address of v2, so ``path[0] == 0`` always (v2 lies in the
    first child's closed subtree).  v1 is the tree root.
    """

    tree: Tree
    path: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.path or self.path[0] != 0:
            raise ParameterError("v2 address must start with child 0")
        node = self.tree
        for idx in self.path:
            if not 0 <= idx < len(node):
                raise ParameterError("v2 address leaves the tree")
            node = node[idx]

    @property
    def n_edges(self) -> int:
        return tree_edges(self.tree)


def enumerate_doubly_rooted_trees(k: int) -> list[DoublyRootedTree]:
    """All doubly rooted trees with k edges, via their canonical form."""
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    out: list[DoublyRootedTree] = []
    for tree in enumerate_plane_trees(k):
        first = tree[0]
        stack: list[tuple[Tree, tuple[int, ...]]] = [(first, (0,))]
        while stack:
            node, addr = stack.pop()
            out.append(DoublyRootedTree(tree, addr))
            for i, child in enumerate(node):
                stack.append((child, addr + (i,)))
    return out


def sample_doubly_rooted_tree(k: int, rng: random.Random) -> DoublyRootedTree:
    """A uniform doubly rooted tree with k edges, by rejection.

    A uniform Dyck word and a uniform non-root vertex v2 are kept when the
    contour enters v2 before it first returns to height 0, i.e. when the
    pair is the canonical form; every canonical pair is equally likely and
    a draw is kept with probability (k+1)/(2k) >= 1/2.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    while True:
        word = sample_dyck_word(k, rng)
        v2 = rng.randrange(k) + 1
        height = ups = 0
        for t, s in enumerate(word):
            height += s
            if s == 1:
                ups += 1
                if ups == v2:
                    return DoublyRootedTree(dyck_to_children(word), dyck_address(word, t + 1))
            elif height == 0:
                break


def sample_plane_tree(n_edges: int, rng: random.Random) -> CombinatorialMap:
    """A uniform rooted plane tree with ``n_edges`` edges, as a map."""
    if n_edges < 1:
        raise ParameterError(f"n_edges must be positive, got {n_edges}")
    partner = dyck_partners(sample_dyck_word(n_edges, rng))
    return from_polygon_gluing([(d, a) for d, a in enumerate(partner) if d < a], n_edges)
