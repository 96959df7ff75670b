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
rooted trees give dt_k = binom(2k-1, k-1) = 1, 3, 10, 35, 126, ...,
satisfying the path decomposition dt_k = t_k + sum_s t_s dt_{k-s}.  The
first term is the one-block case (v2 = head of the root dart); in the
other cases the subtree data at the second path vertex splits into the
hanging trees before the outgoing path dart (which stay with the first
block) and the rest (which start the remainder), and that split is what
``sample_doubly_rooted_tree`` inverts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import ParameterError
from .maps import CombinatorialMap, from_polygon_gluing
from .series import catalan

__all__ = [
    "DoublyRootedTree",
    "Tree",
    "children_to_map",
    "doubly_rooted_count",
    "dyck_to_children",
    "entry_dart",
    "enumerate_doubly_rooted_trees",
    "enumerate_plane_trees",
    "sample_dyck_word",
    "sample_plane_tree",
    "sample_tree_children",
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


def sample_tree_children(n_edges: int, rng: random.Random) -> Tree:
    """A uniform rooted plane tree with the given number of edges."""
    return dyck_to_children(sample_dyck_word(n_edges, rng))


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
    """A uniform doubly rooted tree with k edges.

    Exact integer weights drive the block decomposition: with probability
    t_k/dt_k the object is a single block (v2 = head of the root dart);
    otherwise the first block is a uniform tree with s edges, chosen with
    weight t_s * dt_{k-s}, and the remainder is sampled recursively.  Blocks
    are merged by splicing the remainder's root rotation after the first
    block's grandchildren, which is exactly the inverse of the canonical
    path-split.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")

    blocks: list[int] = []
    remaining = k
    while True:
        r = rng.randrange(doubly_rooted_count(remaining))
        if r < catalan(remaining):
            blocks.append(remaining)
            break
        r -= catalan(remaining)
        for s in range(1, remaining):
            w = catalan(s) * doubly_rooted_count(remaining - s)
            if r < w:
                blocks.append(s)
                remaining -= s
                break
            r -= w

    # build right to left: the final block is the one-block case
    last = blocks[-1]
    result = DoublyRootedTree(sample_tree_children(last, rng), (0,))
    for s in reversed(blocks[:-1]):
        head = sample_tree_children(s, rng)
        first_child = head[0]
        merged_first = first_child + result.tree
        tree = (merged_first,) + head[1:]
        path = (0, len(first_child)) + result.path[1:]
        result = DoublyRootedTree(tree, path)
    return result


def sample_plane_tree(n_edges: int, rng: random.Random) -> CombinatorialMap:
    """A uniform rooted plane tree with ``n_edges`` edges, as a map."""
    if n_edges < 1:
        raise ParameterError(f"n_edges must be positive, got {n_edges}")
    return children_to_map(sample_tree_children(n_edges, rng))
