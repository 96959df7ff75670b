"""Permutation-encoded combinatorial maps and their multigraph views.

A map on an orientable surface is stored as a pair of permutations acting on
darts (half-edges) labelled ``0..n_darts-1``: ``alpha`` is the fixed-point-free
involution that pairs the two darts of every edge, and ``sigma`` sends a dart
to the next dart clockwise around its vertex.  Vertices are the orbits of
``sigma``, edges the orbits of ``alpha``, and faces the orbits of the
composition ``sigma∘alpha`` (alpha first).  With this convention, gluing a
``2n``-gon whose face cycle is ``gamma`` amounts to setting
``sigma = gamma∘alpha``, so the glued map has exactly one face by
construction.

Maps are immutable; every mutating operation elsewhere in the package builds
a new map.  Equality is dart-for-dart.  A one-face map has one canonical
labelling, the one :func:`from_polygon_gluing` produces: darts numbered in
face order from the root, so the face permutation is ``(0 1 ... 2n-1)``.
Two maps in this labelling are rooted-isomorphic exactly when they are
equal.  Gluings are built by :func:`from_polygon_gluing` directly; every
other one-face map the package builds (fixed-genus samples, trees, cores,
reconstructions and trimmed maps) is a face word handed to
:func:`from_face_word`, which numbers each dart by its place in the word.

A gluing is checked once, by its pairing: :func:`from_polygon_gluing`
proves that the pairs partition the polygon's sides, which makes the
result a valid map, and builds it without the checks that
``CombinatorialMap(...)`` runs on every other map (decoded, sampled from
the configuration model, or given by a caller).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .errors import GenusError, MalformedGraphError, MalformedMapError, ParameterError, check_int

__all__ = [
    "CombinatorialMap",
    "Multigraph",
    "decode_map",
    "encode_map",
    "face_tour",
    "from_face_word",
    "from_polygon_gluing",
    "genus",
    "parse_multigraph",
    "underlying_graph",
    "vertex_degrees",
]


def _cycle_labels(perm: Sequence[int]) -> tuple[list[int], int]:
    """Each element's cycle number and the number of cycles.

    Cycles are numbered 0, 1, ... in order of their smallest element.
    """
    labels = [-1] * len(perm)
    count = 0
    for start in range(len(perm)):
        if labels[start] >= 0:
            continue
        d = start
        while labels[d] < 0:
            labels[d] = count
            d = perm[d]
        count += 1
    return labels, count


@dataclass(frozen=True)
class CombinatorialMap:
    """A rooted map: dart involution ``alpha``, vertex rotation ``sigma``, root dart."""

    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    root: int

    def __post_init__(self) -> None:
        alpha, sigma = self.alpha, self.sigma
        if type(alpha) is not tuple:
            alpha = tuple(alpha)
            object.__setattr__(self, "alpha", alpha)
        if type(sigma) is not tuple:
            sigma = tuple(sigma)
            object.__setattr__(self, "sigma", sigma)
        n = len(alpha)
        if n <= 0 or n % 2:
            raise MalformedMapError(f"n_darts must be positive and even, got {n}")
        if len(sigma) != n:
            raise MalformedMapError("alpha and sigma must have the same length")
        # a float equal to a dart passes every range test below, and a bool
        # is an int to Python, so the fields' types are checked first
        if type(self.root) is not int or {*map(type, alpha), *map(type, sigma)} != {int}:
            raise MalformedMapError("alpha, sigma and root must hold ints")
        if sorted(sigma) != list(range(n)):
            raise MalformedMapError("sigma is not a permutation of 0..n_darts-1")
        for d, a in enumerate(alpha):
            if not 0 <= a < n or a == d or alpha[a] != d:
                raise MalformedMapError("alpha is not a fixed-point-free involution")
        if not 0 <= self.root < n:
            raise MalformedMapError(f"root dart {self.root} out of range")

    @property
    def n_darts(self) -> int:
        return len(self.alpha)

    @property
    def n_edges(self) -> int:
        return self.n_darts // 2

    def n_vertices(self) -> int:
        return _cycle_labels(self.sigma)[1]

    def n_faces(self) -> int:
        sigma = self.sigma
        return _cycle_labels([sigma[a] for a in self.alpha])[1]


def genus(m: CombinatorialMap) -> int:
    """Genus from the Euler relation V - E + F = 2 - 2g.

    Raises :class:`GenusError` when the formula gives a negative or
    non-integer value, which signals a dart structure that is not a single
    closed surface (a disconnected pairing, for instance).
    """
    chi = m.n_vertices() - m.n_edges + m.n_faces()
    if chi % 2:
        raise GenusError(f"odd Euler characteristic {chi}")
    g = (2 - chi) // 2
    if g < 0:
        raise GenusError(f"negative genus {g}; the map is not a single surface")
    return g


def vertex_degrees(m: CombinatorialMap) -> tuple[int, ...]:
    """Sorted vertex degrees (loops contribute two darts at their vertex)."""
    labels, count = _cycle_labels(m.sigma)
    degrees = [0] * count
    for v in labels:
        degrees[v] += 1
    return tuple(sorted(degrees))


# bound once: every pairing of a census is built
_new, _set = object.__new__, object.__setattr__


def from_polygon_gluing(pairing: Sequence[tuple[int, int]], n: int) -> CombinatorialMap:
    """Glue the sides of a ``2n``-gon according to ``pairing``.

    The polygon's sides are the darts ``0..2n-1`` in face order, so the face
    permutation of the result is forced to be the full cycle
    ``gamma = (0 1 ... 2n-1)`` and the glued map is unicellular with root
    dart 0.

    This is the one check a gluing gets.  Every slot of ``alpha`` starts
    at -1 and each pair writes both of its ends.  With ``n >= 1``, exactly
    ``n`` pairs and no slot left negative, the 2n writes reached all 2n
    slots, so each slot was written exactly once, every side lies in
    ``0..2n-1`` (a negative side leaves its value in its partner's slot)
    and no pair joins a side to itself.  So ``alpha`` is a fixed-point-free
    involution, and ``sigma = gamma∘alpha``, written beside it as
    ``alpha[d] + 1`` with the last side's partner sent to 0, a
    permutation: the map is built without ``CombinatorialMap``'s own
    checks.  Any pairing that fails raises :class:`MalformedMapError`.
    """
    try:
        n_pairs = len(pairing)
        alpha = [-1] * (2 * n)
        sigma = alpha[:]
        for a, b in pairing:
            alpha[a] = b
            alpha[b] = a
            sigma[a] = b + 1
            sigma[b] = a + 1
    except (IndexError, TypeError, ValueError) as exc:
        raise MalformedMapError(f"not a pairing of the sides of a 2n-gon: {exc}") from exc
    if n < 1:
        raise MalformedMapError(f"a polygon gluing needs n >= 1, got {n}")
    if n_pairs != n:
        raise MalformedMapError(f"pairing has {n_pairs} pairs, a {2 * n}-gon needs {n}")
    if min(alpha) < 0:
        raise MalformedMapError("pairing does not pair every polygon side exactly once")
    sigma[alpha[-1]] = 0
    # set the fields as the dataclass __init__ does; writing through
    # m.__dict__ would materialise a per-instance dict, which costs memory
    # and slows every later attribute read
    m = _new(CombinatorialMap)
    _set(m, "alpha", tuple(alpha))
    _set(m, "sigma", tuple(sigma))
    _set(m, "root", 0)
    return m


def from_face_word(face: Sequence[int], partner: Sequence[int]) -> CombinatorialMap:
    """The one-face map whose face visits the darts of ``face`` in order.

    ``face`` lists the darts root first and ``partner[d]`` is the other
    dart of d's edge; darts are indices of ``partner``, and one that
    ``face`` leaves out is never read.  Dart ``face[t]`` becomes dart t,
    so the result is the polygon gluing that pairs the places of each
    edge's two darts.

    The word is checked through its places: ``mate[t]`` is the place of
    the partner of the dart at place t (-1 for a partner outside
    ``face``), and the gluing pairs t with ``mate[t]`` wherever
    ``t < mate[t]``.  Once :func:`from_polygon_gluing` has accepted those
    pairs, its alpha equals ``mate`` exactly when every dart of ``face``
    is met once, is not its own partner, and its partner partners it
    back: a dart met twice keeps only its last place, so no mate points
    back at its earlier one.  Any failure raises :class:`MalformedMapError`.
    """
    try:
        size = len(face)
        if size < 2 or size % 2:
            raise MalformedMapError(f"a face word needs a positive even length, got {size}")
        place = [-1] * len(partner)
        for t, d in enumerate(face):
            place[d] = t
        ends = itemgetter(*face)(partner)
        mate = itemgetter(*ends)(place)
    except (IndexError, TypeError) as exc:
        raise MalformedMapError(f"not a face word over partner's darts: {exc}") from exc
    # Python would read a negative dart from the end of partner or place
    if min(face) < 0 or min(ends) < 0:
        raise MalformedMapError("darts must be indices of partner, not negative")
    m = from_polygon_gluing([(t, u) for t, u in enumerate(mate) if t < u], size // 2)
    if m.alpha != mate:
        raise MalformedMapError("partner is not an involution on the darts of face, met once each")
    return m


@dataclass(frozen=True)
class Multigraph:
    """An undirected multigraph; loops and parallel edges allowed.

    Edges are stored with endpoints normalised as ``(min, max)``.  Degrees
    count loops twice, so the handshake identity ``sum(deg) == 2*n_edges``
    holds by construction.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        try:
            check_int("n_vertices", self.n_vertices, 1)
        except ParameterError as exc:
            raise MalformedGraphError(f"vertices must be ints 0..n_vertices-1, and {exc}") from exc
        norm = []
        # a float endpoint fails as a list index
        try:
            deg = [0] * self.n_vertices
            for u, v in self.edges:
                if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                    raise MalformedGraphError(f"edge ({u},{v}) out of range")
                norm.append((u, v) if u <= v else (v, u))
                deg[u] += 1
                deg[v] += 1
        except TypeError as exc:
            raise MalformedGraphError(f"vertices must be ints: {exc}") from exc
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "degrees", tuple(deg))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def underlying_graph(m: CombinatorialMap) -> tuple[Multigraph, tuple[int, ...]]:
    """Forget the embedding: the multigraph of a map plus the dart->vertex table.

    Vertices are numbered 0..V-1 in order of their smallest dart; the second
    return value maps darts to these vertex numbers.
    """
    dart_vertex, count = _cycle_labels(m.sigma)
    edges = [(dart_vertex[d], dart_vertex[a]) for d, a in enumerate(m.alpha) if d < a]
    return Multigraph(count, tuple(edges)), tuple(dart_vertex)


def encode_map(m: CombinatorialMap) -> str:
    """Serialise to the on-disk JSON form; :func:`decode_map` inverts this."""
    # int() writes a bool dart as 0 or 1, since decode_map refuses JSON true/false
    return json.dumps(
        {
            "n_darts": m.n_darts,
            "alpha": list(map(int, m.alpha)),
            "sigma": list(map(int, m.sigma)),
            "root": int(m.root),
        },
        separators=(",", ":"),
    )


def decode_map(text: str) -> CombinatorialMap:
    try:
        obj = json.loads(text)
        n_darts, root = obj["n_darts"], obj["root"]
        alpha, sigma = tuple(obj["alpha"]), tuple(obj["sigma"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedMapError(f"cannot decode map: {exc}") from exc
    # JSON true and false decode to bools, which Python counts as ints;
    # CombinatorialMap refuses them in the other fields
    if type(n_darts) is not int:
        raise MalformedMapError(f"n_darts must be a JSON integer, got {n_darts!r}")
    m = CombinatorialMap(alpha, sigma, root)
    if m.n_darts != n_darts:
        raise MalformedMapError(f"n_darts is {n_darts} but alpha has {m.n_darts} darts")
    return m


def parse_multigraph(text: str) -> Multigraph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("p mg "):
        raise MalformedGraphError("missing 'p mg <n_vertices> <n_edges>' header")
    rows = [ln.split() for ln in lines]
    if len(rows[0]) != 4 or any(len(row) != 2 for row in rows[1:]):
        raise MalformedGraphError("expected a 4-field header, then 2 fields per edge")
    try:
        n_vertices, n_edges = int(rows[0][2]), int(rows[0][3])
        edges = tuple((int(u), int(v)) for u, v in rows[1:])
    except ValueError as exc:
        raise MalformedGraphError(f"non-integer field: {exc}") from exc
    if len(edges) != n_edges:
        raise MalformedGraphError(f"header promises {n_edges} edges, found {len(edges)}")
    return Multigraph(n_vertices, edges)


def face_tour(m: CombinatorialMap) -> list[int]:
    """Darts of a unicellular map in face order, starting at the root."""
    alpha, sigma, root = m.alpha, m.sigma, m.root
    tour = [root]
    d = sigma[alpha[root]]
    while d != root:
        tour.append(d)
        d = sigma[alpha[d]]
    if len(tour) != m.n_darts:
        raise MalformedMapError(
            f"face_tour needs a unicellular map; the root's face has "
            f"{len(tour)} of {m.n_darts} darts"
        )
    return tour
