"""The exhaustive census of rooted one-face maps, in chunks that
processes can share.

`turn_classes` walks the polygon gluings whose pairings start with a given
prefix, one gluing per class of turns.  `census_chunks` gives the prefixes
that cut the whole walk into chunks, in enumeration order, and
`chunk_tally` tallies the branch-size profiles of one chunk, so that
`unimap.parallel.fork_map` can deal the chunks across processes (see
`unimap.experiments.profile_census`).  The tallies' counts are class
sizes, which sum to (2n-1)!! over all chunks, so a class lost, counted
twice or given the wrong size moves that total.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from .core import _Segments
from .maps import CombinatorialMap, from_polygon_gluing
from .samplers import enumerate_pairings

__all__ = ["census_chunks", "chunk_tally", "turn_classes"]


def turn_classes(n: int, prefix: tuple = ()) -> Iterator[tuple[CombinatorialMap, int]]:
    """One polygon gluing per class of turns, with the size of its class,
    among the pairings that start with `prefix`.

    Turning a gluing by r (dart d -> d - r mod 2n) gives the same map
    rooted at dart r, so genus, vertices, core and branch sizes are
    constant on a class.  Read a gluing as its chord word
    c[d] = alpha[d] - d mod 2n, which a turn by r shifts cyclically by r.
    The class is represented by the gluing whose word is least among its
    shifts, and its size is the word's period p: the least r > 0 with an
    equal shift, else 2n.  Its members are the representative rooted at
    darts 0..p-1, so the periods of all classes sum to the number of
    pairings walked.  Every pairing is still built, and so validated, by
    `from_polygon_gluing`, whose check of the pairing is the only one a
    gluing gets.  The word is built only for a pairing that passes
    `_least_chord_first`.
    """
    n_darts = 2 * n
    for pairing in enumerate_pairings(n, prefix):
        m = from_polygon_gluing(pairing, n)
        if not _least_chord_first(pairing, n_darts):
            continue
        c = [(a - d) % n_darts for d, a in enumerate(m.alpha)]
        head = c[0]
        # only a shift that starts at another least letter can tie or win
        period = n_darts
        for r in range(1, n_darts):
            if c[r] == head and (turned := c[r:] + c[:r]) <= c:
                period = r if turned == c else 0
                break
        if period:
            yield m, period


def _least_chord_first(pairing: tuple[tuple[int, int], ...], n_darts: int) -> bool:
    """Whether a gluing's chord word c starts with its least letter, read
    off the pairs of `enumerate_pairings` without building the word.

    The first pair is (0, head) with head = c[0], and a pair (a, b) with
    a < b has the letters c[a] = b - a and c[b] = n_darts - (b - a).  So
    c[0] == min(c) exactly when head <= b - a <= n_darts - head for every
    pair, and the test stops at the first chord that fails it.
    """
    head = pairing[0][1]
    top = n_darts - head
    for a, b in pairing:
        if not head <= b - a <= top:
            return False
    return True


def census_chunks(n: int) -> Iterator[tuple]:
    """The prefixes that cut the census into chunks, in enumeration order:
    every pairing's first two pairs (0, b) and (a, c) from n = 6 on, which
    makes (2n-1)(2n-3) chunks, and one empty prefix below, where a census
    is too short to pay for a second process.  The first pair alone would
    cut too coarsely: every pairing that starts with (0, 1) passes
    `_least_chord_first`, so that chunk would take nearly a third of the
    walk's time at n = 7."""
    if n < 6:
        yield ()
        return
    for b in range(1, 2 * n):
        a = 1 + (b == 1)
        for c in range(a + 1, 2 * n):
            if c != b:
                yield ((0, b), (a, c))


def chunk_tally(n: int, prefix: tuple) -> dict:
    """The tally of the census chunk of the pairings that start with
    `prefix`: each class's p rootings are counted under their keys, so the
    counts sum to the number of pairings in the chunk."""
    counts: Counter = Counter()
    for m, period in turn_classes(n, prefix):
        g = (n + 1 - m.n_vertices()) // 2  # Euler with one face: V - n + 1 = 2 - 2g
        if g == 0:
            counts[(0, 0, 0, ())] += period
            continue
        for marked, others, rootings in _Segments(m).rootings(period):
            counts[(g, 1 + len(others), marked, others)] += rootings
    return dict(counts)
