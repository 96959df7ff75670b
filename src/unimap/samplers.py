"""Random generation of maps, pairings and branch sizes.

The samplers are all exact: one uniform pairing sampler (a shuffle paired
off in order) drives the polygon-gluing and configuration models, the
fixed-genus law is exact by trisection gluing (a plane tree whose vertices
are glued into a genus-g map), and the branch size laws use their exact
weight tables (truncated where a certified geometric tail bound says the
lost mass is below 1e-12).
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import EnumerationCapError, ParameterError, check_int
from .maps import CombinatorialMap, from_face_word, from_polygon_gluing
from .series import eval_C, eval_D
from .trees import dyck_partners, sample_dyck_word

_log = logging.getLogger(__name__)

__all__ = [
    "DegreeSequence",
    "block_rotation",
    "check_enumerable",
    "check_genus",
    "count_one_vertex_maps",
    "double_factorial_odd",
    "enumerate_pairings",
    "sample_branch_size",
    "sample_configuration_model",
    "sample_pairing",
    "sample_polygon_gluing",
    "sample_unicellular_fixed_genus",
]

# largest pair count enumerate_pairings walks: (2*8-1)!! = 2,027,025 matchings
ENUMERATION_CAP = 8


@dataclass(frozen=True)
class DegreeSequence:
    """A degree sequence (d_1, ..., d_k) in the core regime: every d_i is an
    int (not a bool) and d_i >= 3.

    ``admits_unicellular`` is the parity gate for one-face outcomes of the
    configuration model: the dart count must be even and half of it plus the
    vertex count must be odd, otherwise no pairing of the half-edges can
    close up into a single face.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ParameterError("degree sequence is empty")
        for d in entries:
            check_int("degree", d, 3)

    @property
    def total(self) -> int:
        return sum(self.entries)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def admits_unicellular(self) -> bool:
        t = self.total
        return t % 2 == 0 and (t // 2 + self.k) % 2 == 1


def double_factorial_odd(p: int) -> int:
    """(2p-1)!! = the number of perfect matchings on 2p points."""
    check_int("p", p, 0)
    out = 1
    for k in range(1, 2 * p, 2):
        out *= k
    return out


def count_one_vertex_maps(p: int) -> Fraction:
    """(2p)! / (2^p p! (p+1)) as an exact rational.

    This is the closed count of gluings of the 2p-gon with a single vertex.
    It is an integer for even p (where it equals the matching count divided
    by p+1) and a non-integer rational for odd p, which is the quick sanity
    check that no one-vertex gluing parity is being miscounted.
    """
    check_int("p", p, 1)
    return Fraction(math.factorial(2 * p), 2**p * math.factorial(p) * (p + 1))


def sample_pairing(n_points: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A uniform perfect matching of 0..n_points-1 as (min, max) pairs,
    sorted by their first point.

    A uniform shuffle paired off in consecutive positions is uniform over
    all (n-1)!! matchings: each matching comes from the same number of
    orders, 2^(n/2) (n/2)!.
    """
    check_int("n_points", n_points, 2)
    if n_points % 2:
        raise ParameterError(f"n_points must be even, got {n_points}")
    order = list(range(n_points))
    rng.shuffle(order)
    pairs = ((a, b) if a < b else (b, a) for a, b in zip(order[0::2], order[1::2]))
    return tuple(sorted(pairs))


def check_enumerable(n_pairs: int) -> None:
    """The package's one enumeration cap: refuse ``n_pairs`` unless it is an
    int >= 0 whose (2p-1)!! matchings an exhaustive walk may visit, that is
    at most ``ENUMERATION_CAP`` pairs.  Every exhaustive check calls it
    before any work starts."""
    check_int("n_pairs", n_pairs, 0)
    if n_pairs > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n_pairs} pairs means {double_factorial_odd(n_pairs)} matchings; "
            f"exhaustive enumeration stops at {ENUMERATION_CAP} pairs"
        )


def enumerate_pairings(
    n_pairs: int, prefix: tuple[tuple[int, int], ...] = ()
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of 0..2*n_pairs-1, lexicographically.

    With a `prefix`, only those whose first pairs are `prefix`, which must
    then be pairs as the enumeration makes them: each pairs the least point
    not yet taken with a greater free one.  ``check_enumerable`` refuses
    ``n_pairs`` before the generator starts.
    """
    check_enumerable(n_pairs)
    free = list(range(2 * n_pairs))
    for a, b in prefix:
        if not free or a != free[0] or b not in free[1:]:
            raise ParameterError(f"{prefix} does not start a matching of {n_pairs} pairs")
        free.remove(a)
        free.remove(b)
    return _pairings(tuple(prefix), free)


def _pairings(prefix: tuple, free: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    """The matchings of `enumerate_pairings` that extend `prefix` on the
    points `free`, by one explicit stack.

    A stack entry is a prefix of pairs and the points it leaves free; the
    least free point is paired with each other one in turn, pushed in
    reverse so they pop in increasing order.  Four free points are
    finished at once: their three matchings in lexicographic order.
    """
    if len(free) < 4:
        yield prefix + tuple(zip(free[::2], free[1::2]))
        return
    stack = [(prefix, free)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, free = pop()
        a = free[0]
        if len(free) == 4:
            _, b, c, d = free
            yield prefix + ((a, b), (c, d))
            yield prefix + ((a, c), (b, d))
            yield prefix + ((a, d), (b, c))
            continue
        for i in range(len(free) - 1, 0, -1):
            push((prefix + ((a, free[i]),), free[1:i] + free[i + 1 :]))


def sample_polygon_gluing(n: int, rng: random.Random) -> CombinatorialMap:
    """Glue the sides of a 2n-gon along a uniform pairing.

    The result is a uniform rooted one-face map with n edges; its genus is
    whatever the pairing dictates.
    """
    check_int("n", n, 1)
    return from_polygon_gluing(sample_pairing(2 * n, rng), n)


@lru_cache(maxsize=64)
def _genus_count_column(n: int) -> tuple[int, ...]:
    """eps_h(n) for h = 0..n//2: the gluings of the 2n-gon with genus h.

    Read off the Chapuy-Feray-Fusy identity (J. Combin. Theory Ser. A 120,
    2013) 4^h eps_h(n) = Cat(n) c(n+1, n+1-2h), where c(m, k) counts the
    permutations of m elements with k cycles, all of odd length.  Row m
    holds r_m[j] = c(m, m-2j), the entries of the other parity being 0,
    and is built from the two rows before it by
    c(m, k) = c(m-1, k-1) + (m-1)(m-2) c(m-2, k), that is
    r_m[j] = r_{m-1}[j] + (m-1)(m-2) r_{m-2}[j-1].  Every division by 4^h
    is checked to be exact.
    """
    before: tuple[int, ...] = ()  # row m-2
    row: tuple[int, ...] = (1,)  # row m-1: c(0, 0) = 1
    for m in range(1, n + 2):
        b = (m - 1) * (m - 2)
        nxt = list(row) + [0] * ((m + 1) // 2 - len(row))
        for j in range(1, min(len(before) + 1, len(nxt))):
            nxt[j] += b * before[j - 1]
        before, row = row, tuple(nxt)
    cat = math.comb(2 * n, n) // (n + 1)
    col = []
    for h, r in enumerate(row):
        v = cat * r
        if v & ((1 << 2 * h) - 1):
            raise ArithmeticError(f"odd-cycle count not divisible by 4^h at n={n}, h={h}")
        col.append(v >> 2 * h)
    return tuple(col)


def _genus_step_weight(n: int, h: int, p: int) -> int:
    """C(V, 2p+1) eps_{h-p}(n), V = n+1-2(h-p) the vertices at genus h-p.

    Chapuy's trisection identity: summed over p >= 1 this is 2h eps_h(n).
    """
    return math.comb(n + 1 - 2 * (h - p), 2 * p + 1) * _genus_count_column(n)[h - p]


def _genus_steps(n: int, g: int, rng: random.Random) -> list[int]:
    """The genus steps p of one trisection sample, drawn top-down.

    From genus h the step p has weight ``_genus_step_weight(n, h, p)`` out
    of 2h eps_h(n); weights are computed only as far as the walk over p
    reaches.
    """
    steps = []
    h = g
    while h > 0:
        u = rng.randrange(2 * h * _genus_count_column(n)[h])
        for p in range(1, h + 1):
            w = _genus_step_weight(n, h, p)
            if u < w:
                break
            u -= w
        else:
            raise ArithmeticError(f"trisection weights fall short at n={n}, h={h}")
        steps.append(p)
        h -= p
    return steps


def check_genus(n: int, g: int) -> None:
    """The package's one genus bound: refuse (n, g) unless ints n >= 1 and
    g >= 0 admit a one-face map, which by Euler has n + 1 - 2g >= 1
    vertices, so 2g <= n."""
    check_int("n", n, 1)
    check_int("g", g, 0)
    if 2 * g > n:
        raise ParameterError(f"no one-face map has n={n} edges and genus g={g}")


def sample_unicellular_fixed_genus(n: int, g: int, rng: random.Random) -> CombinatorialMap:
    """A uniform one-face map with n edges and genus g, exact, by trisection gluing.

    Chapuy's bijection (Adv. Appl. Math. 2011) behind
    2g eps_g(n) = sum_{p>=1} C(n+1-2g+2p, 2p+1) eps_{g-p}(n): gluing 2p+1
    vertices of a genus-(g-p) map into one gives every genus-g map exactly
    2g times.  So the genus steps p are drawn top-down with those weights,
    the genus-0 base is a uniform plane tree, and the steps are applied
    bottom-up, each to a uniform (2p+1)-subset of the current vertices.
    ``check_genus`` decides which (n, g) are feasible.

    The darts keep their labels from the tree's contour (dart d is step d
    of the Dyck word) through every step, so no step relabels them.
    ``face`` lists the darts in the current face order, from the dart after
    the root round to the root, which stays last.  ``vid`` gives each dart
    its vertex id: in the tree, the node the contour stands at before that
    step.  A step ranks the vertices by their first corner in ``face``
    (``dict.fromkeys`` over the darts' ids), draws 2p+1 ranks and finds
    those vertices' first corners c_1 < ... < c_{2p+1}.  The new rotation
    is tau∘sigma, tau the cycle through those corners, so the new face
    walks the old one as [0,c_1) [c_2,c_3) ... [c_{2p},c_{2p+1}) [c_1,c_2)
    ... [c_{2p-1},c_{2p}) [c_{2p+1},end): only the stretch from c_1 to
    c_{2p+1} is rewritten.  The c_i lie in distinct cycles of sigma, so
    tau∘sigma joins those 2p+1 cycles into one and leaves every other
    cycle as it was.  A step therefore merges vertex ids and nothing else:
    the darts of the smaller chosen vertices take the largest one's id.  A
    dart only moves into a vertex at least twice as large as the one it
    leaves, so there are O(n log n) moves in all.  Every other pass over
    the 2n darts is a list, tuple or dict operation in C.  At the end the
    face, turned to put the root first, and the tree's edge involution go
    to ``from_face_word``, which numbers the darts in face order.  The
    oracle in ``tests/oracles.py`` does each step by relabelling every dart
    (``vertex_corners``, ``glue_corners``), and the maps must be equal.
    """
    check_genus(n, g)
    steps = _genus_steps(n, g, rng)
    if _log.isEnabledFor(logging.DEBUG):
        log10_attempts = math.log10(double_factorial_odd(n)) - math.log10(
            _genus_count_column(n)[g]
        )
        _log.debug(
            "genus-%d map with %d edges by genus steps %s; rejection would need "
            "10^%.2f attempts on average",
            g,
            n,
            steps,
            log10_attempts,
        )
    word = sample_dyck_word(n, rng)
    vid = []  # the node entered by step d has id d + 1, the tree's root 0
    path = [0]
    for d, s in enumerate(word):
        vid.append(path[-1])
        if s > 0:
            path.append(d + 1)
        else:
            path.pop()
    darts_of: dict[int, list[int]] = {}
    for d, v in enumerate(vid):
        darts_of.setdefault(v, []).append(d)
    face = [*range(1, 2 * n), 0]
    for p in reversed(steps):
        ids = itemgetter(*face)(vid)  # a tuple: face holds 2n >= 2 darts
        order = list(dict.fromkeys(ids))
        chosen = [order[k] for k in sorted(rng.sample(range(len(order)), 2 * p + 1))]
        cuts = []
        at = 0
        for v in chosen:
            at = ids.index(v, at)
            cuts.append(at)
        middle = []
        for i in (*range(1, 2 * p, 2), *range(0, 2 * p, 2)):
            middle += face[cuts[i] : cuts[i + 1]]
        face[cuts[0] : cuts[-1]] = middle
        big = max(chosen, key=lambda v: len(darts_of[v]))
        merged = darts_of[big]
        for v in chosen:
            if v != big:
                moved = darts_of.pop(v)
                for d in moved:
                    vid[d] = big
                merged += moved
    return from_face_word([face[-1], *face[:-1]], dyck_partners(word))


def block_rotation(degrees: Sequence[int]) -> list[int]:
    """The configuration model's fixed rotation.

    Vertex i owns the next ``degrees[i]`` darts and turns through them in
    increasing order, back to the first.
    """
    sigma: list[int] = []
    offset = 0
    for d in degrees:
        sigma.extend(range(offset + 1, offset + d))
        sigma.append(offset)
        offset += d
    return sigma


def sample_configuration_model(
    degrees: DegreeSequence | Sequence[int], rng: random.Random
) -> CombinatorialMap:
    """The map configuration model: fixed rotations, uniform pairing.

    The rotation is :func:`block_rotation`; the edge involution is a
    uniform matching of all darts and the root is a uniform dart.  The
    outcome may be disconnected, so callers that need a surface should check
    connectivity (a one-face outcome always is connected).  The degrees
    are checked as a :class:`DegreeSequence`, and their sum must be even.
    """
    if not isinstance(degrees, DegreeSequence):
        degrees = DegreeSequence(tuple(degrees))
    n_darts = degrees.total
    if n_darts % 2:
        raise ParameterError(f"degree sum must be even, got {n_darts}")
    alpha = [0] * n_darts
    for a, b in sample_pairing(n_darts, rng):
        alpha[a] = b
        alpha[b] = a
    return CombinatorialMap(
        alpha=tuple(alpha),
        sigma=tuple(block_rotation(degrees.entries)),
        root=rng.randrange(n_darts),
    )


@lru_cache(maxsize=64)
def _branch_size_tables(beta: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Cumulative tables of the plain and the marked branch-size law at beta.

    The plain law puts mass dt_k beta^k / D(beta) on size k, the marked law
    k dt_k beta^k / C(beta).  Weight tables follow the exact term ratio
    dt_{k+1}/dt_k = 2k(2k+1)/(k(k+1)) and are truncated once the geometric
    bound D(A beta)/(D(beta) A^K) with A = 1/(2 sqrt(beta)) certifies that
    the remaining mass is below 1e-12; the truncated table is renormalised,
    so the sampled law is within total variation 1e-12 of the true one.
    Each table ends in exactly 1.0.
    """
    if not 0.0 < beta < 0.25:
        raise ParameterError(f"beta must lie in (0, 1/4), got {beta}")
    amp = 1.0 / (2.0 * math.sqrt(beta))  # geometric mean of 1 and 1/(4 beta)
    d_beta = eval_D(beta)
    tail_prefactor = eval_D(amp * beta) / d_beta
    k_max = max(4, math.ceil(math.log(tail_prefactor / 1e-12) / math.log(amp)))

    weights = [0.0, beta]  # dt_1 beta^1
    for k in range(1, k_max):
        weights.append(weights[-1] * beta * 2 * k * (2 * k + 1) / (k * (k + 1)))
    plain_cum = list(accumulate(weights))
    marked_cum = list(accumulate(k * w for k, w in enumerate(weights)))
    acc_p, acc_m = plain_cum[-1], marked_cum[-1]
    # sanity: the table must carry essentially all of D(beta) and C(beta)
    if abs(acc_p - d_beta) > 1e-9 * d_beta:
        raise ParameterError("branch-size table failed its D mass check")
    if abs(acc_m - eval_C(beta)) > 1e-9 * eval_C(beta):
        raise ParameterError("branch-size table failed its C mass check")
    return tuple(c / acc_p for c in plain_cum), tuple(c / acc_m for c in marked_cum)


def sample_branch_size(law: str, beta: float, rng: random.Random) -> int:
    """One draw from a branch-size law at weight ``beta``.

    ``law`` is "Y" for the plain law (mass dt_k beta^k) or "X" for the
    marked law (an extra factor k); the weight tables are cached per beta.
    """
    plain_cum, marked_cum = _branch_size_tables(beta)
    if law == "X":
        cum = marked_cum
    elif law == "Y":
        cum = plain_cum
    else:
        raise ParameterError(f"law must be 'X' or 'Y', got {law!r}")
    u = rng.random()
    while u == 0.0:
        u = rng.random()
    return bisect_left(cum, u)
