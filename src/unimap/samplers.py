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
from typing import Iterator, Sequence

from .errors import EnumerationCapError, ParameterError
from .maps import CombinatorialMap, from_polygon_gluing
from .series import eval_C, eval_D
from .trees import dyck_partners, sample_dyck_word

_log = logging.getLogger(__name__)

__all__ = [
    "ENUMERATION_CAP",
    "DegreeSequence",
    "block_rotation",
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
    """A degree sequence (d_1, ..., d_k) in the core regime: every d_i >= 3.

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
        if any(d < 3 for d in entries):
            raise ParameterError(f"degrees must be >= 3, got {entries}")

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
    if p < 0:
        raise ParameterError(f"p must be nonnegative, got {p}")
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
    if p < 1:
        raise ParameterError(f"p must be positive, got {p}")
    return Fraction(math.factorial(2 * p), 2**p * math.factorial(p) * (p + 1))


def sample_pairing(n_points: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A uniform perfect matching of 0..n_points-1 as (min, max) pairs,
    sorted by their first point.

    A uniform shuffle paired off in consecutive positions is uniform over
    all (n-1)!! matchings: each matching comes from the same number of
    orders, 2^(n/2) (n/2)!.
    """
    if n_points <= 0 or n_points % 2:
        raise ParameterError(f"n_points must be positive and even, got {n_points}")
    order = list(range(n_points))
    rng.shuffle(order)
    pairs = ((a, b) if a < b else (b, a) for a, b in zip(order[0::2], order[1::2]))
    return tuple(sorted(pairs))


def enumerate_pairings(
    n_pairs: int, prefix: tuple[tuple[int, int], ...] = ()
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of 0..2*n_pairs-1, lexicographically.

    With a `prefix`, only those whose first pairs are `prefix`, which must
    then be pairs as the enumeration makes them: each pairs the least point
    not yet taken with a greater free one.  There are (2p-1)!! matchings,
    so the generator refuses to start beyond ``ENUMERATION_CAP`` pairs.
    """
    if n_pairs < 0:
        raise ParameterError(f"n_pairs must be nonnegative, got {n_pairs}")
    if n_pairs > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{n_pairs} pairs means {double_factorial_odd(n_pairs)} matchings; "
            f"exhaustive enumeration stops at {ENUMERATION_CAP} pairs"
        )
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
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    return from_polygon_gluing(sample_pairing(2 * n, rng), n)


@lru_cache(maxsize=64)
def _harer_zagier_column(n: int) -> tuple[int, ...]:
    """eps_h(n) for h = 0..n//2: the gluings of the 2n-gon with genus h.

    Built bottom-up over m = 1..n from the Harer-Zagier recurrence
    (m+1) eps_h(m) = (4m-2) eps_h(m-1) + (2m-1)(m-1)(2m-3) eps_{h-1}(m-2),
    keeping only the two previous columns.  With eps_0(0) = 1 and
    eps_{-1} = 0 its h = 0 row is the Catalan recurrence.  Every division
    is checked to be exact.
    """
    before: tuple[int, ...] = ()  # column m-2
    col: tuple[int, ...] = (1,)  # column m-1
    for m in range(1, n + 1):
        a = 4 * m - 2
        b = (2 * m - 1) * (m - 1) * (2 * m - 3)
        nxt = []
        for h in range(m // 2 + 1):
            total = a * col[h] if h < len(col) else 0
            if 0 < h <= len(before):
                total += b * before[h - 1]
            q, r = divmod(total, m + 1)
            if r:
                raise ArithmeticError(f"Harer-Zagier recurrence not integral at m={m}, h={h}")
            nxt.append(q)
        before, col = col, tuple(nxt)
    return col


def _genus_step_weight(n: int, h: int, p: int) -> int:
    """C(V, 2p+1) eps_{h-p}(n), V = n+1-2(h-p) the vertices at genus h-p.

    Chapuy's trisection identity: summed over p >= 1 this is 2h eps_h(n).
    """
    return math.comb(n + 1 - 2 * (h - p), 2 * p + 1) * _harer_zagier_column(n)[h - p]


def _vertex_corners(alpha: Sequence[int]) -> list[int]:
    """One dart per vertex of a polygon gluing, sorted by face position.

    ``alpha`` is the edge involution in face order (sigma(d) = alpha(d)+1
    mod 2n).  Each vertex is represented by the dart d minimising
    (d - 1) mod 2n, its first corner after the root corner; the root dart
    0 ranks last.
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


def _glue_corners(alpha: Sequence[int], corners: Sequence[int]) -> list[int]:
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


def sample_unicellular_fixed_genus(n: int, g: int, rng: random.Random) -> CombinatorialMap:
    """A uniform one-face map with n edges and genus g, exact, by trisection gluing.

    Chapuy's bijection (Adv. Appl. Math. 2011) behind
    2g eps_g(n) = sum_{p>=1} C(n+1-2g+2p, 2p+1) eps_{g-p}(n): gluing 2p+1
    vertices of a genus-(g-p) map into one gives every genus-g map exactly
    2g times.  So the genus steps p are drawn top-down with those weights,
    the genus-0 base is a uniform plane tree, and the steps are applied
    bottom-up, each to a uniform (2p+1)-subset of the current vertices.
    Weights are computed only as far as the walk over p reaches, and no
    step recurses.  Feasibility needs n >= 1 and 0 <= g <= n/2.
    """
    if n < 1 or not 0 <= 2 * g <= n:
        raise ParameterError(f"genus {g} infeasible for {n} edges")
    steps = []
    h = g
    while h > 0:
        u = rng.randrange(2 * h * _harer_zagier_column(n)[h])
        for p in range(1, h + 1):
            w = _genus_step_weight(n, h, p)
            if u < w:
                break
            u -= w
        else:
            raise ArithmeticError(f"trisection weights fall short at n={n}, h={h}")
        steps.append(p)
        h -= p
    if _log.isEnabledFor(logging.DEBUG):
        log10_attempts = math.log10(double_factorial_odd(n)) - math.log10(
            _harer_zagier_column(n)[g]
        )
        _log.debug(
            "genus-%d map with %d edges by genus steps %s; rejection would need "
            "10^%.2f attempts on average",
            g,
            n,
            steps,
            log10_attempts,
        )
    alpha = dyck_partners(sample_dyck_word(n, rng))
    for p in reversed(steps):
        corners = _vertex_corners(alpha)
        chosen = sorted(rng.sample(range(len(corners)), 2 * p + 1))
        alpha = _glue_corners(alpha, [corners[i] for i in chosen])
    return from_polygon_gluing([(d, a) for d, a in enumerate(alpha) if d < a], n)


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
