"""Exact tree series, the branch-weight equation, and the constant pipeline.

Everything here is desk arithmetic: truncated power series over exact
rationals for the tree families, closed-form real evaluations for the
Boltzmann weights, and the deterministic derivation of the expander
constants (A, B, W, c, delta, M, kappa) from the two user-facing inputs
theta and epsilon.

Series cast:

* ``T`` rooted plane trees with at least one edge, by edge count;
* ``D`` doubly rooted trees (an ordered pair of distinct marked vertices),
  which decompose along the root-to-root path as ``D = T + T*D``;
* ``C = z*D'`` doubly rooted trees with one marked edge.

The closed forms are rational expressions in ``s = sqrt(1-4z)``.  For real
evaluation we use the algebraically simplified forms ``D = 2z/(s(1+s))``
and ``C = z/s**3`` (obtained from the textbook expressions via
``1-s = 4z/(1+s)``), which are numerically stable near ``z = 0``; the
literal expressions are expanded coefficient-by-coefficient in the tests
and must agree exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InfeasibleConstantsError, ParameterError

__all__ = [
    "ConstantPipeline",
    "TruncatedSeries",
    "catalan",
    "derive_constants",
    "eval_C",
    "eval_D",
    "expected_plain_size",
    "rate_function",
    "series_C",
    "series_C_closed_form",
    "series_D",
    "series_D_closed_form",
    "series_T",
    "series_sqrt_one_minus_4z",
    "solve_beta",
    "solve_beta_closed_form",
    "sup_rate_over_block",
    "tail_bound",
]


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


class TruncatedSeries:
    """A power series truncated at a fixed order, with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int]):
        self.coeffs: tuple[Fraction | int, ...] = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction | int:
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # ints and Fractions compare and hash exactly: hash(Fraction(2)) == hash(2)
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out: list[Fraction | int] = [0] * (n + 1)
        for i in range(min(len(a), n + 1)):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(len(b), n + 1 - i)):
                if b[j]:
                    out[i + j] += ai * b[j]
        return TruncatedSeries(out)

    def scale(self, factor: Fraction | int) -> "TruncatedSeries":
        return TruncatedSeries([factor * c for c in self.coeffs])

    def z_derivative(self) -> "TruncatedSeries":
        """z * d/dz, which keeps the order."""
        return TruncatedSeries([k * self.coeffs[k] for k in range(len(self.coeffs))])

    def valuation(self) -> int:
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return len(self.coeffs)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Exact division.  A common power of z is cancelled first, so the
        divisor may vanish at 0 as long as the quotient is still a power
        series; the result loses that many orders of truncation."""
        v = other.valuation()
        if v > other.order:
            raise ZeroDivisionError("division by the zero series")
        if self.valuation() < v:
            raise ArithmeticError("quotient is not a power series")
        num = self.coeffs[v:]
        den = other.coeffs[v:]
        out: list[Fraction] = []
        for k in range(min(len(num), len(den))):
            acc = num[k]
            for j in range(1, k + 1):
                if den[j]:
                    acc -= den[j] * out[k - j]
            out.append(Fraction(acc, den[0]))
        return TruncatedSeries(out)


def _check_order(order: int) -> None:
    """Refuse an order that is not an int >= 0; a bool is refused too, so
    that True does not pass for order 1."""
    if type(order) is not int or order < 0:
        raise ParameterError(f"order must be an int >= 0, got {order!r}")


def series_sqrt_one_minus_4z(order: int) -> TruncatedSeries:
    """sqrt(1-4z) expanded exactly: 1 - 2*sum_{k>=1} Cat(k-1) z^k."""
    _check_order(order)
    coeffs: list[int] = [1]
    coeffs.extend(-2 * catalan(k - 1) for k in range(1, order + 1))
    return TruncatedSeries(coeffs)


def _ratio_series(order: int, shift: int) -> TruncatedSeries:
    """Coefficients 0, 1, ... with c_{k+1} = c_k * 2(2k+1)/(k+shift).

    Every division is exact, so the coefficients stay ints.
    """
    _check_order(order)
    coeffs = [0] * (order + 1)
    c = 1
    for k in range(1, order + 1):
        coeffs[k] = c
        c = c * 2 * (2 * k + 1) // (k + shift)
    return TruncatedSeries(coeffs)


def series_T(order: int) -> TruncatedSeries:
    """Rooted plane trees with >= 1 edge: coefficient of z^k is Cat(k),
    and Cat(k+1) = Cat(k)*2(2k+1)/(k+2)."""
    return _ratio_series(order, 2)


def series_D(order: int) -> TruncatedSeries:
    """Doubly rooted trees: coefficient of z^k is dt_k = binom(2k-1, k-1).

    This is the expansion of the path decomposition D = T/(1-T), and
    dt_{k+1} = dt_k*2(2k+1)/(k+1).
    """
    return _ratio_series(order, 1)


def series_C(order: int) -> TruncatedSeries:
    """Doubly rooted trees with a marked edge: C = z*D'."""
    return series_D(order).z_derivative()


def series_D_closed_form(order: int) -> TruncatedSeries:
    """Expansion of (-2z + 1 - s)/(4z - 1 + s), s = sqrt(1-4z)."""
    _check_order(order)
    pad = order + 2
    s = series_sqrt_one_minus_4z(pad)
    one = TruncatedSeries([1] + [0] * pad)
    z = TruncatedSeries([0, 1] + [0] * (pad - 1))
    num = one - z.scale(2) - s
    den = z.scale(4) - one + s
    return TruncatedSeries((num / den).coeffs[: order + 1])


def series_C_closed_form(order: int) -> TruncatedSeries:
    """Expansion of z(2 - 2s - 4z)/((4z - 1 + s)^2 s), s = sqrt(1-4z)."""
    _check_order(order)
    pad = order + 4
    s = series_sqrt_one_minus_4z(pad)
    one = TruncatedSeries([1] + [0] * pad)
    z = TruncatedSeries([0, 1] + [0] * (pad - 1))
    num = z * (one.scale(2) - s.scale(2) - z.scale(4))
    den = (z.scale(4) - one + s) * (z.scale(4) - one + s) * s
    return TruncatedSeries((num / den).coeffs[: order + 1])


def _check_beta(z: float) -> None:
    if not 0.0 < z < 0.25:
        raise ParameterError(f"series argument must lie in (0, 1/4), got {z}")


def eval_D(z: float) -> float:
    """Closed-form value of D at a real point in [0, 1/4)."""
    if z == 0.0:
        return 0.0
    _check_beta(z)
    s = math.sqrt(1.0 - 4.0 * z)
    return 2.0 * z / (s * (1.0 + s))


def eval_C(z: float) -> float:
    """Closed-form value of C at a real point in [0, 1/4)."""
    if z == 0.0:
        return 0.0
    _check_beta(z)
    s = math.sqrt(1.0 - 4.0 * z)
    return z / s**3


def expected_plain_size(beta: float) -> float:
    """E(Y_beta) = C(beta)/D(beta) for the plain branch-size law."""
    _check_beta(beta)
    s = math.sqrt(1.0 - 4.0 * beta)
    return (1.0 + s) / (2.0 * s * s)


def solve_beta(c: float) -> float:
    """The root of c*C(beta)/D(beta) = 1 in [0, 1/4), found by bisection.

    C/D is the mean branch size under the plain law; it increases from 1 at
    beta = 0 and diverges at 1/4, so a root exists for every c in (0, 1].
    At c = 1 the root is beta = 0 exactly.
    """
    if not 0.0 < c <= 1.0:
        raise ParameterError(f"c must lie in (0, 1], got {c}")
    if c == 1.0:
        return 0.0

    def residual(beta: float) -> float:
        return c * expected_plain_size(beta) - 1.0

    lo, hi = 0.0, 0.25 - 1e-17
    # expected_plain_size(0+) -> 1, so residual(0+) = c - 1 < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if residual(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15:  # absolute: every root lies in [0, 1/4)
            break
    return 0.5 * (lo + hi)


def solve_beta_closed_form(c: float) -> float:
    """Closed-form root -c(c/4 + sqrt(c^2+8c)/4)/8 - c/8 + 1/4 of the same equation."""
    if not 0.0 < c <= 1.0:
        raise ParameterError(f"c must lie in (0, 1], got {c}")
    return -c * (c / 4.0 + math.sqrt(c * c + 8.0 * c) / 4.0) / 8.0 - c / 8.0 + 0.25


def _xlogx(x: float) -> float:
    """x*log(x) with the continuous extension 0 at x = 0."""
    if x < 0.0:
        raise ParameterError(f"negative argument {x} in rate function")
    return 0.0 if x == 0.0 else x * math.log(x)


def rate_function(u: float, y: float) -> float:
    """The exponential rate f(u, y) of the bad-cut event at volume fraction u.

    ``u`` is the subset volume divided by the edge count, ``y`` the matched
    boundary fraction on the same scale; the admissible block is
    0 < u <= 1, 0 <= y < u.  All x**x factors use the 0**0 = 1 convention.
    Written as a sum of x*log(x) terms; the tests expand the literal product
    form and both must agree.
    """
    if not 0.0 < u <= 1.0:
        raise ParameterError(f"u must lie in (0, 1], got {u}")
    if not 0.0 <= y < u:
        raise ParameterError(f"y must lie in [0, u), got {y}")
    return (
        -math.log(2.0) / 3.0
        + (2.0 / 3.0) * (_xlogx(u) + _xlogx(2.0 - u))
        - _xlogx(y)
        - 0.5 * _xlogx(u - y)
        - 0.5 * _xlogx(2.0 - u - y)
    )


def sup_rate_over_block(eta: float, y_cap: float) -> float:
    """sup of f(u, y) over u in [eta, 1], y in [0, y_cap].

    For fixed u the function is unimodal in y (its y-derivative is strictly
    decreasing), with maximiser y* = u - u^2/2, so the supremum over the
    interval is attained at min(y_cap, y*).  Over u we scan a grid of
    step 1e-3.
    """
    best = -math.inf
    steps = max(1, round((1.0 - eta) / 1e-3))
    for i in range(steps + 1):
        u = min(1.0, eta + i * 1e-3)
        y = min(y_cap, u - 0.5 * u * u)
        val = rate_function(u, y)
        if val > best:
            best = val
    return best


@dataclass(frozen=True)
class ConstantPipeline:
    """All derived constants for one (theta, epsilon, eta) input triple."""

    theta: float
    epsilon: float
    eta: float
    beta_star: float
    A: float
    B: float
    r: float
    W: float
    c: float
    delta: float
    M: int
    kappa: float


def derive_constants(
    theta: float,
    epsilon: float,
    eta: float = 0.05,
) -> ConstantPipeline:
    """Run the full constant pipeline for genus rate theta and slack epsilon.

    Order of derivation: beta* from the branch-weight equation at c = theta;
    A the geometric mean of 1 and 1/(4 beta*) so that A*beta* stays below the
    singularity; B = (1+A)/2 and r = B/A; W the tail constant D(A beta*)/(A beta*);
    c = -f(eta, 0)/2; delta the largest multiple of 1e-3 whose bad-cut block
    keeps sup f below -c; M the smallest integer killing the branch-tail
    factor up to the epsilon budget; kappa = delta/(2M - 1).
    """
    for name, x in (("theta", theta), ("epsilon", epsilon), ("eta", eta)):
        if not isinstance(x, numbers.Real):
            raise ParameterError(f"{name} must be a real number, got {x!r}")
    if not 0.0 < theta < 0.5:
        raise ParameterError(f"theta must lie in (0, 1/2), got {theta}")
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < eta < 1.0:
        raise ParameterError(f"eta must lie in (0, 1), got {eta}")

    beta_star = solve_beta(theta)
    A = 2.0 if beta_star < 1e-12 else math.sqrt(1.0 / (4.0 * beta_star))
    B = (1.0 + A) / 2.0
    r = B / A
    W = eval_D(A * beta_star) / (A * beta_star)
    c = -rate_function(eta, 0.0) / 2.0

    # Largest delta on the grid {1e-3, ..., 0.999} keeping the whole block
    # below -c; the feasible set is downward closed so a binary search over
    # the grid index finds its top.  The y-interval [0, eta*delta) is open; by
    # continuity its supremum equals the closed-interval supremum used here.
    lo_idx, hi_idx = 0, 1000

    def feasible(idx: int) -> bool:
        return sup_rate_over_block(eta, eta * (idx * 1e-3)) < -c

    if not feasible(1):
        raise InfeasibleConstantsError(
            f"no feasible delta at eta={eta}: even the smallest grid value fails"
        )
    while hi_idx - lo_idx > 1:
        mid = (lo_idx + hi_idx) // 2
        if feasible(mid):
            lo_idx = mid
        else:
            hi_idx = mid
    if lo_idx == 0:
        raise InfeasibleConstantsError(f"no feasible delta at eta={eta}")
    delta = lo_idx * 1e-3

    # the least M >= 1 whose tail factor fits the budget, solved for in
    # closed form and then stepped past any rounding
    budget = (epsilon / 2.0) * math.log(B)

    def tail_fits(M: int) -> bool:
        return math.log(1.0 + W * r**M / (1.0 - r)) <= budget

    M = max(1, math.ceil(math.log(math.expm1(budget) * (1.0 - r) / W) / math.log(r)))
    while M > 1 and tail_fits(M - 1):
        M -= 1
    while not tail_fits(M):
        M += 1
    kappa = delta / (2 * M - 1)

    return ConstantPipeline(
        theta=theta,
        epsilon=epsilon,
        eta=eta,
        beta_star=beta_star,
        A=A,
        B=B,
        r=r,
        W=W,
        c=c,
        delta=delta,
        M=M,
        kappa=kappa,
    )


def tail_bound(beta_star: float, A: float, k: int) -> float:
    """Geometric tail bound W/A^k for P(Y_beta >= k), valid for beta <= beta*.

    ``A`` must exceed 1 with A*beta* still inside the disc of convergence;
    W = D(A beta*)/(A beta*) is the usual exponential-moment constant.
    """
    if A <= 1.0:
        raise ParameterError(f"A must exceed 1, got {A}")
    if not 0.0 < A * beta_star < 0.25:
        raise ParameterError(f"A*beta* = {A * beta_star} outside (0, 1/4)")
    if k < 0:
        raise ParameterError(f"k must be nonnegative, got {k}")
    W = eval_D(A * beta_star) / (A * beta_star)
    return W / A**k
