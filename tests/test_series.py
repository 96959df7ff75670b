from __future__ import annotations

import math
import time
from dataclasses import asdict, replace
from fractions import Fraction

import pytest

from unimap.errors import InfeasibleConstantsError, ParameterError
from unimap.series import (
    TruncatedSeries,
    catalan,
    derive_constants,
    eval_C,
    eval_D,
    expected_plain_size,
    rate_function,
    series_C,
    series_C_closed_form,
    series_D,
    series_D_closed_form,
    series_T,
    series_sqrt_one_minus_4z,
    solve_beta,
    solve_beta_closed_form,
    tail_bound,
)

from .oracles import sup_rate_over_block

ORDER = 50


def _zero(order: int) -> TruncatedSeries:
    return TruncatedSeries([0] * (order + 1))


def test_truncated_series_algebra():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([0, 1, 1])
    assert (a + b - a) == b
    assert (a * b)[1] == 1
    assert b.valuation() == 1
    q = a / TruncatedSeries([1, 1, 0])
    assert q * TruncatedSeries([1, 1, 0]) == a
    with pytest.raises(ZeroDivisionError):
        a / _zero(2)


def test_int_and_fraction_coefficients_compare_and_hash_alike():
    a = TruncatedSeries([2, 0])
    b = TruncatedSeries([Fraction(4, 2), Fraction(0)])
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedSeries([2, 0, 0])
    assert a != TruncatedSeries([Fraction(5, 2), 0])
    # the closed form divides Fractions, the ratio recurrence stays in ints
    assert hash(series_D_closed_form(20)) == hash(series_D(20))


def test_sqrt_series_squares_back():
    s = series_sqrt_one_minus_4z(ORDER)
    one_minus_4z = TruncatedSeries([1, -4] + [0] * (ORDER - 1))
    assert s * s == one_minus_4z


def test_tree_series_satisfies_quadratic():
    # T = z(1+T)^2, the plane-tree equation, through order 50
    t = series_T(ORDER)
    z = TruncatedSeries([0, 1] + [0] * (ORDER - 1))
    one = TruncatedSeries([1] + [0] * ORDER)
    assert z * (one + t) * (one + t) == t
    assert [t[k] for k in range(1, 6)] == [catalan(k) for k in range(1, 6)]


def test_branch_series_identities():
    t = series_T(ORDER)
    d = series_D(ORDER)
    c = series_C(ORDER)
    assert t + t * d == d  # D = T + T*D
    assert d.z_derivative() == c  # C = z*D'
    # doubly rooted counts appear as D's coefficients
    assert [d[k] for k in range(1, 6)] == [1, 3, 10, 35, 126]
    assert [c[k] for k in range(1, 6)] == [1, 6, 30, 140, 630]


def test_ratio_series_match_catalan_and_path_decomposition():
    # T and D are built by coefficient ratios; the oracle is Cat(k) and
    # the path decomposition D = T/(1-T) divided out exactly
    order = 200
    t = series_T(order)
    one = TruncatedSeries([1] + [0] * order)
    assert list(t.coeffs) == [0] + [catalan(k) for k in range(1, order + 1)]
    assert series_D(order) == t / (one - t)
    for maker in (series_T, series_D, series_C):
        assert maker(0).coeffs == (0,)
        with pytest.raises(ParameterError):
            maker(-1)


def test_closed_forms_match_recursive_series():
    assert series_D_closed_form(ORDER) == series_D(ORDER)
    assert series_C_closed_form(ORDER) == series_C(ORDER)


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.1, 0.2])
def test_eval_matches_partial_sums(beta):
    order = 220
    d = series_D(order)
    c = series_C(order)
    d_part = sum(d[k] * beta**k for k in range(order + 1))
    c_part = sum(c[k] * beta**k for k in range(order + 1))
    assert eval_D(beta) == pytest.approx(d_part, rel=1e-9)
    assert eval_C(beta) == pytest.approx(c_part, rel=1e-6)


def test_expected_sizes_match_series_ratios():
    # the plain law weights size k by [z^k]D*beta^k
    beta = 0.1
    order = 200
    d = series_D(order)
    num = sum(k * d[k] * beta**k for k in range(order + 1))
    den = sum(d[k] * beta**k for k in range(order + 1))
    assert expected_plain_size(beta) == pytest.approx(num / den, rel=1e-9)
    assert expected_plain_size(beta) == pytest.approx(
        eval_C(beta) / eval_D(beta), rel=1e-12
    )


def test_solve_beta_bisection_vs_closed_form_grid():
    for i in range(1, 100):
        c = i / 100.0
        root = solve_beta(c)
        assert abs(root - solve_beta_closed_form(c)) <= 1e-12
        assert abs(c * expected_plain_size(root) - 1.0) <= 1e-12 or root == 0.0


def test_solve_beta_edges():
    assert solve_beta(1.0) == 0.0
    with pytest.raises(ParameterError):
        solve_beta(0.0)
    with pytest.raises(ParameterError):
        solve_beta(1.5)


def test_rate_function_matches_literal_product_form():
    def literal(u, y):
        num = (u**u * (2 - u) ** (2 - u)) ** (2.0 / 3.0)
        den = (
            2 ** (1.0 / 3.0)
            * (y**y if y > 0 else 1.0)
            * (u - y) ** ((u - y) / 2.0)
            * (2 - u - y) ** ((2 - u - y) / 2.0)
        )
        return math.log(num / den)

    for u in (0.05, 0.3, 0.6, 1.0):
        for y in (0.0, 0.01, u / 3, u * 0.9):
            if y >= u:
                continue
            assert rate_function(u, y) == pytest.approx(literal(u, y), abs=1e-12)


def test_rate_function_domain():
    with pytest.raises(ParameterError):
        rate_function(0.0, 0.0)
    with pytest.raises(ParameterError):
        rate_function(0.5, 0.5)
    with pytest.raises(ParameterError):
        rate_function(1.2, 0.1)


def test_sup_rate_over_block_vs_brute_grid():
    eta, y_cap = 0.1, 0.02
    sup = sup_rate_over_block(rate_function, eta, y_cap)
    brute = max(
        rate_function(u, min(y_cap, u - 0.5 * u * u, max(0.0, u - 1e-12)))
        for u in [eta + i * (1 - eta) / 4000 for i in range(4001)]
    )
    assert sup == pytest.approx(brute, abs=1e-6)
    # interior maximiser in y is u - u^2/2
    u = 0.5
    ys = [i / 2000 for i in range(1, 1000)]
    best_y = max(ys, key=lambda y: rate_function(u, y))
    assert best_y == pytest.approx(u - 0.5 * u * u, abs=2e-3)


def _delta_by_full_scans(eta: float) -> float:
    """derive_constants' delta search with every block scanned in full by
    the oracle: the same grid, bisection and errors."""
    c = -rate_function(eta, 0.0) / 2.0

    def feasible(idx: int) -> bool:
        return sup_rate_over_block(rate_function, eta, eta * (idx * 1e-3)) < -c

    if not feasible(1):
        raise InfeasibleConstantsError(f"no feasible delta at eta={eta}: the smallest fails")
    lo_idx, hi_idx = 0, 1000
    while hi_idx - lo_idx > 1:
        mid = (lo_idx + hi_idx) // 2
        if feasible(mid):
            lo_idx = mid
        else:
            hi_idx = mid
    return lo_idx * 1e-3


@pytest.mark.parametrize("eta", (0.01, 0.05, 0.2))
def test_derive_constants_matches_a_search_over_full_block_scans(eta):
    # the search stops a block's scan at its first failing grid point, and
    # must find what scanning for the supremum finds
    try:
        delta = _delta_by_full_scans(eta)
    except InfeasibleConstantsError:
        delta = None
    for theta in (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49):
        for epsilon in (0.05, 0.1, 0.3):
            if delta is None:
                with pytest.raises(InfeasibleConstantsError):
                    derive_constants(theta, epsilon, eta)
                continue
            p = derive_constants(theta, epsilon, eta)
            full = replace(p, delta=delta, kappa=delta / (2 * p.M - 1))
            assert repr(p) == repr(full), (theta, epsilon)


def test_derive_constants_frozen_regression():
    p = derive_constants(0.4, 0.1)
    assert p.beta_star == pytest.approx(0.17208712152522088, abs=1e-13)
    assert p.A == pytest.approx(1.2053018390283796, abs=1e-12)
    assert p.B == pytest.approx((1.0 + p.A) / 2.0, abs=0)
    assert p.r == pytest.approx(p.B / p.A, abs=0)
    assert p.W == pytest.approx(3.430263152828825, abs=1e-10)
    assert p.c == pytest.approx(0.019484474856255152, abs=1e-14)
    assert p.delta == pytest.approx(0.071, abs=1e-12)
    assert p.M == 102
    assert p.kappa == pytest.approx(p.delta / (2 * p.M - 1), abs=0)
    assert set(asdict(p)) == {
        "theta", "epsilon", "eta", "beta_star", "A", "B", "r", "W",
        "c", "delta", "M", "kappa",
    }


def test_derive_constants_second_point():
    p = derive_constants(0.2, 0.1)
    assert p.beta_star == pytest.approx(0.2157460947032086, abs=1e-12)
    assert p.M == 316
    # smaller theta -> larger beta*, bigger M, weaker kappa
    q = derive_constants(0.4, 0.1)
    assert p.beta_star > q.beta_star
    assert p.M > q.M
    assert p.kappa < q.kappa


def _tail_fits(p, M: int) -> bool:
    # the branch-tail factor that M must bring within the epsilon budget
    return math.log(1.0 + p.W * p.r**M / (1.0 - p.r)) <= (p.epsilon / 2.0) * math.log(p.B)


def test_derive_constants_solves_for_m_at_small_theta():
    # M runs into the millions here, out of reach of a step-by-step search
    start = time.perf_counter()
    p = derive_constants(1e-4, 0.1)
    assert time.perf_counter() - start < 0.1
    assert p.M == 2_505_694
    q = derive_constants(1e-6, 0.5)
    for c in (p, q):
        assert _tail_fits(c, c.M) and not _tail_fits(c, c.M - 1)


def test_derive_constants_validation():
    with pytest.raises(ParameterError):
        derive_constants(0.6, 0.1)
    with pytest.raises(ParameterError):
        derive_constants(0.3, 0.0)
    with pytest.raises(ParameterError):
        derive_constants(0.3, 0.1, eta=1.5)


@pytest.mark.parametrize("bad", ["0.4", None, 0.4j], ids=repr)
@pytest.mark.parametrize("name", ("theta", "epsilon", "eta"))
def test_derive_constants_refuses_a_non_real_parameter(name, bad):
    params = {"theta": 0.3, "epsilon": 0.1, "eta": 0.05, name: bad}
    with pytest.raises(ParameterError, match=f"{name} must be a real number"):
        derive_constants(**params)


def test_tail_bound_dominates_exact_tail():
    p = derive_constants(0.3, 0.1)
    beta = p.beta_star / 2.0
    order = 160
    d = series_D(order)
    den = eval_D(beta)
    for k in range(1, 21):
        head = sum(d[j] * beta**j for j in range(min(k, order + 1)))
        tail_exact = 1.0 - head / den
        assert tail_exact <= tail_bound(p.beta_star, p.A, k) + 1e-12


def test_tail_bound_validation():
    with pytest.raises(ParameterError):
        tail_bound(0.2, 0.9, 3)  # A must exceed 1
    with pytest.raises(ParameterError):
        tail_bound(0.24, 2.0, 3)  # A*beta* leaves the disc


@pytest.mark.parametrize(
    "maker",
    [
        series_sqrt_one_minus_4z,
        series_T,
        series_D,
        series_C,
        series_D_closed_form,
        series_C_closed_form,
    ],
)
@pytest.mark.parametrize("order", [-1, -5, True, False, 2.0, "3", None], ids=repr)
def test_series_refuse_an_order_that_is_not_an_int_at_least_0(maker, order):
    with pytest.raises(ParameterError, match="order"):
        maker(order)
