import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from dp_tails import accountant
from dp_tails.errors import (ConfigurationError, DomainError,
                             InfinitePrivacyLossError)
from oracles import accountant_parent

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "rdp_goldens.json")


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def test_unsubsampled_closed_form():
    curve = accountant.rdp_subsampled_gaussian(1.0, 1.0, 1)
    assert curve.eps_rdp[curve.orders.index(2.0)] == 1.0


def test_zero_steps_zero_curve():
    curve = accountant.rdp_subsampled_gaussian(0.01, 1.0, 0)
    assert np.all(curve.eps_rdp == 0.0)


def test_q_zero_zero_curve():
    curve = accountant.rdp_subsampled_gaussian(0.0, 1.0, 100)
    assert np.all(curve.eps_rdp == 0.0)


def test_golden_curve(goldens):
    g = goldens["curve"]
    curve = accountant.rdp_subsampled_gaussian(g["q"], g["sigma"], g["steps"])
    assert curve.orders == tuple(g["orders"])
    expected = np.asarray(g["eps_rdp"])
    rel = np.abs(curve.eps_rdp - expected) / np.maximum(expected, 1e-300)
    assert rel.max() < 1e-6


def test_golden_grid_epsilon_within_one_percent(goldens):
    for row in goldens["grid"]:
        spend, _ = accountant.spend_for_training(
            q=row["q"], sigma=row["sigma"], steps=row["steps"],
            delta=row["delta"])
        assert abs(spend.epsilon - row["epsilon"]) <= 0.01 * row["epsilon"]


def test_conversion_overhead_limit():
    orders = tuple(float(a) for a in range(2, 4097))
    curve = accountant.RdpCurve(orders, np.zeros(len(orders)), 0.0, 1.0, 0)
    spend = accountant.rdp_to_dp(curve, delta=1e-5)
    assert spend.epsilon <= math.log(1e5) / 4095 + 1e-12
    assert spend.epsilon < 0.003


def test_conversion_single_order():
    curve = accountant.RdpCurve((2.0,), np.array([1.0]), 0.01, 1.0, 1)
    spend = accountant.rdp_to_dp(curve, delta=1e-5)
    assert abs(spend.epsilon - (1.0 + math.log(1e5))) < 1e-12
    assert spend.argmin_order == 2.0


def test_conversion_min_monotonicity():
    orders = (2.0, 4.0, 8.0)
    lo = accountant.RdpCurve(orders, np.array([0.1, 0.2, 0.4]), 0.01, 1.0, 1)
    hi = accountant.RdpCurve(orders, np.array([0.2, 0.3, 0.5]), 0.01, 1.0, 1)
    assert (accountant.rdp_to_dp(lo).epsilon
            <= accountant.rdp_to_dp(hi).epsilon)


def test_composition_linearity():
    one = accountant.rdp_subsampled_gaussian(0.01, 1.0, 1)
    many = accountant.rdp_subsampled_gaussian(0.01, 1.0, 300)
    assert np.array_equal(300.0 * one.eps_rdp, many.eps_rdp)


def test_epsilon_monotone_in_grid():
    qs = (1e-3, 1e-2, 0.1)
    sigmas = (0.5, 1.0, 2.0, 4.0)
    steps_grid = (100, 1000, 10000)
    eps = {}
    for q in qs:
        for s in sigmas:
            for t in steps_grid:
                spend, _ = accountant.spend_for_training(q, s, t)
                eps[(q, s, t)] = spend.epsilon
    for q in qs:
        for t in steps_grid:
            for lo, hi in zip(sigmas, sigmas[1:]):
                assert eps[(q, hi, t)] <= eps[(q, lo, t)] + 1e-12
        for s in sigmas:
            for lo, hi in zip(steps_grid, steps_grid[1:]):
                assert eps[(q, s, lo)] <= eps[(q, s, hi)] + 1e-12
    for s in sigmas:
        for t in steps_grid:
            for lo, hi in zip(qs, qs[1:]):
                assert eps[(lo, s, t)] <= eps[(hi, s, t)] + 1e-12



@settings(max_examples=50, deadline=None)
@given(q=st.floats(1e-4, 0.5), sigma=st.floats(0.5, 4.0),
       steps=st.integers(1, 20000), q_up=st.floats(1.0, 2.0),
       sigma_up=st.floats(1.0, 2.0), more_steps=st.integers(0, 20000))
def test_epsilon_monotone_property(q, sigma, steps, q_up, sigma_up,
                                   more_steps):
    def eps(q, sigma, steps):
        return accountant.spend_for_training(q, sigma, steps)[0].epsilon

    base = eps(q, sigma, steps)
    # Relative slack of 1e-9 absorbs rounding in the log-sum-exp, which
    # agrees with the mpmath oracle to about 1e-9 per order.
    slack = 1e-9 * base
    assert eps(min(q * q_up, 1.0), sigma, steps) >= base - slack
    assert eps(q, sigma * sigma_up, steps) <= base + slack
    assert eps(q, sigma, steps + more_steps) >= base - slack


def test_sigma_zero_raises():
    with pytest.raises(InfinitePrivacyLossError):
        accountant.rdp_subsampled_gaussian(0.01, 0.0, 10)


@pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("q", [0.01, 1.0])
def test_non_finite_sigma_raises(q, sigma):
    # (z0 - i) / sigma would be NaN, and the fractional-order series would
    # grow without ever meeting its stop test.
    with pytest.raises(DomainError, match="sigma must be finite"):
        accountant.rdp_subsampled_gaussian(q, sigma, 10)
    with pytest.raises(DomainError, match="sigma must be finite"):
        accountant.spend_for_training(q, sigma, 0)


@pytest.mark.parametrize("steps", [0, 10])
@pytest.mark.parametrize("q", [0.0, 0.01, 1.0])
def test_negative_sigma_raises(q, steps):
    # At q = 0 a negative sigma used to give a zero curve, and at q > 0 it
    # was reported as sigma = 0.
    for sigma in (-1.0, -1e-300):
        with pytest.raises(DomainError, match="sigma must be >= 0"):
            accountant.rdp_subsampled_gaussian(q, sigma, steps)
        with pytest.raises(DomainError, match="sigma must be >= 0"):
            accountant.spend_for_training(q, sigma, steps)


@pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1e155, 1e300])
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_sigma_square_outside_float_range_raises(q, sigma):
    # sigma ** 2 rounds to 0, which made every fractional-order log-term NaN
    # so its series never met its stop test, or overflows, which raised
    # OverflowError.
    with pytest.raises(DomainError, match="under- or overflows"):
        accountant.spend_for_training(q, sigma, 100)


def test_fractional_series_length_cap(monkeypatch):
    # q = 0.5, sigma = 1e5 at order 1.25 needs all MAX_SERIES_TERMS; one
    # fourfold step less raises rather than grows.
    curve = accountant.rdp_subsampled_gaussian(0.5, 1e5, 1)
    assert np.isfinite(curve.eps_rdp).all()
    monkeypatch.setattr(accountant, "MAX_SERIES_TERMS",
                        accountant.MAX_SERIES_TERMS // 4)
    with pytest.raises(DomainError, match="does not converge within 65536"):
        accountant.rdp_subsampled_gaussian(0.5, 1e5, 1)


def _same_bits(got, want):
    """Equal arrays, bit for bit (signed zeros included); NaN where NaN."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


@settings(max_examples=150, deadline=None)
@given(q=st.floats(1e-6, 0.999), sigma=st.floats(0.05, 100.0),
       steps=st.integers(1, 10000))
@example(q=0.5, sigma=1.0, steps=1)
@example(q=0.999, sigma=0.05, steps=1)
@example(q=1e-6, sigma=100.0, steps=1)
def test_curve_matches_parent_bit_for_bit(q, sigma, steps):
    # The frozen scipy-based accountant is the reference: every RDP curve,
    # and so every epsilon, keeps its exact bits.
    want = accountant_parent.rdp_subsampled_gaussian(
        q, sigma, steps, accountant.DEFAULT_ORDERS)
    got = accountant.rdp_subsampled_gaussian(q, sigma, steps)
    assert _same_bits(got.eps_rdp, want)


@pytest.mark.parametrize("q", [1e-5, 0.01, 0.5, 0.999, 1.0])
def test_tiny_sigma_sweep_is_quiet_and_matches_parent(q):
    # From sigma = 10**-151.8 to 1e-155 the quadratic log-terms of the
    # larger orders overflow, and near 1e-155 every order's do. No numpy
    # warning is raised (this suite makes a RuntimeWarning an error), no
    # NaN reaches the curve, and every curve equals the frozen reference's
    # bits, so epsilon and argmin_order are unchanged. The reference itself
    # overflows there.
    for sigma in 10.0 ** np.linspace(-151.8, -155.0, 33):
        spend, _ = accountant.spend_for_training(q=q, sigma=sigma, steps=100)
        curve = accountant.rdp_subsampled_gaussian(q, sigma, 100)
        with np.errstate(over="ignore", invalid="ignore"):
            want = accountant_parent.rdp_subsampled_gaussian(
                q, sigma, 100, accountant.DEFAULT_ORDERS)
        assert not np.isnan(curve.eps_rdp).any()
        assert curve.eps_rdp.tobytes() == want.tobytes()
        assert spend == accountant.rdp_to_dp(curve)


@settings(max_examples=100, deadline=None)
@given(q=st.floats(1e-6, 0.999), sigma=st.floats(0.05, 100.0),
       orders=st.lists(st.integers(2, 1024), min_size=1, max_size=40,
                       unique=True))
@example(q=0.01, sigma=1.0, orders=[2])
@example(q=0.999, sigma=0.05, orders=[1024])
@example(q=1e-6, sigma=100.0, orders=[2, 1024])
def test_integer_orders_match_parent_unsorted(q, sigma, orders):
    # _log_a_int works row by row in blocks; orders in any order, with gaps,
    # give the reference's bits in the caller's order.
    alphas = np.array(orders)
    assert _same_bits(accountant._log_a_int(q, sigma, alphas),
                      accountant_parent._log_a_int(q, sigma, alphas))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 300),
       seed=st.integers(0, 2 ** 32 - 1), special_share=st.floats(0.0, 1.0))
def test_logsumexp_matches_scipy_bit_for_bit(rows, cols, seed, special_share):
    # Rows masked with -inf (whole rows too), ties at the maximum and terms
    # whose exp underflows: the reduction keeps scipy's bits.
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2000.0, 50.0, (rows, cols))
    odd = rng.random((rows, cols)) < special_share
    a[odd] = rng.choice([-np.inf, -745.2, -745.1, -1.0, 0.0], odd.sum())
    a[np.arange(cols) >= rng.integers(0, cols + 1, (rows, 1))] = -np.inf
    assert _same_bits(accountant._logsumexp(a, axis=1),
                      special.logsumexp(a, axis=1))
    sign = rng.choice([-1.0, 0.0, 1.0], cols)
    pair = np.stack([a, a[::-1]])
    assert _same_bits(accountant._logsumexp(pair, axis=(0, 2), b=sign),
                      special.logsumexp(pair, axis=(0, 2), b=sign))


def test_logsumexp_non_finite_maxima_match_scipy():
    a = np.array([[np.inf, 0.0, -np.inf], [-np.inf, -np.inf, -np.inf],
                  [np.nan, 1.0, 2.0], [np.inf, np.inf, 1.0],
                  [1e308, 1e308, 1e308]])
    assert _same_bits(accountant._logsumexp(a, axis=1),
                      special.logsumexp(a, axis=1))


def test_invalid_inputs():
    with pytest.raises(DomainError):
        accountant.rdp_subsampled_gaussian(1.5, 1.0, 10)
    with pytest.raises(DomainError):
        accountant.rdp_subsampled_gaussian(0.1, 1.0, -1)
    curve = accountant.rdp_subsampled_gaussian(0.1, 1.0, 10)
    with pytest.raises(DomainError):
        accountant.rdp_to_dp(curve, delta=0.0)
    with pytest.raises(ConfigurationError):
        accountant.PrivacySpend(epsilon=-1.0, delta=1e-5)
    with pytest.raises(ConfigurationError):
        accountant.PrivacySpend(epsilon=1.0, delta=1.0)


def test_spend_log_recomputable():
    spend, log = accountant.spend_for_training(0.01, 1.0, 500)
    again, _ = accountant.spend_for_training(
        log["q"], log["sigma"], log["steps"], log["delta"])
    assert again.epsilon == spend.epsilon
    assert list(log["caveats"]) == list(accountant.STANDARD_CAVEATS)


@pytest.mark.parametrize("steps", [2.5, 3.0, np.float64(3.0), True, "3",
                                   None])
def test_non_integer_steps_raise(steps):
    # A step count of 2.5 used to be accounted (epsilon 3.20) and logged.
    with pytest.raises(DomainError, match="must be an integer"):
        accountant.spend_for_training(0.1, 1.0, steps)


def test_numpy_integer_steps_are_accounted():
    spend, log = accountant.spend_for_training(0.1, 1.0, np.int64(3))
    assert spend == accountant.spend_for_training(0.1, 1.0, 3)[0]
    assert log["steps"] == 3


def _clear_memo():
    accountant._order_grid.cache_clear()
    accountant._memo_series_coefs.cache_clear()
    accountant._int_order_tables.cache_clear()


def _parent_epsilon(q, sigma, steps):
    """The frozen reference's epsilon at the default orders and delta."""
    curve = accountant.RdpCurve(
        accountant.DEFAULT_ORDERS,
        accountant_parent.rdp_subsampled_gaussian(
            q, sigma, steps, accountant.DEFAULT_ORDERS), q, sigma, steps)
    return accountant.rdp_to_dp(curve).epsilon


def test_memo_keeps_nothing_per_query():
    # The first query runs the default fractional orders' series past 1024
    # terms, so every memoized chunk ([0, 64), [64, 256), [256, 1024)) is
    # filled; 200 queries at other (q, sigma) then add no entry, and every
    # entry is a vector per order or a chunk of coefficients per order.
    _clear_memo()
    accountant.spend_for_training(0.1, 1.0, 10)
    assert accountant._memo_series_coefs.cache_info().currsize == 3
    rng = np.random.default_rng(15)
    for q, sigma in zip(rng.uniform(1e-3, 0.2, 200),
                        rng.uniform(0.5, 4.0, 200)):
        spend, _ = accountant.spend_for_training(q, sigma, 1000)
        assert spend.epsilon == _parent_epsilon(q, sigma, 1000)
    grid_info = accountant._order_grid.cache_info()
    assert (grid_info.currsize, grid_info.hits) == (1, 200)
    assert accountant._memo_series_coefs.cache_info().currsize == 3
    # The integer-order tables are keyed on the grid's largest order: one
    # read-only entry, shared by every query.
    tables_info = accountant._int_order_tables.cache_info()
    assert (tables_info.currsize, tables_info.hits) == (1, 200)
    size = int(max(accountant.DEFAULT_ORDERS)) + 1
    log_fact, *windows = accountant._int_order_tables(size)
    assert log_fact.shape == (size,)
    assert all(w.shape == (size, size) for w in windows)
    assert not any(a.flags.writeable for a in (log_fact, *windows))
    alphas, is_int, ints, fracs = accountant._order_grid()
    assert alphas.tolist() == list(accountant.DEFAULT_ORDERS)
    assert ints.tolist() == alphas[is_int].tolist()
    assert fracs == (1.25, 1.5, 1.75)
    assert not any(a.flags.writeable for a in (alphas, is_int, ints))
    for lo, n in ((0, 64), (64, 256), (256, 1024)):
        coef, log_coef = accountant._memo_series_coefs(fracs, lo, n)
        assert coef.shape == log_coef.shape == (len(fracs), n - lo)
        assert not coef.flags.writeable and not log_coef.flags.writeable
    assert accountant._memo_series_coefs.cache_info().currsize == 3
