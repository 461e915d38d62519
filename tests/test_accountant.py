import json
import math
import os
import subprocess
import sys

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
    assert curve[accountant.DEFAULT_ORDERS.index(2.0)] == 1.0


def test_zero_steps_zero_curve():
    curve = accountant.rdp_subsampled_gaussian(0.01, 1.0, 0)
    assert np.all(curve == 0.0)


def test_q_zero_zero_curve():
    curve = accountant.rdp_subsampled_gaussian(0.0, 1.0, 100)
    assert np.all(curve == 0.0)


def test_golden_curve(goldens):
    g = goldens["curve"]
    curve = accountant.rdp_subsampled_gaussian(g["q"], g["sigma"], g["steps"])
    assert accountant.DEFAULT_ORDERS == tuple(g["orders"])
    expected = np.asarray(g["eps_rdp"])
    rel = np.abs(curve - expected) / np.maximum(expected, 1e-300)
    assert rel.max() < 1e-6


def test_golden_grid_epsilon_within_one_percent(goldens):
    for row in goldens["grid"]:
        spend, _ = accountant.spend_for_training(
            q=row["q"], sigma=row["sigma"], steps=row["steps"],
            delta=row["delta"])
        assert abs(spend.epsilon - row["epsilon"]) <= 0.01 * row["epsilon"]


def test_conversion_overhead_limit():
    # A zero curve converts at the grid's largest order, 256.
    curve = np.zeros(len(accountant.DEFAULT_ORDERS))
    spend = accountant.rdp_to_dp(curve, delta=1e-5)
    assert spend.epsilon == math.log(1e5) / 255
    assert spend.argmin_order == 256.0


def test_conversion_single_order():
    # A curve infinite at every order but 2 converts at order 2.
    curve = np.full(len(accountant.DEFAULT_ORDERS), math.inf)
    curve[accountant.DEFAULT_ORDERS.index(2.0)] = 1.0
    spend = accountant.rdp_to_dp(curve, delta=1e-5)
    assert abs(spend.epsilon - (1.0 + math.log(1e5))) < 1e-12
    assert spend.argmin_order == 2.0


def test_conversion_min_monotonicity():
    lo = np.linspace(0.1, 2.0, len(accountant.DEFAULT_ORDERS))
    hi = lo + np.random.default_rng(3).uniform(0.0, 0.1, len(lo))
    assert (accountant.rdp_to_dp(lo).epsilon
            <= accountant.rdp_to_dp(hi).epsilon)


@pytest.mark.parametrize("shape", [(3,), (2, 258), (258, 1), ()])
def test_conversion_refuses_other_shapes(shape):
    assert len(accountant.DEFAULT_ORDERS) == 258
    with pytest.raises(DomainError, match="one value per order"):
        accountant.rdp_to_dp(np.zeros(shape))


def test_composition_is_the_sum_of_curves():
    # Two distinct mechanisms compose by adding their curves order by
    # order; the sum converts to the frozen reference's epsilon, bit for
    # bit.
    c1 = accountant.rdp_subsampled_gaussian(0.01, 1.1, 700)
    c2 = accountant.rdp_subsampled_gaussian(0.2, 3.0, 50)
    want = accountant.rdp_to_dp(
        accountant_parent.rdp_subsampled_gaussian(
            0.01, 1.1, 700, accountant.DEFAULT_ORDERS)
        + accountant_parent.rdp_subsampled_gaussian(
            0.2, 3.0, 50, accountant.DEFAULT_ORDERS))
    got = accountant.rdp_to_dp(c1 + c2)
    assert float.hex(got.epsilon) == float.hex(want.epsilon)
    assert got == want
    assert got.epsilon > max(accountant.rdp_to_dp(c1).epsilon,
                             accountant.rdp_to_dp(c2).epsilon)


def test_composition_linearity():
    one = accountant.rdp_subsampled_gaussian(0.01, 1.0, 1)
    many = accountant.rdp_subsampled_gaussian(0.01, 1.0, 300)
    assert np.array_equal(300.0 * one, many)


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
    assert np.isfinite(curve).all()
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
    assert _same_bits(got, want)


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
        assert not np.isnan(curve).any()
        assert curve.tobytes() == want.tobytes()
        assert spend == accountant.rdp_to_dp(curve)


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


def test_closed_form_spends_load_no_scipy():
    # Zero steps, q = 0 and q = 1 need no series, so a fresh process
    # answers them without importing scipy.special (about 0.2 s).
    code = ("import sys\n"
            "from dp_tails import accountant\n"
            "for q, steps in ((0.1, 0), (0.0, 10), (1.0, 10)):\n"
            "    accountant.spend_for_training(q, 1.0, steps)\n"
            "assert 'scipy.special' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(accountant.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_numpy_integer_steps_are_accounted():
    spend, log = accountant.spend_for_training(0.1, 1.0, np.int64(3))
    assert spend == accountant.spend_for_training(0.1, 1.0, 3)[0]
    assert log["steps"] == 3


def _parent_epsilon(q, sigma, steps):
    """The frozen reference's epsilon at the default orders and delta."""
    return accountant.rdp_to_dp(accountant_parent.rdp_subsampled_gaussian(
        q, sigma, steps, accountant.DEFAULT_ORDERS)).epsilon


def test_memo_keeps_nothing_per_query():
    # The grid memo is one entry, filled by the first query; 200 queries at
    # other (q, sigma), whose fractional-order series run past 64 terms,
    # add nothing to it, and every array in it has the grid's shape.
    accountant._grid.cache_clear()
    accountant.spend_for_training(0.1, 1.0, 10)
    assert accountant._grid.cache_info().currsize == 1
    grid = accountant._grid()
    rng = np.random.default_rng(15)
    for q, sigma in zip(rng.uniform(1e-3, 0.2, 200),
                        rng.uniform(0.5, 4.0, 200)):
        spend, _ = accountant.spend_for_training(q, sigma, 1000)
        assert spend.epsilon == _parent_epsilon(q, sigma, 1000)
    info = accountant._grid.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert accountant._grid() is grid
    (alphas, is_int, ints, fracs, log_fact, fact_windows, mask_windows,
     coef, log_coef) = grid
    assert alphas.tolist() == list(accountant.DEFAULT_ORDERS)
    assert ints.tolist() == alphas[is_int].tolist()
    assert fracs.tolist() == [1.25, 1.5, 1.75]
    size = int(max(accountant.DEFAULT_ORDERS)) + 1
    assert log_fact.shape == (size,)
    assert fact_windows.shape == mask_windows.shape == (size, size)
    assert coef.shape == log_coef.shape == (3, accountant._MEMO_SERIES_TERMS)
    assert not any(a.flags.writeable for a in grid)
