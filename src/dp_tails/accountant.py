"""Renyi-DP accounting for the Poisson-subsampled Gaussian mechanism.

Per-step RDP at order alpha:
  q = 0  -> 0
  q = 1  -> alpha / (2 sigma^2)                      (plain Gaussian)
  else   -> log A_alpha / (alpha - 1) (Mironov, Talwar & Zhang 2019): for
            integer alpha the exact binomial sum, one orders x k matrix of
            log-terms built from a table of log k! and reduced by a
            log-sum-exp per order; for fractional alpha the erfc series,
            its signed terms summed by one signed log-sum-exp.
The log-sum-exp is scipy.special.logsumexp's arithmetic (scipy 1.17.1)
without its array-API dispatch, so curves keep scipy's bits.
scipy.special is imported by the first query at 0 < q < 1, not with this
module nor by a closed-form query (zero steps, q = 0, q = 1).

A curve is a float64 array of RDP values, one per order of the one order
grid DEFAULT_ORDERS, so curves compose by adding them order by order, and
rdp_to_dp converts one curve or a sum of curves. One memo, _grid(), keeps
read-only what the grid alone decides, filled with that import: the
orders, their integer mask and the integer and fractional orders; the
log k! table and its two q-independent window views (about 6 KB); and
the fractional orders' binomial coefficients (and their logs) for series
up to _MEMO_SERIES_TERMS terms. Nothing that depends on (q, sigma) is
kept, nor the orders x k log-term matrix: queries rarely repeat a
(q, sigma), and a kept 0.5 MB matrix per program import raised a
benchmark's peak RSS by 4-7 MB.
Composition over T steps is linear; conversion to (eps, delta) takes the
minimum of eps(alpha) + log(1/delta)/(alpha-1) over the orders.

Caveat recorded in every report: Poisson-subsampling accounting is
applied to shuffled fixed-size-batch training, and with fewer microbatches
than records per batch the adjacency unit is one microbatch, not one
record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DomainError, InfinitePrivacyLossError

DEFAULT_DELTA = 1e-5
DEFAULT_ORDERS = (1.25, 1.5, 1.75) + tuple(map(float, range(2, 257)))
# Longest fractional-order series computed (64 * 4**6 terms): q = 0.5 with
# sigma = 1e5 needs all of it at order 1.25; a NaN term never stops one.
MAX_SERIES_TERMS = 262144
# Longest fractional-order series whose coefficients _grid() keeps.
_MEMO_SERIES_TERMS = 1024

STANDARD_CAVEATS = (
    "Poisson-subsampling RDP bound applied to shuffled fixed-size batches",
    "with microbatch_count < batch_size the adjacency unit is one microbatch",
    "privacy loss from hyperparameter search is not accounted",
)


@dataclass
class PrivacySpend:
    epsilon: float
    delta: float
    argmin_order: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise ConfigurationError("delta: must lie in [0,1)")
        if self.epsilon < 0:
            raise ConfigurationError("epsilon: must be >= 0")

    def to_dict(self):
        return {"epsilon": self.epsilon if math.isfinite(self.epsilon) else "inf",
                "delta": self.delta,
                "argmin_order": self.argmin_order}


def _logsumexp(a, axis, b=None):
    """scipy.special.logsumexp(a, axis, b) for real float64 `a` (and real
    `b` broadcastable to it), bit for bit: scipy 1.17.1's `_logsumexp`
    arithmetic without its array-API dispatch. The largest entries of each
    reduction are taken out of the sum and counted, m, and the result is
    log1p(s / m) + log(m) + max; where that is not finite (a max of +-inf
    or NaN, a negative sum), the direct log(sum(b * exp(a))) stands."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        live = a if b is None else np.where(b == 0, -np.inf, a)
        a_max = live.max(axis=axis, keepdims=True)
        top = live == a_max
        m = np.sum(top if b is None else b * top, axis=axis, keepdims=True,
                   dtype=float)
        shifted = live - a_max
        shifted[top] = -np.inf
        # exp is exactly 0 below -745.14, and numpy's exp is about 15x
        # slower on such arguments (4x on -inf) than on the rest; most
        # log-terms lie there, so only the others are exponentiated.
        e = np.exp(shifted, out=np.zeros_like(shifted),
                   where=shifted > -746.0)
        s = (e if b is None else b * e).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        sign = np.sign(s + 1) * np.sign(m)
        s = np.where(s < -1, -s - 2, s)
        out = np.log1p(s) + np.log(np.abs(m)) + a_max
        out[sign < 0] = np.nan
        bad = ~np.isfinite(out)
        if bad.any():
            e = np.exp(a) if b is None else b * np.exp(a)
            out = np.where(bad, np.log(e.sum(axis=axis, keepdims=True)),
                           out)
    return out.squeeze(axis)


@functools.cache
def _grid():
    """What DEFAULT_ORDERS alone decides, read-only: the orders, their
    integer mask, the integer and fractional orders, log k! up to the
    largest order K - 1, the windows of length K over the reversed log k!
    (padded where k > alpha) and over the k > alpha mask, and the
    fractional orders' series coefficients and their logs up to
    _MEMO_SERIES_TERMS terms."""
    from scipy import special
    alphas = np.array(DEFAULT_ORDERS)
    is_int = alphas == np.floor(alphas)
    ints, fracs = alphas[is_int].astype(int), alphas[~is_int]
    size = int(ints.max()) + 1
    log_fact = special.gammaln(np.arange(1, size + 1))
    padded = np.concatenate((log_fact[::-1], np.zeros(size - 1)))
    masked = np.arange(size - 1, -size, -1) < 0
    coef, log_coef = _series_coefs(fracs, 0, _MEMO_SERIES_TERMS)
    for a in (alphas, is_int, ints, fracs, log_fact):
        a.flags.writeable = False
    return (alphas, is_int, ints, fracs, log_fact,
            sliding_window_view(padded, size),
            sliding_window_view(masked, size), coef, log_coef)


def _series_coefs(alphas, lo, n):
    """special.binom(alpha, i) and log|binom(alpha, i)| for i in [lo, n),
    one row per order of the array `alphas`."""
    from scipy import special
    coef = special.binom(alphas[:, None], np.arange(lo, n))
    log_coef = np.log(np.abs(coef))
    coef.flags.writeable = log_coef.flags.writeable = False
    return coef, log_coef


def _log_a_int(q, sigma):
    """log A_alpha for the grid's integer orders: the exact binomial sum,
    an orders x k matrix of log-terms (k > alpha masked out) reduced by one
    log-sum-exp per order. Each log-term is summed in the direct formula's
    left-to-right order, so it keeps that formula's bits. Row alpha reads
    log (alpha - k)!, alpha - k and the k > alpha mask as one window of a
    reversed vector each: the window of length K = max order + 1 starting
    at K - 1 - alpha."""
    _, _, alphas, _, log_fact, fact_windows, mask_windows, _, _ = _grid()
    size = len(log_fact)
    # rest[j] = K - 1 - j, so its window at K - 1 - alpha is alpha - k.
    rest = np.arange(size - 1, -size, -1)
    windows = (fact_windows,
               sliding_window_view(rest * math.log1p(-q), size),
               mask_windows)
    k = np.arange(size)
    log_qk = k * math.log(q)
    quad = (k * k - k) / (2.0 * sigma ** 2)
    log_a = np.empty(len(alphas))
    # Every step works row by row, so blocks of rows give the same bits. At
    # 2**14 cells (128 KiB) the allocator reuses a block's temporaries for
    # the next block and call; whole-matrix temporaries (512 KiB at the
    # default orders) took about 500 fresh page faults per call.
    rows = max(1, 2 ** 14 // size)
    for lo in range(0, len(alphas), rows):
        start = size - 1 - alphas[lo:lo + rows]
        log_fact_rest, rest_log1p, masked = (w[start] for w in windows)
        terms = log_fact[alphas[lo:lo + rows], None] - log_fact
        terms -= log_fact_rest
        terms += log_qk
        terms += rest_log1p
        terms += quad
        np.copyto(terms, -np.inf, where=masked)
        log_a[lo:lo + rows] = _logsumexp(terms, axis=1)
    return log_a


def _log_a_frac(q, sigma):
    """log A_alpha for the grid's fractional orders: the erfc series of
    each order up to its first term below e^-30 past i = alpha, as one
    orders x i matrix of log-terms (longer series masked out) reduced by
    one signed log-sum-exp. The index range grows fourfold, each new term
    computed once, until every order's series has stopped; past
    MAX_SERIES_TERMS it raises DomainError, as the terms then no longer
    fall (a NaN or infinite term never does)."""
    from scipy import special
    _, _, _, alphas, _, _, _, memo_coef, memo_log_coef = _grid()
    z0 = sigma ** 2 * math.log(1.0 / q - 1.0) + 0.5
    chunks = []
    stopped = np.zeros(len(alphas), dtype=bool)
    column = alphas[:, None]
    lo, n = 0, 64
    while True:
        i = np.arange(lo, n)
        j = column - i
        if n <= _MEMO_SERIES_TERMS:
            coef, log_coef = memo_coef[:, lo:n], memo_log_coef[:, lo:n]
        else:
            coef, log_coef = _series_coefs(alphas, lo, n)
        log_s0 = (log_coef + i * math.log(q) + j * math.log1p(-q)
                  + (i * i - i) / (2.0 * sigma ** 2)
                  + special.log_ndtr((z0 - i) / sigma))
        log_s1 = (log_coef + j * math.log(q) + i * math.log1p(-q)
                  + (j * j - j) / (2.0 * sigma ** 2)
                  + special.log_ndtr((j - z0) / sigma))
        stop = (np.maximum(log_s0, log_s1) < -30) & (i + 1 > column)
        chunks.append((coef, log_s0, log_s1, stop))
        stopped |= stop.any(axis=1)
        if stopped.all():
            break
        if n >= MAX_SERIES_TERMS:
            raise DomainError(
                f"the fractional-order RDP series at q = {q!r}, sigma = "
                f"{sigma!r} does not converge within {MAX_SERIES_TERMS} terms")
        lo, n = n, 4 * n
    coef, log_s0, log_s1, stop = (np.concatenate(c, axis=1)
                                  for c in zip(*chunks))
    kept = np.arange(n) <= stop.argmax(axis=1)[:, None]
    return _logsumexp(np.where(kept, [log_s0, log_s1], -np.inf),
                      axis=(0, 2), b=np.sign(coef))


def rdp_subsampled_gaussian(q, sigma, steps) -> np.ndarray:
    """The RDP curve of `steps` steps at sampling rate q and noise
    multiplier sigma: a float64 array, one value per order of
    DEFAULT_ORDERS."""
    if not 0.0 <= q <= 1.0:
        raise DomainError("sampling rate q must lie in [0,1]")
    if not math.isfinite(sigma):
        # _log_a_frac's series would never meet its stop test.
        raise DomainError("noise multiplier sigma must be finite")
    if sigma < 0.0:
        raise DomainError("noise multiplier sigma must be >= 0")
    if sigma > 0.0 and not 0.0 < sigma * sigma < math.inf:
        # sigma ** 2 divides the log-terms: rounded to 0 it makes them NaN,
        # so the fractional-order series never stops, and past the float
        # range python's sigma ** 2 raises OverflowError.
        raise DomainError("noise multiplier sigma: sigma ** 2 under- or "
                          "overflows a float")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool):
        raise DomainError(f"step count must be an integer, not {steps!r}")
    if steps < 0:
        raise DomainError("step count must be >= 0")
    size = len(DEFAULT_ORDERS)
    if steps == 0:
        return np.zeros(size)
    if sigma <= 0.0:
        if q > 0.0:
            raise InfinitePrivacyLossError(
                "sigma = 0 with positive sampling rate has no finite RDP")
        return np.zeros(size)
    # For sigma below about 1e-152 the quadratic log-terms of the larger
    # orders overflow to inf (and an erfc-series term can then be inf - inf),
    # as can the composed curve: those orders' RDP is infinite, a sound
    # bound, and the minimum over orders comes from the others. That
    # overflow is expected arithmetic, not an error.
    with np.errstate(over="ignore", invalid="ignore"):
        if q == 0.0:
            per_step = np.zeros(size)
        elif 1.0 / (2.0 * sigma ** 2) == math.inf:
            # The quadratic log-term (k^2 - k) / (2 sigma^2) of every order
            # overflows (k = 2 already), so every order's RDP is infinite;
            # the series would only reach that through overflow and NaN
            # arithmetic.
            per_step = np.full(size, math.inf)
        elif q == 1.0:
            per_step = np.array(DEFAULT_ORDERS) / (2.0 * sigma ** 2)
        else:
            alphas, is_int = _grid()[:2]
            log_a = np.empty(size)
            log_a[is_int] = _log_a_int(q, sigma)
            log_a[~is_int] = _log_a_frac(q, sigma)
            per_step = np.maximum(log_a / (alphas - 1.0), 0.0)
        return steps * per_step


def rdp_to_dp(curve, delta=DEFAULT_DELTA) -> PrivacySpend:
    """The (epsilon, delta) spend of an RDP curve at DEFAULT_ORDERS, one
    curve or a sum of curves: the minimum over the orders."""
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0,1)")
    if np.shape(curve) != (len(DEFAULT_ORDERS),):
        raise DomainError(f"an RDP curve has one value per order of "
                          f"DEFAULT_ORDERS, not shape {np.shape(curve)}")
    orders = np.array(DEFAULT_ORDERS)   # not _grid(), which imports scipy
    candidates = curve + math.log(1.0 / delta) / (orders - 1.0)
    idx = int(np.argmin(candidates))
    return PrivacySpend(epsilon=float(candidates[idx]), delta=delta,
                        argmin_order=float(orders[idx]))


def spend_for_training(q, sigma, steps, delta=DEFAULT_DELTA):
    """Accountant entry point used by the trainers; returns the spend plus
    the (q, sigma, T, delta) log line that makes it recomputable. Zero
    steps release nothing, so they spend epsilon = 0 (after the same input
    checks) rather than the conversion term alone."""
    curve = rdp_subsampled_gaussian(q, sigma, steps)
    spend = rdp_to_dp(curve, delta)
    if steps == 0:
        spend = PrivacySpend(epsilon=0.0, delta=delta)
    log = {"q": q, "sigma": sigma, "steps": steps, "delta": delta,
           "caveats": list(STANDARD_CAVEATS)}
    return spend, log
