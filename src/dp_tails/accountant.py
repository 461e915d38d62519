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
without its array-API dispatch, so curves keep scipy's bits. Nothing is
kept between calls: every query builds its own matrices.
Composition over T steps is linear; conversion to (eps, delta) takes the
minimum of eps(alpha) + log(1/delta)/(alpha-1) over the curve's orders.

Caveat recorded in every report: Poisson-subsampling accounting is
applied to shuffled fixed-size-batch training, and with fewer microbatches
than records per batch the adjacency unit is one microbatch, not one
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigurationError, DomainError, InfinitePrivacyLossError

DEFAULT_DELTA = 1e-5
DEFAULT_ORDERS = (1.25, 1.5, 1.75) + tuple(range(2, 257))
# The integer log-term matrix is (integer orders) x (largest order + 1):
# at most about 8 MB at this cap, hundreds of MB for orders in the thousands.
MAX_INT_ORDER = 1024
# Longest fractional-order series computed (64 * 4**6 terms): q = 0.5 with
# sigma = 1e5 needs all of it at order 1.25; a NaN term never stops one.
MAX_SERIES_TERMS = 262144

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


@dataclass
class RdpCurve:
    orders: tuple
    eps_rdp: np.ndarray
    q: float
    sigma: float
    steps: int


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


def _log_a_int(q, sigma, alphas):
    """log A_alpha for integer orders: the exact binomial sum, an
    orders x k matrix of log-terms (k > alpha masked out) reduced by one
    log-sum-exp per order. The log-binomials are gathered from one table
    of log k! for k = 0..max order, and each log-term is summed in the
    direct formula's left-to-right order, so it keeps that formula's bits."""
    alphas = np.asarray(alphas)[:, None]
    k = np.arange(alphas.max() + 1)
    log_fact = special.gammaln(np.arange(1, len(k) + 1))
    log_qk = k * math.log(q)
    quad = (k * k - k) / (2.0 * sigma ** 2)
    log_a = np.empty(len(alphas))
    # Every step works row by row, so blocks of rows give the same bits. At
    # 2**14 cells (128 KiB) the allocator reuses a block's temporaries for
    # the next block and call; whole-matrix temporaries (512 KiB at the
    # default orders) took about 500 fresh page faults per call.
    rows = max(1, 2 ** 14 // len(k))
    for lo in range(0, len(alphas), rows):
        alpha = alphas[lo:lo + rows]
        rest = alpha - k
        terms = log_fact[alpha] - log_fact[k]
        terms -= log_fact[np.maximum(rest, 0)]
        terms += log_qk
        terms += rest * math.log1p(-q)
        terms += quad
        np.copyto(terms, -np.inf, where=rest < 0)
        log_a[lo:lo + rows] = _logsumexp(terms, axis=1)
    return log_a


def _log_a_frac(q, sigma, alphas):
    """log A_alpha for fractional orders: the erfc series of each order up to
    its first term below e^-30 past i = alpha, as one orders x i matrix of
    log-terms (longer series masked out) reduced by one signed log-sum-exp.
    The index range grows fourfold, each new term computed once, until every
    order's series has stopped; past MAX_SERIES_TERMS it raises DomainError,
    as the terms then no longer fall (a NaN or infinite term never does)."""
    alphas = np.asarray(alphas)[:, None]
    z0 = sigma ** 2 * math.log(1.0 / q - 1.0) + 0.5
    chunks = []
    stopped = np.zeros(len(alphas), dtype=bool)
    lo, n = 0, 64
    while True:
        i = np.arange(lo, n)
        j = alphas - i
        coef = special.binom(alphas, i)
        # An order within rounding of an integer has coefficients of exactly
        # 0; their log-terms are -inf, and the sum drops them (sign 0).
        with np.errstate(divide="ignore"):
            log_coef = np.log(np.abs(coef))
        log_s0 = (log_coef + i * math.log(q) + j * math.log1p(-q)
                  + (i * i - i) / (2.0 * sigma ** 2)
                  + special.log_ndtr((z0 - i) / sigma))
        log_s1 = (log_coef + j * math.log(q) + i * math.log1p(-q)
                  + (j * j - j) / (2.0 * sigma ** 2)
                  + special.log_ndtr((j - z0) / sigma))
        stop = (np.maximum(log_s0, log_s1) < -30) & (i + 1 > alphas)
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


def rdp_subsampled_gaussian(q, sigma, steps, orders=DEFAULT_ORDERS) -> RdpCurve:
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
    if steps < 0:
        raise DomainError("step count must be >= 0")
    orders = tuple(sorted(float(a) for a in orders))
    if any(a <= 1.0 for a in orders):
        raise DomainError("all orders must exceed 1")
    if any(a == math.floor(a) and a > MAX_INT_ORDER for a in orders):
        raise DomainError(f"integer orders above {MAX_INT_ORDER} are not "
                          f"supported")
    if steps == 0:
        return RdpCurve(orders, np.zeros(len(orders)), q, sigma, 0)
    if sigma <= 0.0:
        if q > 0.0:
            raise InfinitePrivacyLossError(
                "sigma = 0 with positive sampling rate has no finite RDP")
        return RdpCurve(orders, np.zeros(len(orders)), q, sigma, steps)
    alphas = np.asarray(orders)
    if q == 0.0:
        per_step = np.zeros(len(orders))
    elif 1.0 / (2.0 * sigma ** 2) == math.inf:
        # The quadratic log-term (k^2 - k) / (2 sigma^2) of every order
        # overflows (k = 2 already), so every order's RDP is infinite; the
        # series would only reach that through overflow and NaN arithmetic.
        per_step = np.full(len(orders), math.inf)
    elif q == 1.0:
        per_step = alphas / (2.0 * sigma ** 2)
    else:
        is_int = alphas == np.floor(alphas)
        log_a = np.empty(len(orders))
        if is_int.any():
            log_a[is_int] = _log_a_int(q, sigma, alphas[is_int].astype(int))
        if not is_int.all():
            log_a[~is_int] = _log_a_frac(q, sigma, alphas[~is_int])
        per_step = np.maximum(log_a / (alphas - 1.0), 0.0)
    return RdpCurve(orders, steps * per_step, q, sigma, steps)


def rdp_to_dp(curve: RdpCurve, delta=DEFAULT_DELTA) -> PrivacySpend:
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0,1)")
    if len(curve.orders) == 0:
        raise DomainError("empty RDP curve")
    orders = np.asarray(curve.orders)
    candidates = curve.eps_rdp + math.log(1.0 / delta) / (orders - 1.0)
    idx = int(np.argmin(candidates))
    return PrivacySpend(epsilon=float(candidates[idx]), delta=delta,
                        argmin_order=float(orders[idx]))


def spend_for_training(q, sigma, steps, delta=DEFAULT_DELTA,
                       orders=DEFAULT_ORDERS):
    """Accountant entry point used by the trainers; returns the spend plus
    the (q, sigma, T, delta) log line that makes it recomputable. Zero
    steps release nothing, so they spend epsilon = 0 (after the same input
    checks) rather than the conversion term alone."""
    curve = rdp_subsampled_gaussian(q, sigma, steps, orders)
    spend = rdp_to_dp(curve, delta)
    if steps == 0:
        spend = PrivacySpend(epsilon=0.0, delta=delta)
    log = {"q": q, "sigma": sigma, "steps": steps, "delta": delta,
           "caveats": list(STANDARD_CAVEATS)}
    return spend, log
