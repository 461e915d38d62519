"""Renyi-DP accounting for the Poisson-subsampled Gaussian mechanism.

Per-step RDP at order alpha:
  q = 0  -> 0
  q = 1  -> alpha / (2 sigma^2)                      (plain Gaussian)
  else   -> log A_alpha / (alpha - 1) (Mironov, Talwar & Zhang 2019): for
            integer alpha the exact binomial sum, one orders x k matrix of
            log-terms reduced by logsumexp; for fractional alpha the erfc
            series, its signed terms summed by one logsumexp.
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


def _log_a_int(q, sigma, alphas):
    """log A_alpha for integer orders: the exact binomial sum, one
    orders x k matrix of log-terms (k > alpha masked out) reduced by one
    log-sum-exp per order."""
    alphas = np.asarray(alphas)[:, None]
    k = np.arange(alphas.max() + 1)
    terms = (special.gammaln(alphas + 1) - special.gammaln(k + 1)
             - special.gammaln(np.maximum(alphas - k, 0) + 1)
             + k * math.log(q) + (alphas - k) * math.log1p(-q)
             + (k * k - k) / (2.0 * sigma ** 2))
    return special.logsumexp(np.where(k <= alphas, terms, -np.inf), axis=1)


def _log_a_frac(q, sigma, alphas):
    """log A_alpha for fractional orders: the erfc series of each order up to
    its first term below e^-30 past i = alpha, as one orders x i matrix of
    log-terms (longer series masked out) reduced by one signed log-sum-exp;
    the index range grows until every order's series has stopped."""
    alphas = np.asarray(alphas)[:, None]
    z0 = sigma ** 2 * math.log(1.0 / q - 1.0) + 0.5
    n = 64
    while True:
        i = np.arange(n)
        j = alphas - i
        coef = special.binom(alphas, i)
        log_coef = np.log(np.abs(coef))
        log_s0 = (log_coef + i * math.log(q) + j * math.log1p(-q)
                  + (i * i - i) / (2.0 * sigma ** 2)
                  + special.log_ndtr((z0 - i) / sigma))
        log_s1 = (log_coef + j * math.log(q) + i * math.log1p(-q)
                  + (j * j - j) / (2.0 * sigma ** 2)
                  + special.log_ndtr((j - z0) / sigma))
        stop = (np.maximum(log_s0, log_s1) < -30) & (i + 1 > alphas)
        if stop.any(axis=1).all():
            break
        n *= 4
    kept = i <= stop.argmax(axis=1)[:, None]
    return special.logsumexp(np.where(kept, [log_s0, log_s1], -np.inf),
                             axis=(0, 2), b=np.sign(coef))


def rdp_subsampled_gaussian(q, sigma, steps, orders=DEFAULT_ORDERS) -> RdpCurve:
    if not 0.0 <= q <= 1.0:
        raise DomainError("sampling rate q must lie in [0,1]")
    if not math.isfinite(sigma):
        # _log_a_frac's series would never meet its stop test.
        raise DomainError("noise multiplier sigma must be finite")
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


def group_epsilon(base: PrivacySpend, k) -> PrivacySpend:
    """Group privacy degrades the epsilon bound linearly with group size k;
    delta is passed through unchanged."""
    if int(k) != k or k < 1:
        raise DomainError("group size k must be an integer >= 1")
    if not math.isfinite(base.epsilon):
        raise DomainError("group privacy undefined for non-private spend")
    return PrivacySpend(epsilon=k * base.epsilon, delta=base.delta,
                        argmin_order=base.argmin_order)


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
