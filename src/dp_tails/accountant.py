"""Renyi-DP accounting for the Poisson-subsampled Gaussian mechanism.

Per-step RDP at order alpha:
  q = 0  -> 0
  q = 1  -> alpha / (2 sigma^2)                      (plain Gaussian)
  else   -> binomial-expansion bound, exact sum for integer alpha and the
            erfc-based series for fractional alpha, all in log space.
Composition over T steps is linear; conversion to (eps, delta) takes the
minimum of eps(alpha) + log(1/delta)/(alpha-1) over the curve's orders.

Caveat recorded in every report: Poisson-subsampling accounting is
applied to shuffled fixed-size-batch training, and with fewer microbatches
than records per batch the adjacency unit is one microbatch, not one
record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import ConfigurationError, DomainError, InfinitePrivacyLossError

DEFAULT_DELTA = 1e-5
DEFAULT_ORDERS = (1.25, 1.5, 1.75) + tuple(range(2, 257))

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


def _log_add(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = max(a, b), min(a, b)
    return hi + math.log1p(math.exp(lo - hi))


def _log_sub(a, b):
    # requires a >= b
    if b == -math.inf:
        return a
    if a == b:
        return -math.inf
    return a + math.log1p(-math.exp(b - a))


def _log_erfc(x):
    return math.log(2.0) + special.log_ndtr(-x * 2 ** 0.5)


def _log_a_int(q, sigma, alpha):
    log_a = -math.inf
    log_q, log_1mq = math.log(q), math.log1p(-q)
    for k in range(alpha + 1):
        term = (math.lgamma(alpha + 1) - math.lgamma(k + 1)
                - math.lgamma(alpha - k + 1)
                + k * log_q + (alpha - k) * log_1mq
                + (k * k - k) / (2.0 * sigma ** 2))
        log_a = _log_add(log_a, term)
    return log_a


def _log_a_frac(q, sigma, alpha):
    log_a0, log_a1 = -math.inf, -math.inf
    z0 = sigma ** 2 * math.log(1.0 / q - 1.0) + 0.5
    i = 0
    while True:
        coef = special.binom(alpha, i)
        log_coef = math.log(abs(coef))
        j = alpha - i
        log_t0 = log_coef + i * math.log(q) + j * math.log1p(-q)
        log_t1 = log_coef + j * math.log(q) + i * math.log1p(-q)
        log_e0 = math.log(0.5) + _log_erfc((i - z0) / (math.sqrt(2) * sigma))
        log_e1 = math.log(0.5) + _log_erfc((z0 - j) / (math.sqrt(2) * sigma))
        log_s0 = log_t0 + (i * i - i) / (2.0 * sigma ** 2) + log_e0
        log_s1 = log_t1 + (j * j - j) / (2.0 * sigma ** 2) + log_e1
        if coef > 0:
            log_a0 = _log_add(log_a0, log_s0)
            log_a1 = _log_add(log_a1, log_s1)
        else:
            log_a0 = _log_sub(log_a0, log_s0)
            log_a1 = _log_sub(log_a1, log_s1)
        i += 1
        if max(log_s0, log_s1) < -30 and i > alpha:
            break
    return _log_add(log_a0, log_a1)


def rdp_per_step(q, sigma, alpha):
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return alpha / (2.0 * sigma ** 2)
    if float(alpha).is_integer():
        log_a = _log_a_int(q, sigma, int(alpha))
    else:
        log_a = _log_a_frac(q, sigma, alpha)
    return max(log_a / (alpha - 1.0), 0.0)


def rdp_subsampled_gaussian(q, sigma, steps, orders=DEFAULT_ORDERS) -> RdpCurve:
    if not 0.0 <= q <= 1.0:
        raise DomainError("sampling rate q must lie in [0,1]")
    if steps < 0:
        raise DomainError("step count must be >= 0")
    orders = tuple(sorted(float(a) for a in orders))
    if any(a <= 1.0 for a in orders):
        raise DomainError("all orders must exceed 1")
    if steps == 0:
        return RdpCurve(orders, np.zeros(len(orders)), q, sigma, 0)
    if sigma <= 0.0:
        if q > 0.0:
            raise InfinitePrivacyLossError(
                "sigma = 0 with positive sampling rate has no finite RDP")
        return RdpCurve(orders, np.zeros(len(orders)), q, sigma, steps)
    eps = np.array([steps * rdp_per_step(q, sigma, a) for a in orders])
    return RdpCurve(orders, eps, q, sigma, steps)


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


@dataclass
class GroupPrivacyQuery:
    base: PrivacySpend
    k: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise DomainError("group size k must be an integer >= 1")


def group_epsilon(query: GroupPrivacyQuery) -> PrivacySpend:
    """Group privacy degrades the epsilon bound linearly with group size;
    delta is passed through unchanged."""
    base = query.base
    if not math.isfinite(base.epsilon):
        raise DomainError("group privacy undefined for non-private spend")
    return PrivacySpend(epsilon=query.k * base.epsilon, delta=base.delta,
                        argmin_order=base.argmin_order)


def spend_for_training(q, sigma, steps, delta=DEFAULT_DELTA,
                       orders=DEFAULT_ORDERS):
    """Accountant entry point used by the trainers; returns the spend plus
    the (q, sigma, T, delta) log line that makes it recomputable."""
    curve = rdp_subsampled_gaussian(q, sigma, steps, orders)
    spend = rdp_to_dp(curve, delta)
    log = {"q": q, "sigma": sigma, "steps": steps, "delta": delta,
           "caveats": list(STANDARD_CAVEATS)}
    return spend, log
