"""Frozen scipy-based RDP curve, the bit-for-bit reference for the accountant.

A verbatim copy of dp_tails.accountant's `_log_a_int`, `_log_a_frac` and
`rdp_subsampled_gaussian` as they stood before the integer orders took
their log-binomials from a log-factorial table and both paths moved from
`scipy.special.logsumexp` to the accountant's own log-sum-exp. The only
edits: `rdp_subsampled_gaussian` takes `orders` without a default and
returns the curve's `eps_rdp` array rather than an `RdpCurve`. The differential tests in tests/test_accountant.py
require the package's curves to equal these byte for byte. Do not edit it
to follow the package.
"""

import math

import numpy as np
from scipy import special

from dp_tails.errors import DomainError, InfinitePrivacyLossError

MAX_INT_ORDER = 1024


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


def rdp_subsampled_gaussian(q, sigma, steps, orders):
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
        return np.zeros(len(orders))
    if sigma <= 0.0:
        if q > 0.0:
            raise InfinitePrivacyLossError(
                "sigma = 0 with positive sampling rate has no finite RDP")
        return np.zeros(len(orders))
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
    return steps * per_step
