"""Evaluation and statistical primitives.

AUROC uses tie-adjusted pair counting (ties worth 0.5) through the
Mann-Whitney rank sum; the midranks come from one stable numpy argsort and
are exact half-integers, bit-identical to SciPy's rankdata. AUPRC is
average precision over the descending-score rank walk, the binomial test is
the exact two-sided probability-mass method computed in log space, and the
Pearson test uses the t-transform with n-2 degrees of freedom, its two-sided
p-value 2 * scipy.special.stdtr(n-2, -|t|), the function SciPy's t.sf calls.
SciPy's stats subpackage is never imported: it would more than double the
package's import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self):
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class TestResult:
    statistic: float
    p_value: float
    method: str


def _binary_arrays(scores, labels):
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel().astype(np.int64)
    if s.shape != y.shape:
        raise UndefinedMetricError("scores and labels must have equal length")
    if not ((y == 0) | (y == 1)).all():
        raise UndefinedMetricError("labels must be binary")
    return s, y


def _midranks(s):
    """1-based ranks with ties given the mean of their run, as
    SciPy's rankdata(s) returns them; any NaN makes every rank NaN."""
    if np.isnan(s).any():
        return np.full(len(s), np.nan)
    order = np.argsort(s, kind="stable")
    v = s[order]
    first = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    count = np.diff(np.r_[first, len(v)])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(first + 1 + (count - 1) / 2.0, count)
    return ranks


def auroc(scores, labels) -> float:
    s, y = _binary_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    ranks = _midranks(s)  # midranks handle ties as half-weight pairs
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    s, y = _binary_arrays(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise UndefinedMetricError("AUPRC needs at least one positive")
    order = np.lexsort((np.arange(len(s)), -s))
    y_sorted = y[order]
    cum_pos = np.cumsum(y_sorted)
    ranks = np.arange(1, len(s) + 1)
    precision_at = cum_pos / ranks
    return float(precision_at[y_sorted == 1].mean())


def confusion(scores, labels, threshold=0.5) -> ConfusionMatrix:
    s, y = _binary_arrays(scores, labels)
    pred = s >= threshold
    return ConfusionMatrix(
        tp=int(np.sum(pred & (y == 1))),
        fp=int(np.sum(pred & (y == 0))),
        tn=int(np.sum(~pred & (y == 0))),
        fn=int(np.sum(~pred & (y == 1))),
    )


def binomial_test(successes, trials, p0=0.5) -> TestResult:
    """Exact two-sided binomial test: sum the probability of every
    outcome no more likely than the observed one."""
    from scipy.special import gammaln
    k, n = int(successes), int(trials)
    if n < 1 or not 0 <= k <= n:
        raise UndefinedMetricError("need 0 <= successes <= trials, trials >= 1")
    if not 0.0 < p0 < 1.0:
        raise UndefinedMetricError("p0 must lie in (0,1)")
    j = np.arange(n + 1)
    log_pmf = (gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1)
               + j * np.log(p0) + (n - j) * np.log1p(-p0))
    cutoff = log_pmf[k] + np.log1p(1e-12)
    include = log_pmf <= cutoff
    # The whole pmf sums to exactly 1; avoid returning 1 - float dust.
    p = 1.0 if include.all() else float(np.exp(log_pmf[include]).sum())
    return TestResult(statistic=k / n, p_value=min(p, 1.0),
                      method="exact-binomial-two-sided")


def pearson(x, y) -> TestResult:
    from scipy.special import stdtr
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    n = len(xa)
    if len(ya) != n or n < 3:
        raise UndefinedMetricError("need equal-length vectors, n >= 3")
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise UndefinedMetricError("zero variance input")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedMetricError("zero variance input")
    denom = np.sqrt(sx * sy)
    if not 0.0 < denom < math.inf:
        # sx * sy under- or overflowed (say, values near 1e-100).
        denom = np.sqrt(sx) * np.sqrt(sy)
    r = float(xc @ yc / denom)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * np.sqrt((n - 2) / (1.0 - r * r))
        p = float(2.0 * stdtr(n - 2, -abs(t)))
    return TestResult(statistic=r, p_value=p, method="pearson-t")
