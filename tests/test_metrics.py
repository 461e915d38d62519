import math
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import dp_tails
from dp_tails import metrics
from dp_tails.errors import UndefinedCorrelationError, UndefinedMetricError


def _pair_counting_auroc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def _exact_binomial_p(k, n):
    """Exact two-sided probability-mass p-value in rational arithmetic."""
    pmf = [Fraction(comb(n, j), 2 ** n) for j in range(n + 1)]
    return float(sum(p for p in pmf if p <= pmf[k]))


def test_auroc_perfect():
    assert metrics.auroc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0


def test_auroc_half_case_matches_pair_counting():
    scores = [0.9, 0.8, 0.3, 0.2]
    labels = [1, 0, 0, 1]
    assert metrics.auroc(scores, labels) == _pair_counting_auroc(scores, labels)
    assert metrics.auroc(scores, labels) == 0.5


def test_auroc_all_ties():
    assert metrics.auroc([0.4] * 6, [1, 0, 1, 0, 0, 1]) == 0.5


def test_auroc_random_cases_match_pair_counting(rng):
    for _ in range(20):
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.5, 0.9], size=30)
        labels = rng.integers(2, size=30)
        if labels.min() == labels.max():
            continue
        assert abs(metrics.auroc(scores, labels)
                   - _pair_counting_auroc(scores, labels)) < 1e-12


def test_auroc_monotone_transform_invariance(rng):
    scores = rng.random(50)
    labels = rng.integers(2, size=50)
    labels[0], labels[1] = 0, 1
    a = metrics.auroc(scores, labels)
    b = metrics.auroc(np.exp(3.0 * scores) + 7.0, labels)
    assert abs(a - b) < 1e-12


def test_auroc_complement_identity(rng):
    scores = rng.random(40)
    labels = rng.integers(2, size=40)
    labels[0], labels[1] = 0, 1
    assert metrics.auroc(scores, labels) + metrics.auroc(scores, 1 - labels) == 1.0


# Few distinct values, so most draws hold ties; signed zeros and infinities
# included. A NaN is inserted separately.
_TIE_HEAVY = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, math.inf,
                                        -math.inf]),
                       st.floats(allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(scores=st.lists(_TIE_HEAVY, min_size=1, max_size=60),
       nan_at=st.none() | st.integers(0, 59), data=st.data())
def test_midranks_match_rankdata_bit_for_bit(scores, nan_at, data):
    s = np.asarray(scores)
    if nan_at is not None:
        s[nan_at % len(s)] = np.nan
    ranks = metrics._midranks(s)
    expected = stats.rankdata(s)
    assert ranks.dtype == expected.dtype and ranks.shape == expected.shape
    assert ranks.tobytes() == expected.tobytes()
    labels = np.asarray(data.draw(st.lists(st.integers(0, 1), min_size=len(s),
                                           max_size=len(s))))
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos and n_neg:
        # The rank-sum formula as it read with scipy.stats.rankdata.
        auc = float((expected[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0)
                    / (n_pos * n_neg))
        assert np.array_equal(metrics.auroc(s, labels), auc, equal_nan=True)


def test_midranks_single_score_and_runs():
    assert metrics._midranks(np.array([3.0])).tolist() == [1.0]
    assert metrics._midranks(np.array([2.0, 1.0, 2.0, 2.0, 0.0])).tolist() \
        == [4.0, 2.0, 4.0, 4.0, 1.0]
    assert np.isnan(metrics._midranks(np.array([1.0, np.nan]))).all()
    assert math.isnan(metrics.auroc([0.2, np.nan, 0.4], [0, 1, 1]))


def test_auroc_single_class_error():
    with pytest.raises(UndefinedMetricError):
        metrics.auroc([0.1, 0.2], [1, 1])


def test_auprc_perfect():
    assert metrics.auprc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0


def test_auprc_worked_example():
    # Descending order: 0.9(y=0), 0.8(y=1), 0.3(y=1), 0.2(y=0).
    # Precision at the positive ranks: 1/2 and 2/3; average = 7/12.
    value = metrics.auprc([0.9, 0.8, 0.3, 0.2], [0, 1, 1, 0])
    assert abs(value - 7.0 / 12.0) < 1e-12


def test_auprc_random_scores_baseline_is_prevalence():
    prevalence = 0.1
    vals = []
    for seed in range(20):
        r = np.random.default_rng(seed)
        scores = r.random(100000)
        labels = (r.random(100000) < prevalence).astype(int)
        vals.append(metrics.auprc(scores, labels))
    assert abs(np.mean(vals) - prevalence) < 0.01


def test_auprc_no_positive_error():
    with pytest.raises(UndefinedMetricError):
        metrics.auprc([0.1, 0.9], [0, 0])


def test_confusion_all_positive():
    cm = metrics.confusion([1.0] * 5, [1] * 5)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (5, 0, 0, 0)


def test_confusion_zero_threshold():
    cm = metrics.confusion([0.1, 0.6, 0.4], [0, 1, 1], threshold=0.0)
    assert cm.fn == 0 and cm.tn == 0
    assert cm.tp == 2 and cm.fp == 1


def test_confusion_hand_enumerated():
    scores = [0.9, 0.7, 0.5, 0.4, 0.2, 0.1]
    labels = [1, 0, 1, 1, 0, 0]
    cm = metrics.confusion(scores, labels)  # threshold 0.5, >= is positive
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
    assert cm.n == 6


def test_binomial_mode_is_one():
    assert metrics.binomial_test(50, 100).p_value == 1.0


def test_binomial_extreme_tails():
    result = metrics.binomial_test(10, 10)
    assert abs(result.p_value - 2 * 2 ** -10) < 1e-15


def test_binomial_65_of_100_matches_exact_oracle():
    expected = _exact_binomial_p(65, 100)
    result = metrics.binomial_test(65, 100)
    assert abs(result.p_value - expected) < 1e-12 * expected + 1e-15


def test_binomial_matches_exact_oracle_grid():
    for n in (7, 20, 33):
        for k in range(n + 1):
            expected = _exact_binomial_p(k, n)
            got = metrics.binomial_test(k, n).p_value
            assert abs(got - expected) <= 1e-11


def test_binomial_super_uniform_under_null():
    r = np.random.default_rng(0)
    draws = r.binomial(200, 0.5, size=10000)
    # p-values depend only on k; precompute the 201 possible values.
    table = np.array([metrics.binomial_test(k, 200).p_value
                      for k in range(201)])
    frac = float(np.mean(table[draws] <= 0.05))
    assert frac <= 0.06


def test_binomial_invalid_inputs():
    with pytest.raises(UndefinedMetricError):
        metrics.binomial_test(5, 0)
    with pytest.raises(UndefinedMetricError):
        metrics.binomial_test(11, 10)


def test_pearson_exact_values():
    assert metrics.pearson([1, 2, 3], [2, 4, 6]).statistic == 1.0
    assert metrics.pearson([1, 2, 3], [6, 4, 2]).statistic == -1.0
    result = metrics.pearson([1, 2, 3, 4], [1, 3, 2, 4])
    assert abs(result.statistic - 0.8) < 1e-12


def test_pearson_affine_invariance(rng):
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    base = metrics.pearson(x, y).statistic
    shifted = metrics.pearson(3.0 * x + 5.0, 0.25 * y - 2.0).statistic
    assert abs(base - shifted) < 1e-12


def test_pearson_zero_variance_error():
    with pytest.raises(UndefinedCorrelationError):
        metrics.pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(UndefinedCorrelationError):
        metrics.pearson([1, 2], [1, 2])


@settings(max_examples=300, deadline=None)
@given(xy=st.integers(3, 40).flatmap(lambda n: st.tuples(
    *(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),) * 2)))
@example(xy=([0.0, 0.0, 8.053416686198433e-100],
             [0.0, 0.0, 8.053416686198433e-100]))
def test_pearson_p_matches_scipy_t_sf_exactly(xy):
    x, y = xy
    try:
        result = metrics.pearson(x, y)
    except UndefinedCorrelationError:
        return
    r = result.statistic
    if abs(r) == 1.0:
        assert result.p_value == 0.0
        return
    n = len(x)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    assert result.p_value == float(2.0 * stats.t.sf(abs(t), df=n - 2))


def test_import_leaves_scipy_stats_unloaded():
    # A fresh interpreter: this one already holds scipy.stats (the tests
    # above import it).
    src = str(Path(dp_tails.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, dp_tails.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
