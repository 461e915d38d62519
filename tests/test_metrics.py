from fractions import Fraction
from math import comb

import numpy as np
import pytest

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
