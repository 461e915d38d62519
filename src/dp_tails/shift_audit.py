"""Dataset-shift significance and malignancy via a domain classifier.

A binary classifier is trained to tell training-distribution records from
test-distribution records on a balanced, 70/30 stratified mixture; its
evaluation accuracy is tested against chance with the exact binomial test.
Only when the shift is significant is malignancy diagnosed: the task
model's accuracy on the test records the domain classifier most
confidently places in the test distribution (lower = more malignant).
robustness_row runs both on one pivot year and robustness_report
correlates malignancy with the task model's AUROC gap across years; the
grid and `audit-shift` both report through them.
"""

from __future__ import annotations

import numpy as np

from . import metrics, models
from .cohort import Cohort, CohortSplit, stable_seed
from .errors import DomainError, DPTailsError, InsufficientDataError

ALPHA = 0.05


def domain_classifier_significance(train_cohort: Cohort, test_cohort: Cohort,
                                   seed=0, year=0):
    """(row, domain): the year's shift-report row, its malignancy_accuracy
    None, and the domain classifier's ModelParams (class 1 = test). The
    seed and year seed its draws, so both must be >= 0."""
    if seed < 0 or year < 0:
        raise DomainError(f"seed and year must be >= 0, got {seed}, {year}")
    if train_cohort.n < 10 or test_cohort.n < 10:
        raise InsufficientDataError(
            "need at least 10 records on each side of the shift test")
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(year), 4]))

    m = min(train_cohort.n, test_cohort.n)
    side_idx = []
    for cohort in (train_cohort, test_cohort):
        idx = np.arange(cohort.n)
        if cohort.n > m:
            idx = np.sort(rng.choice(cohort.n, size=m, replace=False))
        side_idx.append(idx)

    X = np.vstack([train_cohort.features[side_idx[0]],
                   test_cohort.features[side_idx[1]]])
    origin = np.concatenate([np.zeros(m, dtype=int), np.ones(m, dtype=int)])

    # Stratified 70/30 fit/eval split of the balanced mixture.
    fit_rows, eval_rows = [], []
    for label in (0, 1):
        rows = np.flatnonzero(origin == label)
        rows = rng.permutation(rows)
        n_fit = int(round(0.7 * len(rows)))
        fit_rows.append(rows[:n_fit])
        eval_rows.append(rows[n_fit:])
    fit_rows = np.concatenate(fit_rows)
    eval_rows = np.concatenate(eval_rows)

    domain = models.fit_lr_newton(X[fit_rows], origin[fit_rows],
                                  l2_lambda=1e-2)
    eval_scores = models.predict(domain, X[eval_rows])
    correct = int(np.sum((eval_scores >= 0.5).astype(int) == origin[eval_rows]))
    n_eval = len(eval_rows)
    result = metrics.binomial_test(correct, n_eval, 0.5)
    row = {
        "year": int(year),
        "domain_accuracy": correct / n_eval,
        "n_eval": n_eval,
        "p_value": result.p_value,
        "significant": result.p_value < ALPHA,
        "malignancy_accuracy": None,
        "notes": ["balanced mixture, stratified 70/30 fit/eval split"],
    }
    return row, domain


def shift_malignancy(test_cohort: Cohort, domain: models.ModelParams,
                     task_params: models.ModelParams, top_k=100):
    """(accuracy, k): the task model's accuracy on the k = min(top_k, n)
    test records the domain classifier most confidently places in the test
    distribution, ties broken by id."""
    scores = models.predict(domain, test_cohort.features)
    k = min(top_k, test_cohort.n)
    order = np.lexsort((test_cohort.ids, -scores))
    chosen = order[:k]
    probs = models.predict(task_params, test_cohort.features[chosen])
    preds = (probs >= 0.5).astype(int)
    return float(np.mean(preds == test_cohort.labels[chosen])), k


def robustness_correlation(generalization_gaps, malignancies) -> metrics.TestResult:
    """Pearson correlation between yearly generalization gaps and
    malignancy accuracies; positive correlation with (1 - malignancy)
    indicates a lack of robustness."""
    result = metrics.pearson(generalization_gaps, malignancies)
    return metrics.TestResult(
        statistic=result.statistic, p_value=result.p_value,
        method=result.method + "; positive gap-vs-(1-malignancy) correlation "
                               "means a lack of robustness")


def robustness_row(seed, pivot, split: CohortSplit,
                   task_params: models.ModelParams, test_scores):
    """(row, gap): a pivot's shift-report row and the task model's AUROC
    gap, given test_scores, the model's P(y = 1) on split.test.

    The domain-classifier test runs on the pivot's cumulative split, seeded
    with stable_seed(seed, "shift", pivot); malignancy is diagnosed with
    the task model only when the shift is significant. The gap is the AUROC
    on the second half of split.train minus the AUROC on split.test, or
    None where either is undefined. The model was trained on all of
    split.train, so the gap compares records it saw with the pivot year,
    not held-out training years with it.
    """
    row, domain = domain_classifier_significance(
        split.train, split.test, seed=stable_seed(seed, "shift", pivot),
        year=pivot)
    half = split.train.n // 2
    in_scores = models.predict(task_params, split.train.features[half:])
    try:
        gap = (metrics.auroc(in_scores, split.train.labels[half:])
               - metrics.auroc(test_scores, split.test.labels))
    except DPTailsError:
        gap = None
    if row["significant"]:
        row["malignancy_accuracy"], k = shift_malignancy(
            split.test, domain, task_params)
        row["notes"].append(
            f"malignancy over top {k} most-confident test records")
    return row, gap


def robustness_report(rows):
    """The robustness report of robustness_row's (row, gap) pairs, one per
    pivot year: the per-year rows and, over at least three years with both
    a gap and a malignancy, the Pearson correlation of gap with
    malignancy."""
    pairs = [(gap, row["malignancy_accuracy"]) for row, gap in rows
             if gap is not None and row["malignancy_accuracy"] is not None]
    correlation = None
    if len(pairs) >= 3:
        try:
            result = robustness_correlation(*zip(*pairs))
            correlation = {"r": result.statistic, "p_value": result.p_value,
                           "method": result.method}
        except DPTailsError as exc:
            correlation = {"error": str(exc)}
    return {"per_year": [row for row, _ in rows],
            "gap_malignancy_correlation": correlation}
