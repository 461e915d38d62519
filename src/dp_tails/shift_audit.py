"""Dataset-shift significance and malignancy via a domain classifier.

A binary classifier is trained to tell training-distribution records from
test-distribution records on a balanced, 70/30 stratified mixture; its
evaluation accuracy is tested against chance with the exact binomial test.
Only when the shift is significant is malignancy diagnosed: the task
model's accuracy on the test records the domain classifier most
confidently places in the test distribution (lower = more malignant).
RobustnessAudit runs both per pivot year and correlates malignancy with
the task model's AUROC gap across years; the grid and `audit-shift` both
report through it.
"""

from __future__ import annotations

import numpy as np

from . import metrics, models
from .cohort import Cohort, CohortSplit, stable_seed
from .errors import DPTailsError, InsufficientDataError

ALPHA = 0.05


def domain_classifier_significance(train_cohort: Cohort, test_cohort: Cohort,
                                   seed=0, year=0):
    """(row, domain): the year's shift-report row, its malignancy_accuracy
    None, and the domain classifier's ModelParams (class 1 = test)."""
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
    eval_scores = models.predict(domain, X[eval_rows])[:, 1]
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
    scores = models.predict(domain, test_cohort.features)[:, 1]
    k = min(top_k, test_cohort.n)
    order = np.lexsort((test_cohort.ids, -scores))
    chosen = order[:k]
    probs = models.predict(task_params, test_cohort.features[chosen])[:, 1]
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


class RobustnessAudit:
    """The robustness report of one task model per pivot year.

    add() runs the domain-classifier test on a pivot's cumulative split,
    seeded with stable_seed(seed, "shift", pivot), and diagnoses
    malignancy with the pivot's task model when the shift is significant.
    It also records the model's AUROC gap: the AUROC on the second half of
    split.train minus the AUROC on split.test. The model was trained on all
    of split.train, so the gap compares records it saw with the pivot year,
    not held-out training years with it. report() gives the per-year shift
    reports and, over at least three years with both values, the Pearson
    correlation of gap with malignancy.
    """

    def __init__(self, seed):
        self.seed = seed
        self._shifts = []

    def add(self, pivot, split: CohortSplit, task_params: models.ModelParams,
            test_scores=None):
        """Audit one pivot; test_scores, when given, are the task model's
        P(y = 1) on split.test, which it then does not score again."""
        row, domain = domain_classifier_significance(
            split.train, split.test,
            seed=stable_seed(self.seed, "shift", pivot), year=pivot)
        half = split.train.n // 2
        in_scores = models.predict(task_params,
                                   split.train.features[half:])[:, 1]
        out_scores = (models.predict(task_params, split.test.features)[:, 1]
                      if test_scores is None else test_scores)
        try:
            gap = (metrics.auroc(in_scores, split.train.labels[half:])
                   - metrics.auroc(out_scores, split.test.labels))
        except DPTailsError:
            gap = None
        if row["significant"]:
            row["malignancy_accuracy"], k = shift_malignancy(
                split.test, domain, task_params)
            row["notes"].append(
                f"malignancy over top {k} most-confident test records")
        self._shifts.append((row, gap))

    def report(self):
        pairs = [(gap, row["malignancy_accuracy"])
                 for row, gap in self._shifts
                 if gap is not None and row["malignancy_accuracy"] is not None]
        correlation = None
        if len(pairs) >= 3:
            gaps, malignancies = zip(*pairs)
            try:
                result = robustness_correlation(list(gaps), list(malignancies))
                correlation = {"r": result.statistic,
                               "p_value": result.p_value,
                               "method": result.method}
            except DPTailsError as exc:
                correlation = {"error": str(exc)}
        return {"per_year": [row for row, _ in self._shifts],
                "gap_malignancy_correlation": correlation}
