"""Influence-function engine for binary logistic regression.

Entry (train, test) of a matrix is the bilinear form
-g_test^T H^{-1} g_train, i.e. the first-order change of the test loss
per unit upweight of the training point, with H the damped Hessian of the
regularized mean training loss at the model's parameters and g the plain
per-record cross-entropy gradients. The engine checks H positive definite
once, by numpy's Cholesky factorization, and each matrix solves it with
numpy.linalg.solve, so the module loads no scipy. A non-finite Hessian,
matrix or summary statistic is refused with the count of its bad entries.

Sign convention (fixed empirically by the leave-one-out retraining
oracle): removing a training point changes the test loss by approximately
-value/n, so NEGATIVE values are HELPFUL (their removal raises the test
loss) and positive values are harmful. Group summaries and frequency
tables use that orientation throughout; influence_summary, the report that
holds them, states it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import DomainError, NumericError, UnsupportedFamilyError

SIGN_CONVENTION = ("negative = helpful (removal raises test loss), "
                   "positive = harmful")
DEFAULT_DAMPING = 1e-3
DEFAULT_PANEL = 100


def _refuse_non_finite(what, values):
    """Raise NumericError counting the non-finite entries of `values`."""
    bad = np.size(values) - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise NumericError(f"{what} has {bad} non-finite entries of "
                           f"{np.size(values)}")


@dataclass
class InfluenceMatrix:
    values: np.ndarray       # |train| x |test|
    train_ids: np.ndarray
    test_ids: np.ndarray


class InfluenceEngine:
    """The damped Hessian of a fixed (model, train cohort), checked positive
    definite once and shared by every matrix it solves."""

    def __init__(self, params: models.ModelParams, train_cohort, damping=None):
        if params.family != "lr-binary":
            raise UnsupportedFamilyError(
                "influence functions only valid for lr-binary")
        if damping is None:
            damping = DEFAULT_DAMPING if params.l2_lambda == 0.0 else 0.0
        if params.l2_lambda + damping <= 0:
            raise NumericError(
                "need l2_lambda + damping > 0 for an invertible Hessian")
        self.params = params
        self.damping = float(damping)
        # Parameters large enough to overflow the log-odds make the Hessian
        # non-finite; it is refused below, not solved.
        with np.errstate(over="ignore", invalid="ignore"):
            self.hessian = models.lr_hessian(params, train_cohort.features,
                                             damping=damping)
        _refuse_non_finite("Hessian", self.hessian)
        try:
            np.linalg.cholesky(self.hessian)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Hessian factorization failed: {exc}")

    def _grads(self, subset):
        """Per-record cross-entropy gradients, (p - y) [x; 1] for LR."""
        if subset.n == 0:
            raise DomainError("empty subset")
        resid = models.predict(self.params, subset.features) - subset.labels
        return np.column_stack([resid[:, None] * subset.features, resid])

    def matrix(self, train_subset, test_subset) -> InfluenceMatrix:
        G_tr = self._grads(train_subset)
        G_te = self._grads(test_subset)
        # One solve block (p x n_test) shared across all pairs. Features or
        # parameters that overflow the product are refused, not written.
        with np.errstate(over="ignore", invalid="ignore"):
            values = G_tr @ np.linalg.solve(self.hessian, G_te.T)
        np.negative(values, out=values)
        _refuse_non_finite("influence matrix", values)
        return InfluenceMatrix(values=values, train_ids=train_subset.ids,
                               test_ids=test_subset.ids)


def group_influence(matrix: InfluenceMatrix, group_of):
    """Per group of training records, given as one group per matrix row
    (the train cohort's labels or groups): the mean and std over test
    points of the group's influence, the exact sum of its member rows; and
    the most helpful and most harmful group."""
    group_of = np.asarray(group_of)
    if group_of.shape != matrix.values.shape[:1]:
        raise DomainError(f"need one group per matrix row: shape "
                          f"{group_of.shape} for {len(matrix.values)} rows")
    groups = np.unique(group_of).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        per_group = {g: matrix.values[group_of == g].sum(axis=0)
                     for g in groups}
        means = {g: float(v.mean()) for g, v in per_group.items()}
        stds = {g: float(v.std()) for g, v in per_group.items()}
    _refuse_non_finite("group influence", [*means.values(), *stds.values()])
    # Helpful = most negative mean under the LOO-fixed sign convention.
    return {"means": means, "stds": stds,
            "most_helpful_group": min(groups, key=lambda g: (means[g], g)),
            "most_harmful_group": max(groups, key=lambda g: (means[g], -g))}


def top_variance_test_points(matrix: InfluenceMatrix, k=100):
    """Test ids ranked by influence-column variance, ties broken by id."""
    if k > len(matrix.test_ids):
        raise DomainError("k exceeds the number of test points")
    with np.errstate(over="ignore", invalid="ignore"):
        variances = matrix.values.var(axis=0)
    _refuse_non_finite("influence variance", variances)
    order = np.lexsort((matrix.test_ids, -variances))
    return [int(matrix.test_ids[j]) for j in order[:k]]


def influencer_frequency(matrix: InfluenceMatrix):
    """How often each training record is a test point's most helpful one,
    the most negative value of its column with ties to the lowest id:
    `counts` by str train id in id order, and `concentration`, the largest
    count over the number of test points."""
    if matrix.values.size == 0:
        raise DomainError("empty influence matrix")
    id_order = np.argsort(matrix.train_ids, kind="stable")
    picks = matrix.train_ids[id_order][
        matrix.values[id_order].argmin(axis=0)]
    ids, counts = np.unique(picks, return_counts=True)
    # Str keys, so json's sort_keys keeps the id order.
    return {"concentration": int(counts.max()) / matrix.values.shape[1],
            "counts": dict(zip(map(str, ids.tolist()), counts.tolist()))}


def influence_summary(matrix: InfluenceMatrix, train_cohort,
                      panel_size=DEFAULT_PANEL):
    """The influence report of one model, as the grid and `audit-influence`
    write it. Over the panel, the `panel_size` test points of largest
    influence variance: the largest |value|, the group influence of each
    label and of each group of training records (train_cohort holds the
    matrix rows, in order), and how often each training record is a panel
    point's most helpful one."""
    panel_k = min(panel_size, len(matrix.test_ids))
    panel_ids = top_variance_test_points(matrix, k=panel_k)
    panel_cols = [int(np.flatnonzero(matrix.test_ids == tid)[0])
                  for tid in panel_ids]
    panel = InfluenceMatrix(
        values=matrix.values[:, panel_cols],
        train_ids=matrix.train_ids,
        test_ids=np.asarray(panel_ids))
    return {
        "sign_convention": SIGN_CONVENTION,
        "panel_size": panel_k,
        "max_abs_influence": float(np.abs(panel.values).max()),
        "by_label": group_influence(panel, train_cohort.labels),
        "by_group": group_influence(panel, train_cohort.groups),
        "helpful_frequency": influencer_frequency(panel),
    }
