"""Influence-function engine for binary logistic regression.

A pair value is the bilinear form -g_test^T H^{-1} g_train, i.e. the
first-order change of the test loss per unit upweight of the training
point, with H the damped Hessian of the regularized mean training loss at
the model's parameters and g the plain per-record cross-entropy gradients.

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
from scipy.linalg import cho_factor, cho_solve

from . import models
from .errors import (AssignmentError, ConditioningError, DomainError,
                     UnsupportedFamilyError)

SIGN_CONVENTION = ("negative = helpful (removal raises test loss), "
                   "positive = harmful")
DEFAULT_DAMPING = 1e-3
DEFAULT_PANEL = 100


@dataclass
class InfluenceMatrix:
    values: np.ndarray       # |train| x |test|
    train_ids: np.ndarray
    test_ids: np.ndarray


class InfluenceEngine:
    """Shared Hessian factorization over a fixed (model, train cohort)."""

    def __init__(self, params: models.ModelParams, train_cohort, damping=None):
        if params.family != "lr-binary":
            raise UnsupportedFamilyError(
                "influence functions only valid for lr-binary")
        if damping is None:
            damping = DEFAULT_DAMPING if params.l2_lambda == 0.0 else 0.0
        if params.l2_lambda + damping <= 0:
            raise ConditioningError(
                "need l2_lambda + damping > 0 for an invertible Hessian")
        self.params = params
        self.damping = float(damping)
        self.hessian = models.lr_hessian(params, train_cohort.features,
                                         damping=damping)
        try:
            self._cho = cho_factor(self.hessian)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(f"Hessian factorization failed: {exc}")

    def _grads(self, features, labels):
        """Per-record cross-entropy gradients, (p - y) [x; 1] for LR."""
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if X.shape[0] == 0:
            raise DomainError("empty subset")
        p = models.predict(self.params, X)[:, 1]
        y = np.asarray(labels, dtype=np.int64).ravel()
        if y.min() < 0 or y.max() > 1:
            raise models.label_error(self.params.family)
        resid = p - y
        return np.column_stack([resid[:, None] * X, resid])

    def pair(self, z_train, z_test):
        """-g_test^T H^{-1} g_train for single records (x, y)."""
        x_tr, y_tr = z_train
        x_te, y_te = z_test
        g_tr = self._grads(np.atleast_2d(x_tr), [y_tr])[0]
        g_te = self._grads(np.atleast_2d(x_te), [y_te])[0]
        return float(-g_te @ cho_solve(self._cho, g_tr))

    def matrix(self, train_subset, test_subset) -> InfluenceMatrix:
        G_tr = self._grads(train_subset.features, train_subset.labels)
        G_te = self._grads(test_subset.features, test_subset.labels)
        # One solve block shared across all pairs.
        solved = cho_solve(self._cho, G_te.T)       # p x n_test
        values = -(G_tr @ solved)
        return InfluenceMatrix(values=values,
                               train_ids=train_subset.ids.copy(),
                               test_ids=test_subset.ids.copy())


def group_influence(matrix: InfluenceMatrix, assignment):
    """Per group of training records, the mean and std over test points of
    the group's influence, the exact sum of its member rows; and the most
    helpful and most harmful group."""
    ids = matrix.train_ids.tolist()
    missing = [int(i) for i in ids if i not in assignment]
    if missing:
        raise AssignmentError(f"train ids without group assignment: {missing[:5]}")
    group_of = [assignment[i] for i in ids]
    groups = sorted(set(group_of))
    group_of = np.array(group_of)
    per_group = {g: matrix.values[group_of == g].sum(axis=0) for g in groups}
    means = {g: float(v.mean()) for g, v in per_group.items()}
    stds = {g: float(v.std()) for g, v in per_group.items()}
    # Helpful = most negative mean under the LOO-fixed sign convention.
    return {"means": means, "stds": stds,
            "most_helpful_group": min(groups, key=lambda g: (means[g], g)),
            "most_harmful_group": max(groups, key=lambda g: (means[g], -g))}


def top_variance_test_points(matrix: InfluenceMatrix, k=100):
    """Test ids ranked by influence-column variance, ties broken by id."""
    if k > len(matrix.test_ids):
        raise DomainError("k exceeds the number of test points")
    variances = matrix.values.var(axis=0)
    order = np.lexsort((matrix.test_ids, -variances))
    return [int(matrix.test_ids[j]) for j in order[:k]]


def influencer_frequency(matrix: InfluenceMatrix, direction):
    """How often each training record is a test point's most helpful (or
    most harmful) one: `counts` by str train id in id order, and
    `concentration`, the largest count over the number of test points."""
    if matrix.values.size == 0:
        raise DomainError("empty influence matrix")
    if direction not in ("helpful", "harmful"):
        raise DomainError("direction must be 'helpful' or 'harmful'")
    # Helpful = per-column argmin (most negative), ties to the lowest id.
    ids = matrix.train_ids
    id_order = np.argsort(ids, kind="stable")
    vals = matrix.values[id_order]
    sorted_ids = ids[id_order]
    pick = vals.argmin(axis=0) if direction == "helpful" else vals.argmax(axis=0)
    counts = {}
    for col in range(vals.shape[1]):
        tid = int(sorted_ids[pick[col]])
        counts[tid] = counts.get(tid, 0) + 1
    # Str keys, so json's sort_keys keeps the id order.
    return {"concentration": max(counts.values()) / vals.shape[1],
            "counts": {str(k): v for k, v in sorted(counts.items())}}


def influence_summary(matrix: InfluenceMatrix, train_cohort,
                      panel_size=DEFAULT_PANEL):
    """The influence report of one model, as the grid and `audit-influence`
    write it. Over the panel, the `panel_size` test points of largest
    influence variance: the largest |value|, the group influence of each
    label and of each group of training records (train_cohort gives them
    by id), and how often each training record is a panel point's most
    helpful one."""
    panel_k = min(panel_size, len(matrix.test_ids))
    panel_ids = top_variance_test_points(matrix, k=panel_k)
    panel_cols = [int(np.flatnonzero(matrix.test_ids == tid)[0])
                  for tid in panel_ids]
    panel = InfluenceMatrix(
        values=matrix.values[:, panel_cols],
        train_ids=matrix.train_ids,
        test_ids=np.asarray(panel_ids))
    ids = train_cohort.ids.tolist()
    by_label = group_influence(
        panel, dict(zip(ids, train_cohort.labels.tolist())))
    by_group = group_influence(
        panel, dict(zip(ids, train_cohort.groups.tolist())))
    return {
        "sign_convention": SIGN_CONVENTION,
        "panel_size": panel_k,
        "max_abs_influence": float(np.abs(panel.values).max()),
        "by_label": by_label,
        "by_group": by_group,
        "helpful_frequency": influencer_frequency(panel, "helpful"),
    }
