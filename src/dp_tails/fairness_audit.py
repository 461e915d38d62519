"""Group-fairness gaps between a reference group and a comparison group.

Gaps are always group-1 quantity minus group-2 quantity, so positive
values indicate a bias towards group 1:
  parity gap      (TP1+FP1)/N1 - (TP2+FP2)/N2
  recall gap      TP1/(TP1+FN1) - TP2/(TP2+FN2)
  specificity gap TN1/(TN1+FP1) - TN2/(TN2+FP2)
  auroc gap       AUROC1 - AUROC2
A gap whose denominator is zero in either group is reported as undefined
with a reason, never as 0. Non-finite scores, and a group compared with
itself, are refused.
"""

from __future__ import annotations

import numpy as np

from . import metrics
from .errors import DomainError, UndefinedMetricError


def _rates(cm: metrics.ConfusionMatrix):
    out = {}
    out["parity"] = (cm.tp + cm.fp) / cm.n if cm.n > 0 else None
    out["recall"] = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else None
    out["specificity"] = cm.tn / (cm.tn + cm.fp) if (cm.tn + cm.fp) > 0 else None
    return out


def fairness_gaps(scores, labels, groups, g1, g2, threshold=0.5):
    """The fairness report row of groups g1 and g2: the four gaps, each
    group's confusion counts and AUROC (keyed by int group id), and why any
    gap or AUROC is undefined. A group compared with itself is refused, as
    its gaps would all read 0."""
    if g1 == g2:
        raise DomainError(f"group {g1} compared with itself")
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(labels).ravel().astype(np.int64)
    g = np.asarray(groups).ravel().astype(np.int64)
    bad = int(np.count_nonzero(~np.isfinite(s)))
    if bad:
        raise DomainError(f"{bad} of {s.size} scores are not finite")

    masks = {g1: g == g1, g2: g == g2}
    for gid, mask in masks.items():
        if not mask.any():
            raise DomainError(f"group {gid} is empty")

    cms, aurocs, rates = {}, {}, {}
    reasons = {}
    for gid, mask in masks.items():
        cms[gid] = metrics.confusion(s[mask], y[mask], threshold)
        rates[gid] = _rates(cms[gid])
        try:
            aurocs[gid] = metrics.auroc(s[mask], y[mask])
        except UndefinedMetricError as exc:
            aurocs[gid] = None
            reasons[f"auroc_group_{gid}"] = str(exc)

    def gap(name):
        a, b = rates[g1][name], rates[g2][name]
        if a is None or b is None:
            side = g1 if a is None else g2
            reasons[f"{name}_gap"] = f"zero denominator in group {side}"
            return None
        return a - b

    auroc_gap = None
    if aurocs[g1] is not None and aurocs[g2] is not None:
        auroc_gap = aurocs[g1] - aurocs[g2]
    else:
        reasons.setdefault("auroc_gap", "AUROC undefined in one group")

    return {
        "group_1": int(g1), "group_2": int(g2), "threshold": float(threshold),
        "auroc_gap": auroc_gap,
        "parity_gap": gap("parity"),
        "recall_gap": gap("recall"),
        "specificity_gap": gap("specificity"),
        "per_group_confusion": {
            gid: {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn}
            for gid, c in cms.items()},
        "per_group_auroc": aurocs,
        "undefined_reasons": reasons,
        "sign_convention": "positive values favor group_1",
    }
