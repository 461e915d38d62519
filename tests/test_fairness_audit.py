import numpy as np
import pytest

from dp_tails import cohort, dp_optim, fairness_audit, harness, models
from dp_tails.errors import DomainError

GAPS = ("auroc_gap", "parity_gap", "recall_gap", "specificity_gap")


def _from_confusions(spec):
    """Build (scores, labels, groups) realizing per-group confusion counts.

    spec: {group: (tp, fp, fn, tn)}; predicted positive = score 0.9,
    predicted negative = score 0.1, threshold 0.5.
    """
    scores, labels, groups = [], [], []
    for g, (tp, fp, fn, tn) in spec.items():
        for _ in range(tp):
            scores.append(0.9), labels.append(1), groups.append(g)
        for _ in range(fp):
            scores.append(0.9), labels.append(0), groups.append(g)
        for _ in range(fn):
            scores.append(0.1), labels.append(1), groups.append(g)
        for _ in range(tn):
            scores.append(0.1), labels.append(0), groups.append(g)
    return np.array(scores), np.array(labels), np.array(groups)


def test_identical_groups_zero_gaps():
    scores, labels, groups = _from_confusions({0: (3, 2, 1, 4),
                                               1: (3, 2, 1, 4)})
    report = fairness_audit.fairness_gaps(scores, labels, groups, 0, 1)
    assert all(report[key] == 0.0 for key in GAPS)


def test_group_against_itself_refused():
    # A group compared with itself would read as "no disparity" on every
    # gap; it is refused instead.
    scores, labels, groups = _from_confusions({0: (3, 2, 1, 4),
                                               1: (3, 2, 1, 4)})
    for g in (0, 1):
        with pytest.raises(DomainError, match=f"group {g} compared with "
                                              "itself"):
            fairness_audit.fairness_gaps(scores, labels, groups, g, g)


def test_worked_confusion_example():
    scores, labels, groups = _from_confusions({1: (4, 1, 1, 4),
                                               2: (2, 2, 2, 4)})
    report = fairness_audit.fairness_gaps(scores, labels, groups, 1, 2)
    # parity: 5/10 - 4/10; recall: 4/5 - 2/4; specificity: 4/5 - 4/6.
    assert abs(report["parity_gap"] - 0.1) <= 1e-12
    assert abs(report["recall_gap"] - 0.3) <= 1e-12
    assert abs(report["specificity_gap"] - (4 / 5 - 4 / 6)) <= 1e-12
    assert report["per_group_confusion"] == {
        1: {"tp": 4, "fp": 1, "fn": 1, "tn": 4},
        2: {"tp": 2, "fp": 2, "fn": 2, "tn": 4}}


def test_no_positives_in_one_group():
    scores, labels, groups = _from_confusions({0: (3, 2, 1, 4),
                                               1: (0, 2, 0, 6)})
    report = fairness_audit.fairness_gaps(scores, labels, groups, 0, 1)
    assert report["recall_gap"] is None
    assert "recall_gap" in report["undefined_reasons"]
    assert report["parity_gap"] is not None
    assert report["auroc_gap"] is None  # AUROC needs both classes in a group


def test_antisymmetry(rng):
    scores = rng.random(200)
    labels = rng.integers(2, size=200)
    groups = rng.integers(2, size=200)
    labels[:4] = [0, 1, 0, 1]
    groups[:4] = [0, 0, 1, 1]
    fwd = fairness_audit.fairness_gaps(scores, labels, groups, 0, 1)
    rev = fairness_audit.fairness_gaps(scores, labels, groups, 1, 0)
    for key in GAPS:
        if fwd[key] is None:
            assert rev[key] is None
        else:
            assert rev[key] == -fwd[key]


def test_parity_decomposition_from_emitted_confusions(rng):
    scores = rng.random(300)
    labels = rng.integers(2, size=300)
    groups = rng.integers(2, size=300)
    labels[:4] = [0, 1, 0, 1]
    groups[:4] = [0, 0, 1, 1]
    report = fairness_audit.fairness_gaps(scores, labels, groups, 0, 1)
    cm1, cm2 = (report["per_group_confusion"][g] for g in (0, 1))
    recomputed = ((cm1["tp"] + cm1["fp"]) / sum(cm1.values())
                  - (cm2["tp"] + cm2["fp"]) / sum(cm2.values()))
    assert abs(report["parity_gap"] - recomputed) <= 1e-12


def test_empty_group_error(rng):
    scores = rng.random(20)
    labels = rng.integers(2, size=20)
    groups = np.zeros(20, dtype=int)
    with pytest.raises(DomainError, match="group 1"):
        fairness_audit.fairness_gaps(scores, labels, groups, 0, 1)


def test_threshold_is_respected():
    scores = np.array([0.4, 0.4, 0.6, 0.6])
    labels = np.array([1, 0, 1, 0])
    groups = np.array([0, 0, 1, 1])
    report = fairness_audit.fairness_gaps(scores, labels, groups, 0, 1,
                                          threshold=0.3)
    # Everything predicted positive at threshold 0.3.
    assert report["parity_gap"] == 0.0
    assert report["per_group_confusion"][0] == {"tp": 1, "fp": 1, "tn": 0,
                                                "fn": 0}


def test_yearly_variance_smaller_under_high_privacy():
    # Qualitative reproduction: across-year std of every gap under high
    # privacy <= that under no privacy in >= 4/5 seeds.
    wins = {"parity_gap": 0, "recall_gap": 0, "specificity_gap": 0,
            "auroc_gap": 0}
    for seed in range(5):
        config = cohort.CohortConfig(
            n=9000, d=50, positive_prevalence=0.1, years=(2001, 2006),
            yearly_drift=0.4, class_separation=1.0,
            group_prevalences=(0.7, 0.3), group_label_association=0.7,
            seed=seed)
        base = cohort.generate_cohort(config)
        stds = {}
        for level, epochs, lr in (("none", 30, 0.5), ("high", 20, 0.2)):
            gaps = {key: [] for key in wins}
            for pivot in range(2002, 2007):
                split = cohort.split_yearly(base, pivot)
                train_config = harness.level(level).training(
                    epochs=epochs, learning_rate=lr,
                    seed=seed * 100 + pivot)
                trained = dp_optim.train(
                    {"family": "lr-binary", "l2_lambda": 0.1}, split,
                    train_config)
                scores = models.predict(trained.params,
                                        split.test.features)
                report = fairness_audit.fairness_gaps(
                    scores, split.test.labels, split.test.groups, 0, 1)
                for key in GAPS:
                    if report[key] is not None:
                        gaps[key].append(report[key])
            stds[level] = {key: np.std(v) if v else None
                           for key, v in gaps.items()}
        for key in wins:
            lo, hi = stds["high"][key], stds["none"][key]
            if lo is not None and hi is not None and lo <= hi:
                wins[key] += 1
    for key, count in wins.items():
        assert count >= 4, f"{key}: high-privacy std smaller in {count}/5"


def test_non_finite_scores_refused_with_their_count():
    # NaN scores made a NaN AUROC and AUROC gap, which json writes as the
    # non-standard NaN.
    scores = [0.9, np.nan, 0.2, np.inf, 0.4, -np.inf]
    with pytest.raises(DomainError, match="^3 of 6 scores are not finite$"):
        fairness_audit.fairness_gaps(scores, [1, 0, 1, 0, 1, 0],
                                     [0, 0, 0, 1, 1, 1], g1=0, g2=1)
