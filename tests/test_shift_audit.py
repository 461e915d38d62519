import numpy as np
import pytest

from dp_tails import cohort, metrics, models, shift_audit
from dp_tails.errors import InsufficientDataError, UndefinedCorrelationError

from conftest import make_cohort


def _shifted_copy(c, direction, magnitude):
    out = c.subset(np.arange(c.n))
    out.features[:] = out.features + magnitude * np.asarray(direction)
    return out


def test_no_shift_calibration():
    false_hits = 0
    for trial in range(100):
        a = make_cohort(n=400, d=5, seed=2 * trial)
        b = make_cohort(n=400, d=5, seed=2 * trial + 1)
        row, _ = shift_audit.domain_classifier_significance(a, b, seed=trial)
        false_hits += row["significant"]
    assert false_hits <= 10


def test_power_two_unit_shift():
    for trial in range(20):
        a = make_cohort(n=1000, d=5, seed=trial)
        b = make_cohort(n=1000, d=5, seed=1000 + trial)
        direction = np.zeros(5)
        direction[0] = 1.0
        b = _shifted_copy(b, direction, 2.0)
        row, _ = shift_audit.domain_classifier_significance(a, b, seed=trial)
        assert row["significant"]


def test_large_shift_strong_detection():
    a = make_cohort(n=1000, d=5, seed=0)
    b = _shifted_copy(make_cohort(n=1000, d=5, seed=1),
                      np.ones(5) / np.sqrt(5), 5.0)
    row, _ = shift_audit.domain_classifier_significance(a, b, seed=0)
    assert row["domain_accuracy"] >= 0.95
    assert row["p_value"] < 1e-6
    assert row["significant"]


def test_insufficient_data_error():
    a = make_cohort(n=100, d=3, seed=0)
    b = a.subset(np.arange(5))
    with pytest.raises(InsufficientDataError):
        shift_audit.domain_classifier_significance(a, b)


def _task_setup(seed=0, d=6):
    config = cohort.CohortConfig(n=4000, d=d, positive_prevalence=0.3,
                                 years=(2001, 2002), class_separation=2.0,
                                 seed=seed)
    c = cohort.generate_cohort(config)
    split = cohort.split_yearly(c, 2002)
    params = models.fit_lr_newton(split.train.features, split.train.labels,
                                  l2_lambda=0.01)
    means = cohort.class_year_means(config)
    sep = means[(1, 2001)] - means[(0, 2001)]
    sep /= np.linalg.norm(sep)
    r = np.random.default_rng(seed + 77)
    ortho = r.normal(size=d)
    ortho -= (ortho @ sep) * sep
    ortho /= np.linalg.norm(ortho)
    return split, params, sep, ortho


def _baseline_accuracy(params, test):
    probs = models.predict(params, test.features)
    return float(np.mean((probs >= 0.5) == test.labels))


def test_malignancy_identity_shift_matches_overall_accuracy():
    split, params, _, _ = _task_setup()
    baseline = _baseline_accuracy(params, split.test)
    # A zero-theta domain model scores every record 0.5, so the tie-break
    # picks the k lowest ids: an exchangeable draw of the test year.
    domain = models.init_params("lr-binary", split.test.d)
    acc, k = shift_audit.shift_malignancy(split.test, domain, params)
    lowest = split.test.subset(np.argsort(split.test.ids)[:100])
    assert k == 100
    assert acc == _baseline_accuracy(params, lowest)
    assert abs(acc - baseline) <= 0.1


def test_robustness_audit_diagnoses_malignancy_only_after_significance(
        monkeypatch):
    split, params, _, ortho = _task_setup()
    shifted = cohort.CohortSplit(train=split.train, pivot_year=2002,
                                 test=_shifted_copy(split.test, ortho, 2.0))
    calls = []
    malignancy = shift_audit.shift_malignancy
    monkeypatch.setattr(shift_audit, "shift_malignancy",
                        lambda *args: calls.append(args) or malignancy(*args))
    rows = [shift_audit.robustness_row(
        0, 2002, s, params, models.predict(params, s.test.features))
        for s in (split, shifted)]
    calm, moved = shift_audit.robustness_report(rows)["per_year"]
    split_note = "balanced mixture, stratified 70/30 fit/eval split"

    assert not calm["significant"]
    assert calm["malignancy_accuracy"] is None
    assert calm["notes"] == [split_note]

    assert moved["significant"] and len(calls) == 1
    _, domain = shift_audit.domain_classifier_significance(
        shifted.train, shifted.test,
        seed=cohort.stable_seed(0, "shift", 2002), year=2002)
    acc, k = malignancy(shifted.test, domain, params)
    assert moved["malignancy_accuracy"] == acc
    assert moved["notes"] == [
        split_note, f"malignancy over top {k} most-confident test records"]


def test_malignancy_label_flipping_shift_is_malignant():
    # Detectable covariate shift orthogonal to the class direction plus a
    # label flip: the domain classifier fires on the covariate shift and
    # the task model is wrong on the flipped labels.
    split, params, _, ortho = _task_setup()
    shifted = _shifted_copy(split.test, ortho, 2.0)
    shifted.labels[:] = 1 - shifted.labels
    row, domain = shift_audit.domain_classifier_significance(
        split.train, shifted, seed=0, year=2002)
    assert row["significant"]
    acc, _ = shift_audit.shift_malignancy(shifted, domain, params)
    assert acc < 0.5


def test_malignancy_benign_orthogonal_shift():
    split, params, _, ortho = _task_setup()
    baseline = _baseline_accuracy(params, split.test)
    shifted = _shifted_copy(split.test, ortho, 2.0)
    row, domain = shift_audit.domain_classifier_significance(
        split.train, shifted, seed=0, year=2002)
    assert row["significant"]
    acc, _ = shift_audit.shift_malignancy(shifted, domain, params)
    assert abs(acc - baseline) <= 0.1


def test_malignancy_ordering_with_disruption():
    # Flip a growing fraction of labels behind the same detectable
    # covariate shift: malignancy accuracy decreases weakly.
    split, params, _, ortho = _task_setup()
    accs = []
    for flip_fraction in (0.0, 0.5, 1.0):
        shifted = _shifted_copy(split.test, ortho, 2.0)
        r = np.random.default_rng(9)
        flip = r.random(shifted.n) < flip_fraction
        shifted.labels[flip] = 1 - shifted.labels[flip]
        row, domain = shift_audit.domain_classifier_significance(
            split.train, shifted, seed=0, year=2002)
        assert row["significant"]
        accs.append(shift_audit.shift_malignancy(shifted, domain, params)[0])
    assert accs[0] >= accs[1] >= accs[2]


def test_robustness_correlation_proportional():
    malignancies = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
    gaps = 0.4 * (1.0 - malignancies)
    result = shift_audit.robustness_correlation(gaps, 1.0 - malignancies)
    assert result.statistic == 1.0
    assert "robustness" in result.method


def test_robustness_correlation_constant_gaps_error():
    with pytest.raises(UndefinedCorrelationError):
        shift_audit.robustness_correlation([0.1, 0.1, 0.1], [0.9, 0.5, 0.2])


def test_robustness_correlation_matches_pearson_oracle(rng):
    gaps = rng.random(11)
    malignancies = rng.random(11)
    result = shift_audit.robustness_correlation(gaps, malignancies)
    oracle = metrics.pearson(gaps, malignancies)
    assert result.statistic == oracle.statistic
    assert result.p_value == oracle.p_value

