"""Acceptance suite: one test per acceptance criterion.

Each test prints a single "CRITERION k: PASS/FAIL" line (visible with
pytest -s or in the captured output of failures) and then asserts, so a
red test always corresponds to a FAIL line. Statistical criteria run on
fixed seeds and are therefore deterministic.
"""

import dataclasses
import json
import math
import os
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
from scipy import stats

from dp_tails import (accountant, cohort, dp_optim, fairness_audit, harness,
                      influence, metrics, models,
                      objective_perturbation as objpert, shift_audit)

import test_influence
import test_shift_audit
from conftest import make_cohort, raw_cohort
from oracles.trainer_parent import clip_gradient


def _report(number, ok, detail=""):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_clipping_bound():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=(10_000, 50)) * rng.lognormal(0, 2, (10_000, 1))
    start = time.perf_counter()
    ok = True
    for clip_norm in (0.1, 1.0, 5.0):
        for g in grads:
            clipped = clip_gradient(g, clip_norm)
            norm = np.linalg.norm(clipped)
            if norm > clip_norm + 1e-12:
                ok = False
            # Direction preserved: clipped is a nonnegative multiple of g.
            gn = np.linalg.norm(g)
            if abs(float(g @ clipped) - gn * norm) > 1e-9 * gn * max(norm, 1):
                ok = False
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1.0, f"runtime {elapsed:.2f}s")


def test_criterion_2_accountant_soundness():
    start = time.perf_counter()
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "rdp_goldens.json")) as fh:
        goldens = json.load(fh)
    grid = goldens["grid"]
    eps = {}
    grid_ok = True
    for row in grid:
        spend, _ = accountant.spend_for_training(
            q=row["q"], sigma=row["sigma"], steps=row["steps"],
            delta=row["delta"])
        eps[(row["q"], row["sigma"], row["steps"])] = spend.epsilon
        if abs(spend.epsilon - row["epsilon"]) > 0.01 * row["epsilon"]:
            grid_ok = False
    qs, sigmas, steps = (1e-3, 1e-2, 0.1), (0.5, 1, 2, 4), (100, 1000, 10000)
    mono_ok = all(eps[(q, s, steps[i])] < eps[(q, s, steps[i + 1])]
                  for q in qs for s in sigmas for i in range(2))
    mono_ok &= all(eps[(q, sigmas[i], t)] > eps[(q, sigmas[i + 1], t)]
                   for q in qs for t in steps for i in range(3))
    # High-privacy operating point (q = 64/21877, sigma = 1, delta = 1e-5,
    # 5-20 epochs): the reference epsilons are written by the mpmath oracle,
    # tests/oracles/rdp_oracle.py, into the goldens file. The paper's
    # epsilon = 3.54 is not a reference: the cohort size, batch and epochs
    # behind it are not recorded, and at these parameters the oracle itself
    # gives 1.32-1.82 (see README).
    op = goldens["operating_point"]
    op_err = max(
        abs(accountant.spend_for_training(
            q=op["q"], sigma=op["sigma"], steps=t,
            delta=op["delta"])[0].epsilon - ref) / ref
        for t, ref in zip(op["steps"], op["epsilon"], strict=True))
    # Published point: the documented example of TensorFlow Privacy's
    # compute_dp_sgd_privacy (N = 60000, batch 256, noise multiplier 1.12,
    # 60 epochs -> 14063 steps, delta = 1e-5) reports epsilon = 2.92.
    published = accountant.spend_for_training(
        q=256 / 60000, sigma=1.12, steps=math.ceil(60 * 60000 / 256),
        delta=1e-5)[0].epsilon
    published_ok = abs(published - 2.92) <= 0.01 * 2.92
    elapsed = time.perf_counter() - start
    _report(2, grid_ok and mono_ok and op_err <= 0.01 and published_ok
            and elapsed < 10.0,
            f"grid_ok={grid_ok} mono_ok={mono_ok} operating point max rel "
            f"err {op_err:.1e} (<= 1e-2) published eps={published:.4f} vs "
            f"2.92 runtime {elapsed:.1f}s")


def test_criterion_3_influence_loo_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    n, d, lam = 60, 5, 0.1
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (rng.random(n) < models._sigmoid(X @ w)).astype(int)
    X_test = rng.normal(size=(10, d))
    y_test = (rng.random(10) < models._sigmoid(X_test @ w)).astype(int)
    params = models.fit_lr_newton(X, y, l2_lambda=lam, tol=1e-12)
    engine = influence.InfluenceEngine(params, raw_cohort(X, y))
    matrix = engine.matrix(raw_cohort(X, y), raw_cohort(X_test, y_test))

    def test_losses(p):
        probs = np.clip(models.predict(p, X_test), 1e-12, 1 - 1e-12)
        return -(y_test * np.log(probs) + (1 - y_test) * np.log(1 - probs))

    base = test_losses(params)
    deltas = np.empty((n, 10))
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        keep[:] = True
        keep[i] = False
        deltas[i] = test_losses(models.fit_lr_newton(
            X[keep], y[keep], l2_lambda=lam, tol=1e-12)) - base
    rho = stats.spearmanr(matrix.values.ravel() / n, deltas.ravel()).statistic
    elapsed = time.perf_counter() - start
    _report(3, abs(rho) >= 0.95 and elapsed < 60.0,
            f"spearman rho={rho:.3f} runtime {elapsed:.1f}s")


def _trained_auroc(level, cc, seed, epochs=5, lr=0.5):
    c = cohort.generate_cohort(cc)
    split = cohort.split_yearly(c, 2002)
    config = harness.level(level).training(
        epochs=epochs, learning_rate=lr, seed=seed)
    trained = dp_optim.train({"family": "lr-binary", "l2_lambda": 0.01},
                             split, config)
    scores = models.predict(trained.params, split.test.features)
    return metrics.auroc(scores, split.test.labels)


def test_criterion_4_tail_scaling_of_utility_drop():
    start = time.perf_counter()
    wins = 0
    for seed in range(5):
        drops = []
        for prevalence in (0.5, 0.1, 0.02):
            cc = cohort.CohortConfig(n=20_000, d=20,
                                     positive_prevalence=prevalence,
                                     years=(2001, 2002),
                                     class_separation=2.0, seed=seed)
            drops.append(_trained_auroc("none", cc, seed)
                         - _trained_auroc("high", cc, seed))
        wins += drops[0] < drops[1] < drops[2]
    elapsed = time.perf_counter() - start
    _report(4, wins >= 4 and elapsed < 900.0,
            f"monotone drop in {wins}/5 seeds, runtime {elapsed:.0f}s")


def _influence_panels(seed):
    panels, subs = {}, {}
    for level, epochs, lr in (("none", 60, 0.5), ("high", 5, 0.05)):
        panels[level], subs[level] = test_influence._trained_panel(
            seed, level, epochs, lr, association=0.5)
    return panels, subs


def test_criterion_5_influence_bounding_under_privacy():
    wins = 0
    for seed in range(5):
        panels, _ = _influence_panels(seed)
        wins += (np.abs(panels["high"].values).max()
                 < np.abs(panels["none"].values).max())
    _report(5, wins >= 4, f"max |influence| smaller under high privacy in "
                          f"{wins}/5 seeds")


def test_criterion_6_group_influence_flip():
    label_flips = 0
    attribute_flips = 0
    for seed in range(5):
        panels, subs = _influence_panels(seed)
        helpful_label, helpful_attr = {}, {}
        for level in ("none", "high"):
            sub = subs[level]
            by_label = influence.group_influence(panels[level], sub.labels)
            by_group = influence.group_influence(panels[level], sub.groups)
            helpful_label[level] = by_label["most_helpful_group"]
            helpful_attr[level] = by_group["most_helpful_group"]
        # Minority label (1, prevalence 0.1) most helpful without privacy;
        # majority label (0) takes over under high privacy. Same direction
        # for the label-associated attribute group.
        label_flips += (helpful_label["none"] == 1
                        and helpful_label["high"] == 0)
        attribute_flips += (helpful_attr["none"] == 1
                            and helpful_attr["high"] == 0)
    _report(6, label_flips >= 3 and attribute_flips >= 3,
            f"label flip {label_flips}/5, attribute flip {attribute_flips}/5")


def test_criterion_7_shift_calibration_power_malignancy():
    false_hits = 0
    for trial in range(100):
        a = make_cohort(n=400, d=5, seed=2 * trial)
        b = make_cohort(n=400, d=5, seed=2 * trial + 1)
        row, _ = shift_audit.domain_classifier_significance(a, b, seed=trial)
        false_hits += row["significant"]
    detections = 0
    direction = np.zeros(5)
    direction[0] = 1.0
    for trial in range(100):
        a = make_cohort(n=1000, d=5, seed=trial)
        b = test_shift_audit._shifted_copy(
            make_cohort(n=1000, d=5, seed=1000 + trial), direction, 2.0)
        row, _ = shift_audit.domain_classifier_significance(a, b, seed=trial)
        detections += row["significant"]

    split, params, _, ortho = test_shift_audit._task_setup()
    baseline = test_shift_audit._baseline_accuracy(params, split.test)
    malignant = test_shift_audit._shifted_copy(split.test, ortho, 2.0)
    malignant = dataclasses.replace(malignant, labels=1 - malignant.labels)
    _, domain = shift_audit.domain_classifier_significance(
        split.train, malignant, seed=0, year=2002)
    mal_acc, _ = shift_audit.shift_malignancy(malignant, domain, params)
    benign = test_shift_audit._shifted_copy(split.test, ortho, 2.0)
    _, domain = shift_audit.domain_classifier_significance(
        split.train, benign, seed=0, year=2002)
    ben_acc, _ = shift_audit.shift_malignancy(benign, domain, params)

    ok = (false_hits <= 10 and detections >= 95 and mal_acc < 0.5
          and abs(ben_acc - baseline) <= 0.1)
    _report(7, ok, f"false {false_hits}/100, power {detections}/100, "
                   f"malignant {mal_acc:.2f}, benign {ben_acc:.2f} "
                   f"vs baseline {baseline:.2f}")


def test_criterion_8_fairness_exactness():
    from test_fairness_audit import GAPS, _from_confusions
    scores, labels, groups = _from_confusions({1: (4, 1, 1, 4),
                                               2: (2, 2, 2, 4)})
    fwd = fairness_audit.fairness_gaps(scores, labels, groups, 1, 2)
    rev = fairness_audit.fairness_gaps(scores, labels, groups, 2, 1)
    exact = (abs(fwd["parity_gap"] - 0.1) <= 1e-12
             and abs(fwd["recall_gap"] - 0.3) <= 1e-12
             and abs(fwd["specificity_gap"] - (4 / 5 - 4 / 6)) <= 1e-12)
    antisym = all(rev[k] == -fwd[k] for k in GAPS if fwd[k] is not None)
    same_scores, same_labels, same_groups = _from_confusions(
        {0: (3, 2, 1, 4), 1: (3, 2, 1, 4)})
    zero = fairness_audit.fairness_gaps(same_scores, same_labels,
                                        same_groups, 0, 1)
    zeros = all(zero[k] == 0.0 for k in GAPS)
    r_pos = metrics.pearson([1, 2, 3], [2, 4, 6]).statistic == 1.0
    r_neg = metrics.pearson([1, 2, 3], [6, 4, 2]).statistic == -1.0
    r_mid = abs(metrics.pearson([1, 2, 3, 4], [1, 3, 2, 4]).statistic
                - 0.8) <= 1e-12
    _report(8, exact and antisym and zeros and r_pos and r_neg and r_mid,
            f"exact={exact} antisym={antisym} zeros={zeros} "
            f"pearson=({r_pos},{r_neg},{r_mid})")


def test_criterion_9_objective_perturbation():
    devs, degradations = [], []
    for seed in range(5):
        cc = cohort.CohortConfig(n=4000, d=100, positive_prevalence=0.1,
                                 years=(2001, 2002), class_separation=2.0,
                                 seed=seed)
        split = cohort.split_yearly(cohort.generate_cohort(cc), 2002)

        def run_auroc(eps_p):
            config = objpert.ObjPertConfig(eps_p=eps_p, lam=0.01, seed=seed)
            trained = objpert.train_objective_perturbation(split.train,
                                                           config)
            scores = models.predict(trained.params, split.test.features)
            return metrics.auroc(scores, split.test.labels)

        base = run_auroc(math.inf)
        devs.append(abs(run_auroc(3.5e5) - base))
        degradations.append(base - run_auroc(3.54))

    dim = 101
    config = objpert.ObjPertConfig(eps_p=3.54, lam=0.01)
    eps_prime, _, _ = objpert.budget_split(4000, config)
    beta = eps_prime / 2.0
    rng = np.random.default_rng(0)
    norms = [np.linalg.norm(objpert.sample_noise_vector(dim, beta, rng))
             for _ in range(3000)]
    ks_p = stats.kstest(norms, "gamma", args=(dim, 0.0, 1.0 / beta)).pvalue

    ok = max(devs) <= 0.02 and min(degradations) >= 0.05 and ks_p > 0.01
    _report(9, ok, f"max dev {max(devs):.3f}, min degradation "
                   f"{min(degradations):.3f}, KS p={ks_p:.3f}")


def test_criterion_10_exact_statistics():
    exact_one = metrics.binomial_test(50, 100).p_value == 1.0
    tails = abs(metrics.binomial_test(10, 10).p_value - 2 * 2 ** -10) < 1e-15
    pmf = [Fraction(comb(100, j), 2 ** 100) for j in range(101)]
    golden = float(sum(p for p in pmf if p <= pmf[65]))
    mid = abs(metrics.binomial_test(65, 100).p_value - golden) <= 1e-12 * golden

    def pair_counting(scores, labels):
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        total = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                    for p in pos for q in neg)
        return total / (len(pos) * len(neg))

    cases = (([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]),
             ([0.9, 0.8, 0.3, 0.2], [1, 0, 0, 1]),
             ([0.5, 0.5, 0.5, 0.1], [1, 0, 1, 0]))
    auroc_ok = all(metrics.auroc(s, l) == pair_counting(s, l)
                   for s, l in cases)
    _report(10, exact_one and tails and mid and auroc_ok,
            f"mode-one={exact_one} tails={tails} golden={mid} "
            f"auroc={auroc_ok}")


def test_criterion_11_end_to_end_determinism(tmp_path):
    names = ("report.json", "utility_by_year.csv", "malignancy.csv",
             "fairness_by_year.csv", "influence_summary.json")
    payloads = []
    for run in ("a", "b"):
        cc = cohort.CohortConfig(n=600, d=4, positive_prevalence=0.3,
                                 years=(2001, 2002), class_separation=2.0,
                                 group_prevalences=(0.5, 0.5), seed=0)
        config = harness.ExperimentConfig(
            cohort=cc, privacy_levels=["none", "high"], seeds=[0], epochs=1,
            audits=["utility", "robustness", "fairness", "influence"],
            out_dir=str(tmp_path / run))
        _, failures = harness.run_experiment(config)
        assert failures == 0
        payloads.append({
            name: Path(config.out_dir, name).read_bytes() for name in names})
    _report(11, payloads[0] == payloads[1], "byte-identical reports")
