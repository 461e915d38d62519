import math

import numpy as np
import pytest
from scipy import stats

from dp_tails import (cohort, harness, metrics, models,
                      objective_perturbation as op)
from dp_tails.errors import ConfigurationError, DomainError

from conftest import make_cohort, raw_cohort


def _split_of(c, pivot=2002):
    return cohort.split_yearly(c, pivot)


def test_noise_vector_vanishes_at_huge_beta(rng):
    b = op.sample_noise_vector(5, 1e9, rng)
    assert np.linalg.norm(b) < 1e-6


def test_noise_vector_norm_mean_gamma_1_1():
    rng = np.random.default_rng(0)
    norms = np.array([np.linalg.norm(op.sample_noise_vector(1, 1.0, rng))
                      for _ in range(100000)])
    # Gamma(1,1): mean 1, var 1; 3 standard errors of the sample mean.
    assert abs(norms.mean() - 1.0) <= 3.0 / np.sqrt(len(norms))


def test_noise_vector_norm_ks_against_gamma_oracle():
    rng = np.random.default_rng(1)
    beta = 2.0
    norms = np.array([np.linalg.norm(op.sample_noise_vector(3, beta, rng))
                      for _ in range(10000)])
    oracle = np.random.default_rng(2).gamma(shape=3, scale=1.0 / beta,
                                            size=10000)
    result = stats.ks_2samp(norms, oracle)
    assert result.pvalue > 0.01


def test_noise_vector_direction_uniform():
    rng = np.random.default_rng(3)
    dirs = np.array([op.sample_noise_vector(3, 1.0, rng) for _ in range(20000)])
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    assert np.all(np.abs(dirs.mean(axis=0)) < 0.02)


def test_noise_vector_errors(rng):
    with pytest.raises(DomainError):
        op.sample_noise_vector(0, 1.0, rng)
    with pytest.raises(DomainError):
        op.sample_noise_vector(3, 0.0, rng)


def test_budget_split_matches_formula_grid():
    # c B^2 with c = 1/4 and B^2 = C^2 + 1, the squared norm bound of a
    # solver input [x; 1].
    for n in (50, 500, 5000):
        for lam in (1e-4, 1e-2, 1.0):
            for eps_p in (1e-4, 0.1, 3.54, 3.5e5):
                for C in (0.5, 1.0):
                    c = 0.25 * (C ** 2 + 1.0)
                    config = op.ObjPertConfig(eps_p=eps_p, lam=lam,
                                              record_norm_bound=C)
                    eps_prime, delta_reg, branch = op.budget_split(n, config)
                    direct = eps_p - math.log(1.0 + 2 * c / (n * lam)
                                              + c * c / (n * n * lam * lam))
                    if direct > 0:
                        assert branch == "slack-free"
                        assert eps_prime == direct
                        assert delta_reg == 0.0
                    else:
                        assert branch == "extra-regularization"
                        assert eps_prime == eps_p / 2.0
                        expected = c / (n * (math.exp(eps_p / 4.0) - 1.0)) - lam
                        assert delta_reg == max(expected, 0.0)


def test_noise_rate_and_budget_cover_rescaled_records():
    # The solver sees [x; 1] for a record x rescaled to norm <= C, so its
    # input norm reaches sqrt(C^2 + 1). The bound B that the noise rate
    # beta = eps' / (2B) assumes must cover the largest such norm, and the
    # budget's eps' must use the same B (c B^2 in place of c).
    c = make_cohort(n=800, d=6, prevalence=0.3, years=(2001, 2002), seed=4)
    train = _split_of(c).train
    norms = np.linalg.norm(train.features, axis=1)
    for C in (0.5, 1.0, 3.0):
        config = op.ObjPertConfig(eps_p=2.0, lam=0.05,
                                  record_norm_bound=C, seed=4)
        log = op.train_objective_perturbation(train, config).accounting_log
        X = train.features / np.maximum(1.0, norms / C)[:, None]
        largest = np.linalg.norm(np.column_stack([X, np.ones(train.n)]),
                                 axis=1).max()
        assert largest == pytest.approx(math.sqrt(C * C + 1.0), rel=1e-12)
        assumed = log["eps_prime"] / (2.0 * log["beta"])
        assert largest <= assumed * (1.0 + 1e-12)
        assert log["input_norm_bound"] == pytest.approx(assumed, rel=1e-12)
        cb2 = 0.25 * assumed * assumed
        n, lam = train.n, config.lam
        assert log["eps_prime"] == pytest.approx(
            config.eps_p - math.log(1.0 + 2.0 * cb2 / (n * lam)
                                    + cb2 * cb2 / (n * n * lam * lam)),
            rel=1e-12)


def test_budget_split_both_branches_reachable():
    branches = set()
    for eps_p in (1e-4, 10.0):
        config = op.ObjPertConfig(eps_p=eps_p, lam=1e-3)
        branches.add(op.budget_split(100, config)[2])
    assert branches == {"slack-free", "extra-regularization"}


def test_output_optimality():
    c = make_cohort(n=800, d=6, prevalence=0.3, years=(2001, 2002), seed=4)
    split = _split_of(c)
    config = op.ObjPertConfig(eps_p=2.0, lam=0.05, seed=4)
    trained = op.train_objective_perturbation(split.train, config)

    # Recompute the perturbed-objective gradient at the returned params.
    train = split.train
    norms = np.linalg.norm(train.features, axis=1)
    X = train.features / np.maximum(1.0, norms)[:, None]
    Z = np.column_stack([X, np.ones(train.n)])
    y_pm = 2.0 * train.labels - 1.0
    _, delta_reg, _ = op.budget_split(train.n, config)
    rng = np.random.default_rng(np.random.SeedSequence([4, 3]))
    b = op.sample_noise_vector(train.d + 1, trained.accounting_log["beta"],
                               rng)
    theta = trained.params.theta
    s = models._sigmoid(-(y_pm * (Z @ theta)))
    grad = (-(Z * (y_pm * s)[:, None]).mean(axis=0)
            + (config.lam + delta_reg) * theta + b / train.n)
    assert np.linalg.norm(grad) <= 1e-8


def test_zero_noise_limit_equals_non_private_minimizer(tmp_path):
    # eps_p = inf is the beta -> infinity limit: b = 0 and Delta = 0, so
    # the model is the unperturbed rescaled minimizer whatever the seed,
    # logged as a non-private run with no budget split; the grid's `none`
    # cells report that model.
    cc = cohort.CohortConfig(n=600, d=5, positive_prevalence=0.3,
                             years=(2001, 2002), class_separation=2.0, seed=1)
    split = _split_of(cohort.generate_cohort(cc))
    config = op.ObjPertConfig(eps_p=math.inf, lam=0.1, seed=1)
    trained = op.train_objective_perturbation(split.train, config)

    # Direct Newton solve of the unperturbed rescaled objective.
    train = split.train
    norms = np.linalg.norm(train.features, axis=1)
    X = train.features / np.maximum(1.0, norms)[:, None]
    theta = models.fit_lr_newton(X, train.labels, l2_lambda=0.1).theta
    assert np.max(np.abs(trained.params.theta - theta)) < 1e-6
    exact = models.fit_lr_newton(X, train.labels, l2_lambda=0.1, tol=1e-8,
                                 max_iter=200, linear=np.zeros(train.d + 1))
    assert np.array_equal(trained.params.theta, exact.theta)
    assert trained.accounting_log == {
        "mechanism": "objective-perturbation", "lambda": 0.1,
        "record_norm_bound": 1.0, "input_norm_bound": math.sqrt(2.0),
        "smoothness_constant": op.SMOOTHNESS,
        "caveats": ["non-private run",
                    "record features rescaled to norm <= C before solving"]}
    assert trained.spend.to_dict() == {"epsilon": "inf", "delta": 0.0,
                                       "argmin_order": None}
    reseeded = op.train_objective_perturbation(
        split.train, op.ObjPertConfig(eps_p=math.inf, lam=0.1, seed=9))
    assert reseeded.to_dict() == trained.to_dict()

    # The grid's `none` cell at the same lambda reports this model.
    grid = harness.ExperimentConfig(
        cohort=cc, privacy_levels=["none"],
        mechanisms=["objective-perturbation"], seeds=[3],
        audits=["utility"], objpert_lambda=0.1, out_dir=str(tmp_path))
    report, failures = harness.run_experiment(grid)
    assert failures == 0
    row, = report["cells"][0]["utility"]["per_year"]
    assert row["accounting_log"] == trained.accounting_log
    assert row["spend"] == trained.spend.to_dict()
    scores = models.predict(trained.params, split.test.features)
    assert row["auroc"] == metrics.auroc(scores, split.test.labels)


def test_huge_epsilon_matches_zero_noise_run():
    c = make_cohort(n=600, d=5, prevalence=0.3, years=(2001, 2002), seed=2)
    split = _split_of(c)
    noisy = op.train_objective_perturbation(
        split.train, op.ObjPertConfig(eps_p=3.5e5, lam=0.05, seed=2))
    clean = op.train_objective_perturbation(
        split.train, op.ObjPertConfig(eps_p=math.inf, lam=0.05, seed=2))
    assert np.max(np.abs(noisy.params.theta - clean.params.theta)) < 1e-3


def test_small_epsilon_takes_extra_regularization_branch():
    c = make_cohort(n=400, d=4, prevalence=0.3, years=(2001, 2002), seed=3)
    split = _split_of(c)
    config = op.ObjPertConfig(eps_p=1e-4, lam=1e-4, seed=3)
    trained = op.train_objective_perturbation(split.train, config)
    assert trained.accounting_log["branch"] == "extra-regularization"
    assert trained.accounting_log["extra_regularization"] > 0
    assert trained.accounting_log["eps_prime"] == 1e-4 / 2.0


def test_spend_convention():
    c = make_cohort(n=400, d=4, prevalence=0.3, years=(2001, 2002), seed=0)
    split = _split_of(c)
    trained = op.train_objective_perturbation(
        split.train, op.ObjPertConfig(eps_p=3.54, lam=0.01, seed=0))
    assert trained.spend.epsilon == 3.54
    assert trained.spend.delta == 0.0
    assert trained.mechanism == "objective-perturbation"


def test_utility_degradation_trend():
    means = {}
    for eps_p in (3.5e5, 3.54):
        vals = []
        for seed in range(5):
            c = make_cohort(n=2000, d=20, prevalence=0.1,
                            years=(2001, 2002), seed=seed)
            split = _split_of(c)
            trained = op.train_objective_perturbation(
                split.train,
                op.ObjPertConfig(eps_p=eps_p, lam=0.01, seed=seed))
            scores = models.predict(trained.params, split.test.features)
            vals.append(metrics.auroc(scores, split.test.labels))
        means[eps_p] = float(np.mean(vals))
    assert means[3.5e5] > means[3.54]


def test_errors():
    # inf is the noiseless limit; NaN is no budget at all.
    for eps_p in (0.0, math.nan):
        with pytest.raises(ConfigurationError, match="eps_p"):
            op.ObjPertConfig(eps_p=eps_p, lam=0.1)
    with pytest.raises(ConfigurationError):
        op.ObjPertConfig(eps_p=1.0, lam=0.0)
    # A label outside {0, 1} is refused when its cohort is built, before
    # any training could read it.
    with pytest.raises(DomainError, match=r"labels must lie in \[0,2\)"):
        raw_cohort(np.eye(4), [0, 1, 2, 1], years=[2001, 2001, 2001, 2002])
