import dataclasses

import numpy as np
import pytest
from scipy import stats

from dp_tails import cohort, dp_optim, harness, influence, models
from dp_tails.errors import DomainError, NumericError, UnsupportedFamilyError

from conftest import make_cohort, raw_cohort
from oracles.trainer_parent import loss_and_per_example_grads


def _fitted_engine(n=80, d=4, lam=0.1, seed=0):
    c = make_cohort(n=n, d=d, seed=seed)
    params = models.fit_lr_newton(c.features, c.labels, l2_lambda=lam)
    return influence.InfluenceEngine(params, c), c


def test_engine_requires_lr_binary():
    c = make_cohort(n=50, d=3)
    params = models.init_params("mlp-1", 3)
    with pytest.raises(UnsupportedFamilyError):
        influence.InfluenceEngine(params, c)


def test_engine_conditioning_error_at_zero_damping():
    c = make_cohort(n=50, d=3)
    params = models.init_params("lr-binary", 3, l2_lambda=0.0)
    with pytest.raises(NumericError):
        influence.InfluenceEngine(params, c, damping=0.0)


def test_default_damping_applied_only_when_unregularized():
    c = make_cohort(n=50, d=3)
    unreg = models.init_params("lr-binary", 3, l2_lambda=0.0)
    assert influence.InfluenceEngine(unreg, c).damping == 1e-3
    reg = models.init_params("lr-binary", 3, l2_lambda=0.1)
    assert influence.InfluenceEngine(reg, c).damping == 0.0


def _direct(engine, hess_cohort, train, test):
    """-G_test H^{-1} G_train^T from the frozen per-record gradients and
    the undamped Hessian of hess_cohort, as a |train| x |test| array."""
    H = models.lr_hessian(engine.params, hess_cohort.features)
    _, G_tr = loss_and_per_example_grads(
        engine.params, train.features, train.labels, include_ridge=False)
    _, G_te = loss_and_per_example_grads(
        engine.params, test.features, test.labels, include_ridge=False)
    return -(G_tr @ np.linalg.solve(H, G_te.T))


def test_self_influence_negative():
    engine, c = _fitted_engine()
    for i in (0, 3, 7):
        z = c.subset([i])
        assert engine.matrix(z, z).values[0, 0] < 0


def test_confident_correct_test_point_near_zero():
    engine, c = _fitted_engine()
    # A test point far on its own side of the boundary has a vanishing
    # gradient, so its influence against any train point vanishes too.
    w = engine.params.theta[:-1]
    x = 50.0 * w / np.linalg.norm(w)
    margin = x @ w + engine.params.theta[-1]
    assert margin > 30
    matrix = engine.matrix(c.subset([0]), raw_cohort([x], [1]))
    assert abs(matrix.values[0, 0]) < 1e-6


def test_pair_matches_direct_formula(rng):
    engine, c = _fitted_engine()
    for _ in range(10):
        i, j = rng.integers(c.n, size=2)
        train, test = c.subset([i]), c.subset([j])
        matrix = engine.matrix(train, test)
        expected = _direct(engine, c, train, test)[0, 0]
        assert abs(matrix.values[0, 0] - expected) < 1e-10


def test_matrix_1x1_equals_pair():
    engine, c = _fitted_engine()
    train_sub = c.subset([3])
    test_sub = c.subset([9])
    matrix = engine.matrix(train_sub, test_sub)
    pair = _direct(engine, c, train_sub, test_sub)[0, 0]
    assert matrix.values.shape == (1, 1)
    assert abs(matrix.values[0, 0] - pair) < 1e-12


def test_matrix_matches_direct_formula_200x100():
    c = make_cohort(n=300, d=4, seed=5)
    params = models.fit_lr_newton(c.features, c.labels, l2_lambda=0.05)
    engine = influence.InfluenceEngine(params, c)
    train_sub = c.subset(np.arange(200))
    test_sub = c.subset(np.arange(200, 300))
    matrix = engine.matrix(train_sub, test_sub)
    expected = _direct(engine, c, train_sub, test_sub)
    assert matrix.values.shape == (200, 100)
    assert np.max(np.abs(matrix.values - expected)) < 1e-10


def test_matrix_duplicate_train_rows_identical():
    engine, c = _fitted_engine()
    train_sub = c.subset([2, 2, 5])
    test_sub = c.subset(np.arange(10))
    matrix = engine.matrix(train_sub, test_sub)
    assert np.array_equal(matrix.values[0], matrix.values[1])


def test_bilinearity_via_gradient_scaling():
    # The test-side gradient of binary LR is (p - y) [x; 1]; flipping the
    # label of a test point with p = 0.5 negates the gradient exactly, and
    # the influence value must negate with it.
    engine, c = _fitted_engine()
    theta = engine.params.theta
    # Construct x with logit exactly 0: x orthogonal to w, minus bias trick.
    w, bias = theta[:-1], theta[-1]
    x = -bias * w / float(w @ w)
    assert abs(x @ w + bias) < 1e-12
    v0, v1 = (engine.matrix(c.subset([1]), raw_cohort([x], [y])).values[0, 0]
              for y in (0, 1))
    assert abs(v0 + v1) < 1e-10


def test_loo_retraining_fidelity():
    # 60x5 problem: influence/n vs exact leave-one-out loss changes.
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
        retrained = models.fit_lr_newton(X[keep], y[keep], l2_lambda=lam,
                                         tol=1e-12)
        deltas[i] = test_losses(retrained) - base

    rho = stats.spearmanr(matrix.values.ravel() / n, deltas.ravel()).statistic
    # Documented sign convention: removal changes the loss by ~ -value/n.
    assert rho <= -0.95


def test_group_influence_additivity_and_summary():
    engine, c = _fitted_engine()
    train_sub = c.subset(np.arange(20))
    test_sub = c.subset(np.arange(20, 40))
    matrix = engine.matrix(train_sub, test_sub)
    group_of = train_sub.ids % 3
    summary = influence.group_influence(matrix, group_of)
    for g in (0, 1, 2):
        expected = matrix.values[group_of == g].sum(axis=0)
        assert summary["means"][g] == float(expected.mean())
        assert summary["stds"][g] == float(expected.std())
    means = summary["means"]
    assert summary["most_helpful_group"] == min(means,
                                                key=lambda g: (means[g], g))
    assert summary["most_harmful_group"] == max(means,
                                                key=lambda g: (means[g], -g))


def test_group_influence_single_group_is_column_sum():
    engine, c = _fitted_engine()
    train_sub = c.subset(np.arange(15))
    test_sub = c.subset(np.arange(15, 25))
    matrix = engine.matrix(train_sub, test_sub)
    summary = influence.group_influence(matrix, np.zeros(15, dtype=np.int64))
    column_sums = matrix.values.sum(axis=0)
    assert summary["means"] == {0: float(column_sums.mean())}
    assert summary["stds"] == {0: float(column_sums.std())}


def test_group_influence_zero_rows_group():
    matrix = influence.InfluenceMatrix(
        values=np.array([[0.0, 0.0], [1.0, -2.0]]),
        train_ids=np.array([0, 1]), test_ids=np.array([10, 11]))
    summary = influence.group_influence(matrix, np.array([0, 1]))
    assert summary["means"][0] == 0.0
    assert summary["stds"][0] == 0.0


def test_group_influence_length_mismatch_error():
    matrix = influence.InfluenceMatrix(
        values=np.ones((2, 2)), train_ids=np.array([0, 1]),
        test_ids=np.array([5, 6]))
    for group_of in ([0], [0, 1, 1], [[0, 1]]):
        with pytest.raises(DomainError):
            influence.group_influence(matrix, group_of)


def _toy_matrix(values, test_ids=None):
    values = np.asarray(values, dtype=float)
    return influence.InfluenceMatrix(
        values=values,
        train_ids=np.arange(values.shape[0]),
        test_ids=np.arange(values.shape[1]) if test_ids is None
        else np.asarray(test_ids))


def test_top_variance_constant_columns_id_order():
    matrix = _toy_matrix(np.ones((4, 5)), test_ids=[30, 10, 20, 50, 40])
    assert influence.top_variance_test_points(matrix, k=5) == [10, 20, 30,
                                                               40, 50]


def test_top_variance_scaled_column_first(rng):
    values = rng.normal(size=(20, 6))
    values[:, 3] *= 10.0
    matrix = _toy_matrix(values)
    assert influence.top_variance_test_points(matrix, k=1) == [3]


def test_top_variance_matches_brute_force(rng):
    values = rng.normal(size=(500, 300))
    matrix = _toy_matrix(values)
    got = influence.top_variance_test_points(matrix, k=300)
    variances = values.var(axis=0)
    expected = [int(i) for i in np.lexsort((np.arange(300), -variances))]
    assert got == expected


def test_top_variance_k_too_large():
    matrix = _toy_matrix(np.ones((3, 4)))
    with pytest.raises(DomainError):
        influence.top_variance_test_points(matrix, k=5)


def test_influencer_frequency_dominating_row():
    values = np.zeros((5, 8))
    values[2] = -1.0  # most negative everywhere = most helpful
    table = influence.influencer_frequency(_toy_matrix(values))
    assert table == {"counts": {"2": 8}, "concentration": 1.0}


def test_influencer_frequency_distinct_winners():
    values = np.zeros((4, 4))
    for j in range(4):
        values[j, j] = -5.0
    table = influence.influencer_frequency(_toy_matrix(values))
    assert table == {"counts": {"0": 1, "1": 1, "2": 1, "3": 1},
                     "concentration": 0.25}


def test_influencer_frequency_errors():
    with pytest.raises(DomainError):
        influence.influencer_frequency(_toy_matrix(np.empty((0, 0))))
    with pytest.raises(DomainError):
        influence.influencer_frequency(_toy_matrix(np.empty((3, 0))))


def test_overflowing_statistics_refused_with_their_count():
    # Finite values whose column variance and group spread overflow: both
    # were returned as inf, and json wrote them as Infinity.
    matrix = _toy_matrix([[1e300, -1e300], [1e300, 1e300]])
    with pytest.raises(NumericError, match="^influence variance has 1 "
                       "non-finite entries of 2$"):
        influence.top_variance_test_points(matrix, k=1)
    with pytest.raises(NumericError, match="^group influence has 1 "
                       "non-finite entries of 2$"):
        influence.group_influence(matrix, [0, 0])


def _panel(matrix, k=100):
    panel_ids = influence.top_variance_test_points(matrix, k=k)
    cols = {int(t): i for i, t in enumerate(matrix.test_ids)}
    idx = [cols[t] for t in panel_ids]
    return influence.InfluenceMatrix(
        values=matrix.values[:, idx], train_ids=matrix.train_ids,
        test_ids=np.asarray(panel_ids))


def _trained_panel(seed, level, epochs, lr, association=0.0,
                   hessian_on_full_train=False):
    config = cohort.CohortConfig(n=6000, d=200, positive_prevalence=0.1,
                                 years=(2001, 2002), class_separation=1.5,
                                 group_label_association=association,
                                 seed=seed)
    c = cohort.generate_cohort(config)
    split = cohort.split_yearly(c, 2002)
    train_config = harness.level(level).training(
        epochs=epochs, learning_rate=lr, seed=seed)
    trained = dp_optim.train({"family": "lr-binary", "l2_lambda": 0.05},
                             split, train_config)
    train_sub = split.train.subset(np.arange(min(1000, split.train.n)))
    test_sub = split.test.subset(np.arange(min(300, split.test.n)))
    hess_cohort = split.train if hessian_on_full_train else train_sub
    engine = influence.InfluenceEngine(trained.params, hess_cohort)
    return _panel(engine.matrix(train_sub, test_sub)), train_sub


def test_concentration_larger_without_privacy():
    wins = 0
    for seed in range(5):
        none_panel, _ = _trained_panel(seed, "none", 60, 0.5,
                                       hessian_on_full_train=True)
        high_panel, _ = _trained_panel(seed, "high", 5, 0.05,
                                       hessian_on_full_train=True)
        none_c = influence.influencer_frequency(none_panel)
        high_c = influence.influencer_frequency(high_panel)
        wins += none_c["concentration"] > high_c["concentration"]
    assert wins >= 3


def test_shift_variance_growth_malignant_vs_benign():
    wins = 0
    for seed in range(5):
        config = cohort.CohortConfig(n=6000, d=20, positive_prevalence=0.1,
                                     years=(2001, 2002),
                                     class_separation=2.0, seed=seed)
        c = cohort.generate_cohort(config)
        split = cohort.split_yearly(c, 2002)
        train_config = harness.level("none").training(
            epochs=30, learning_rate=0.5, seed=seed)
        trained = dp_optim.train({"family": "lr-binary", "l2_lambda": 0.01},
                                 split, train_config)
        engine = influence.InfluenceEngine(trained.params, split.train)
        means = cohort.class_year_means(config)
        sep = means[(1, 2001)] - means[(0, 2001)]
        sep /= np.linalg.norm(sep)
        r = np.random.default_rng(seed + 1000)
        benign_dir = r.normal(size=20)
        benign_dir -= (benign_dir @ sep) * sep
        benign_dir /= np.linalg.norm(benign_dir)
        train_sub = split.train.subset(np.arange(min(1000, split.train.n)))
        variances = {}
        for name, direction in (("malignant", sep), ("benign", benign_dir)):
            shifted = split.test.subset(np.arange(min(300, split.test.n)))
            shifted = dataclasses.replace(
                shifted, features=shifted.features + 2.0 * direction)
            panel = _panel(engine.matrix(train_sub, shifted))
            variances[name] = float(panel.values.var())
        wins += variances["malignant"] > variances["benign"]
    assert wins >= 4
