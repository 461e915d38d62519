import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dp_tails import accountant, cohort, dp_optim, metrics, models
from dp_tails.errors import (ConfigurationError, DomainError, NumericError,
                             TrainingError)
from oracles import trainer_parent
from oracles.trainer_parent import clip_gradient, loss_and_per_example_grads

from conftest import make_cohort, raw_cohort


def _split_of(c, pivot=2002):
    return cohort.split_yearly(c, pivot, "cumulative")


def _step(params, X, y, config, seeds=(0,)):
    """dp_optim._step on one stack of copies of params, one per seed (the
    seed picks the model's noise generator), every copy on batch X, y;
    returns the stack's thetas."""
    configs = [dataclasses.replace(config, seed=s) for s in seeds]
    stack = dp_optim._Stack(configs, np.tile(params.theta, (len(seeds), 1)))
    spec = models.FamilySpec(params.family, params.h, params.l2_lambda)
    dp_optim._step(stack, spec, np.broadcast_to(X, (len(seeds), *X.shape)),
                   np.broadcast_to(y, (len(seeds), *y.shape)), config, 0)
    return stack.theta


def test_clip_examples():
    assert np.allclose(clip_gradient([3.0, 4.0], 1.0), [0.6, 0.8])
    assert np.allclose(clip_gradient([3.0, 4.0], 5.0), [3.0, 4.0])
    assert np.allclose(clip_gradient([0.0, 0.0], 0.5), [0.0, 0.0])


def test_clip_bound_and_direction(rng):
    for _ in range(200):
        g = rng.normal(scale=3.0, size=8)
        clipped = clip_gradient(g, 1.0)
        assert np.linalg.norm(clipped) <= 1.0 + 1e-12
        cos = g @ clipped / (np.linalg.norm(g) * np.linalg.norm(clipped))
        assert abs(cos - 1.0) < 1e-12


@settings(max_examples=50, deadline=None)
@given(G=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                elements=st.floats(-1e6, 1e6)),
       clip_norm=st.floats(1e-3, 1e3))
def test_clip_rows_bound_and_direction_property(G, clip_norm):
    clipped = clip_gradient(G, clip_norm)
    assert clipped.shape == G.shape
    for g, c in zip(G, clipped):
        # Each row is clipped exactly as the vector on its own would be.
        assert np.array_equal(c, clip_gradient(g, clip_norm))
        norm = np.linalg.norm(g)
        assert np.linalg.norm(c) <= clip_norm * (1.0 + 1e-12)
        if norm <= clip_norm:
            assert np.array_equal(c, g)
        else:
            np.testing.assert_allclose(c * (norm / clip_norm), g,
                                       rtol=1e-12, atol=1e-12 * norm)


def test_clip_non_finite_error():
    with pytest.raises(NumericError):
        clip_gradient([np.nan, 1.0], 1.0)


def test_config_level_binding():
    cfg = dp_optim.DPTrainingConfig.from_level("high")
    assert (cfg.clip_norm, cfg.noise_multiplier) == (1.0, 1.0)
    cfg = dp_optim.DPTrainingConfig.from_level("low")
    assert (cfg.clip_norm, cfg.noise_multiplier) == (5.0, 0.1)
    with pytest.raises(ConfigurationError):
        dp_optim.DPTrainingConfig.from_level("high", clip_norm=2.0)
    with pytest.raises(ConfigurationError):
        dp_optim.DPTrainingConfig.from_level("medium")


def test_config_microbatch_divisibility():
    with pytest.raises(ConfigurationError):
        dp_optim.DPTrainingConfig(batch_size=64, microbatch_count=13)


def test_step_reduces_to_plain_sgd(rng):
    X = rng.normal(size=(32, 4))
    y = rng.integers(2, size=32)
    params = models.init_params("lr-binary", 4)
    config = dp_optim.DPTrainingConfig(
        clip_norm=1e9, noise_multiplier=0.0, batch_size=32,
        microbatch_count=32, learning_rate=0.3)
    stepped = _step(params, X, y, config)[0]
    _, G = loss_and_per_example_grads(params, X, y)
    plain = params.theta - 0.3 * G.mean(axis=0)
    assert np.max(np.abs(stepped - plain)) < 1e-9


def test_step_clipped_update_bound(rng):
    # Saturated per-example gradients with norms > C: the averaged clipped
    # sum has norm <= C, so the update norm is <= learning_rate * C.
    X = rng.normal(scale=50.0, size=(16, 4))
    y = rng.integers(2, size=16)
    params = models.init_params("lr-binary", 4)
    params = params.copy_with(params.theta + 1.0)
    config = dp_optim.DPTrainingConfig(
        clip_norm=1.0, noise_multiplier=0.0, batch_size=16,
        microbatch_count=16, learning_rate=0.7)
    stepped = _step(params, X, y, config)[0]
    update = stepped - params.theta
    assert np.linalg.norm(update) <= 0.7 * (1.0 + 1e-9)


def test_step_determinism(rng):
    X = rng.normal(size=(32, 3))
    y = rng.integers(2, size=32)
    params = models.init_params("lr-binary", 3)
    config = dp_optim.DPTrainingConfig.from_level("high", batch_size=32,
                                                  microbatch_count=16)
    a = _step(params, X, y, config, seeds=(5,))
    b = _step(params, X, y, config, seeds=(5, 6, 5))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[0], b[2])
    assert not np.array_equal(b[0], b[1])


def test_sensitivity_invariant(rng):
    # Two minibatches differing in exactly one adjacency unit (microbatch 2
    # of 16, or record 7 with per-example clipping): the pre-noise clipped
    # sums differ by at most 2C in norm, ridge term included.
    C = 1.0
    for family in ("lr-binary", "mlp-1"):
        params = models.init_params(family, 5, h=4, l2_lambda=0.1)
        params = params.copy_with(rng.normal(size=params.theta.size))
        for m, unit in ((16, slice(4, 6)), (32, slice(7, 8))):
            for _ in range(20):
                X1 = rng.normal(size=(32, 5))
                y1 = rng.integers(2, size=32)
                X2 = X1.copy()
                y2 = y1.copy()
                size = unit.stop - unit.start
                X2[unit] = rng.normal(scale=100.0, size=(size, 5))
                y2[unit] = rng.integers(2, size=size)
                _, (s1, s2), _ = models.clipped_grad_sum(
                    params, np.tile(params.theta, (2, 1)), np.stack([X1, X2]),
                    np.stack([y1, y2]), [C, C], m)
                assert np.linalg.norm(s1 - s2) <= 2 * C + 1e-9


def test_step_rejects_non_finite_gradient(rng, monkeypatch):
    # Finite loss, but gradients too large to square: every unit's pre-clip
    # norm overflows, and the step raises rather than apply the update.
    X = np.full((16, 3), 1e200)
    y = np.ones(16, dtype=int)
    split = _split_of(raw_cohort(np.vstack([X, X]), np.ones(32, dtype=int),
                                 years=[2001] * 16 + [2002] * 16))
    for m in (4, 16):
        config = dp_optim.DPTrainingConfig.from_level(
            "high", batch_size=16, microbatch_count=m, epochs=1)
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            dp_optim.train({"family": "lr-binary"}, split, config)
    # A non-finite clipped sum is refused on the step path too, and only
    # the model it belongs to leaves the stack.
    params = models.init_params("lr-binary", 3)
    real = models.clipped_grad_sum

    def poisoned(*args):
        loss, total, norms = real(*args)
        total[1] = np.nan
        return loss, total, norms
    monkeypatch.setattr(models, "clipped_grad_sum", poisoned)
    config = dp_optim.DPTrainingConfig.from_level(
        "high", batch_size=16, microbatch_count=4)
    configs = [dataclasses.replace(config, seed=s) for s in (0, 1, 2)]
    stack = dp_optim._Stack(configs, np.zeros((3, 4)))
    dp_optim._step(stack, models.FamilySpec(),
                   np.stack([rng.normal(size=(16, 3))] * 3),
                   np.stack([y] * 3), config, 0)
    assert stack.index.tolist() == [0, 2]
    assert [type(e).__name__ if e else None for e in stack.errors] == \
        [None, "NumericError", None]
    assert str(stack.errors[1]) == "non-finite gradient"


def test_noise_calibration():
    # Zero-gradient construction: theta = 0 gives p = 0.5 everywhere, zero
    # features put all gradient mass on the bias, and one positive plus one
    # negative label per microbatch cancels it exactly. Updates are then
    # pure noise with per-coordinate std = lr * sigma * C / m.
    d, L, m = 2, 32, 16
    X = np.zeros((L, d))
    y = np.array([0, 1] * (L // 2))
    params = models.init_params("lr-binary", d)
    config = dp_optim.DPTrainingConfig(
        clip_norm=1.0, noise_multiplier=1.0, batch_size=L,
        microbatch_count=m, learning_rate=0.5)
    # 10000 independent steps: one stack of 10000 copies of the model,
    # each with its own noise generator.
    deltas = _step(params, X, y, config, seeds=range(10000)) - params.theta
    expected = 0.5 * 1.0 * 1.0 / m
    assert abs(deltas.std() - expected) <= 0.03 * expected
    assert abs(deltas.mean()) <= 3 * expected / np.sqrt(deltas.size)


def test_train_reduction_to_plain_sgd_path():
    c = make_cohort(n=500, d=4, years=(2001, 2002), seed=3)
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "none", batch_size=64, microbatch_count=16, learning_rate=0.4,
        epochs=3, seed=11)
    trained = dp_optim.train({"family": "lr-binary", "l2_lambda": 0.01},
                             split, config)

    # Independent plain-SGD reference replaying the same shuffling stream.
    X, y = split.train.features, split.train.labels
    n, L = split.train.n, 64
    params = models.init_params("lr-binary", 4, l2_lambda=0.01)
    rng = np.random.default_rng(np.random.SeedSequence([11, 2]))
    for _ in range(3):
        perm = rng.permutation(n)
        for b in range(n // L):
            idx = perm[b * L:(b + 1) * L]
            _, G = loss_and_per_example_grads(params, X[idx], y[idx])
            params = params.copy_with(params.theta - 0.4 * G.mean(axis=0))
    assert np.max(np.abs(trained.params.theta - params.theta)) < 1e-9
    assert trained.spend.epsilon == math.inf
    assert trained.spend.delta == 0.0


def test_train_separable_auroc():
    c = make_cohort(n=2000, d=5, years=(2001, 2002), seed=0,
                    class_separation=3.0)
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "none", learning_rate=0.5, epochs=20, seed=0)
    trained = dp_optim.train({"family": "lr-binary"}, split, config)
    scores = models.predict(trained.params, split.train.features)[:, 1]
    assert metrics.auroc(scores, split.train.labels) >= 0.95


def test_train_high_level_finite_epsilon():
    c = make_cohort(n=2000, d=5, years=(2001, 2002), seed=0)
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "high", learning_rate=0.1, epochs=2, seed=0)
    trained = dp_optim.train({"family": "lr-binary"}, split, config)
    assert math.isfinite(trained.spend.epsilon)
    assert trained.spend.epsilon > 0
    assert trained.spend.delta == 1e-5
    log = trained.accounting_log
    assert log["steps"] == trained.steps_taken
    assert log["q"] == 64 / split.train.n


def test_train_zero_epochs():
    c = make_cohort(n=500, d=3, years=(2001, 2002), seed=0)
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "high", learning_rate=0.1, epochs=0, seed=0)
    trained = dp_optim.train({"family": "lr-binary"}, split, config)
    assert np.array_equal(trained.params.theta, np.zeros(4))
    assert trained.spend.epsilon == 0.0
    assert trained.steps_taken == 0
    log = trained.accounting_log
    again, _ = accountant.spend_for_training(
        log["q"], log["sigma"], log["steps"], log["delta"])
    assert again.epsilon == trained.spend.epsilon


def test_train_steps_arithmetic():
    c = make_cohort(n=500, d=3, years=(2001, 2002), seed=1)
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "none", batch_size=64, learning_rate=0.1, epochs=4, seed=0)
    trained = dp_optim.train({"family": "lr-binary"}, split, config)
    # Fixed-size batches, last partial batch dropped.
    assert trained.steps_taken == 4 * (split.train.n // 64)
    assert len(trained.training_trace) == 4


def test_train_divergence_error():
    c = make_cohort(n=300, d=3, years=(2001, 2002), seed=0)
    c.features[0, 0] = np.nan
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "none", learning_rate=0.1, epochs=1, seed=0, batch_size=300,
        microbatch_count=1)
    with pytest.raises(TrainingError) as err:
        dp_optim.train({"family": "lr-binary"}, split, config)
    assert err.value.epoch == 0


@pytest.mark.parametrize("epochs", [1, 2])
def test_train_divergence_before_last_step_error(epochs):
    # The only model diverges at the first of several steps of an epoch;
    # the emptied stack takes no further step, and train raises the
    # per-model trainer's error.
    c = make_cohort(n=300, d=3, years=(2001, 2002), seed=0)
    c.features[:, 0] = np.nan
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "none", learning_rate=0.1, epochs=epochs, seed=0, batch_size=64,
        microbatch_count=1)
    assert split.train.n // 64 > 1
    with pytest.raises(TrainingError) as per_model:
        trainer_parent.train({"family": "lr-binary"}, split, config)
    with pytest.raises(TrainingError) as err:
        dp_optim.train({"family": "lr-binary"}, split, config)
    assert str(err.value) == str(per_model.value)
    assert err.value.epoch == per_model.value.epoch == 0


def test_train_adam_reduces_loss():
    c = make_cohort(n=1000, d=4, years=(2001, 2002), seed=2)
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig.from_level(
        "none", learning_rate=0.05, epochs=5, seed=0)
    config.optimizer = "adam"
    trained = dp_optim.train({"family": "lr-binary"}, split, config)
    assert trained.training_trace[-1] < trained.training_trace[0]


def test_train_sigma_zero_private_has_no_finite_guarantee():
    c = make_cohort(n=500, d=3, years=(2001, 2002), seed=0)
    split = _split_of(c)
    config = dp_optim.DPTrainingConfig(
        clip_norm=1.0, noise_multiplier=0.0, learning_rate=0.1, epochs=1,
        seed=0)
    trained = dp_optim.train({"family": "lr-binary"}, split, config)
    assert trained.spend.epsilon == math.inf


def test_monotone_utility_trend():
    # Mean test AUROC over 5 seeds ordered none >= low >= high on the
    # imbalanced cohort.
    means = {}
    for level in ("none", "low", "high"):
        vals = []
        for seed in range(5):
            c = make_cohort(n=4000, d=10, prevalence=0.1,
                            years=(2001, 2002), seed=seed)
            split = _split_of(c)
            config = dp_optim.DPTrainingConfig.from_level(
                level, learning_rate=0.5, epochs=3, seed=seed)
            trained = dp_optim.train(
                {"family": "lr-binary", "l2_lambda": 0.01}, split, config)
            scores = models.predict(trained.params, split.test.features)[:, 1]
            vals.append(metrics.auroc(scores, split.test.labels))
        means[level] = float(np.mean(vals))
    assert means["none"] >= means["low"] >= means["high"]


def _same_model(a, b):
    return (np.array_equal(a.params.theta, b.params.theta)
            and a.params.to_dict() == b.params.to_dict()
            and a.training_trace == b.training_trace
            and a.steps_taken == b.steps_taken
            and a.accounting_log == b.accounting_log
            and a.spend == b.spend)


@pytest.mark.parametrize("family, optimizer, m", itertools.product(
    models.FAMILIES, ("sgd", "adam"), (1, 16, 64)))
def test_stacked_models_equal_frozen_per_model_trainer(family, optimizer, m):
    # Every model of a stack is, bit for bit, the model the per-model
    # trainer gave (tests/oracles/trainer_parent.py): alone (R = 1), in a
    # stack of its level's seeds, and in a stack of other companions.
    c = make_cohort(n=400, d=4, years=(2001, 2002), seed=5)
    split = _split_of(c)
    spec = {"family": family, "h": 5, "l2_lambda": 0.01}
    stacks = {"none": ["none"], "private": ["low", "high"]}
    for levels in stacks.values():
        configs = [dp_optim.DPTrainingConfig.from_level(
            level, batch_size=64, microbatch_count=m, learning_rate=0.3,
            epochs=2, seed=seed, optimizer=optimizer)
            for level in levels for seed in (0, 7, 11)]
        stacked = dp_optim.train_stack(spec, split, configs)
        reordered = dp_optim.train_stack(spec, split, configs[::-2])
        for config, model in zip(configs, stacked):
            oracle = trainer_parent.train(spec, split, config)
            assert model.steps_taken == 2 * (split.train.n // 64) > 2
            assert _same_model(model, oracle)
            assert _same_model(dp_optim.train(spec, split, config), oracle)
        for config, model in zip(configs[::-2], reordered):
            assert _same_model(model, stacked[configs.index(config)])


def test_train_stack_failure_leaves_companions_untouched():
    # A label outside {0, 1} stops exactly the models whose batch meets it,
    # with the error the per-model trainer raises; the others, whose
    # shuffles drop that record with the partial batch, equal their
    # training alone.
    c = make_cohort(n=240, d=3, years=(2001, 2002), seed=1)
    first = int(np.flatnonzero(c.years == 2001)[0])
    c.labels[first] = 2
    split = _split_of(c)
    configs = [dp_optim.DPTrainingConfig.from_level(
        "high", batch_size=64, microbatch_count=16, epochs=1, seed=s)
        for s in range(8)]
    assert split.train.n % 64 > 32
    stacked = dp_optim.train_stack({"family": "lr-binary"}, split, configs)
    failed = 0
    for config, model in zip(configs, stacked):
        try:
            oracle = trainer_parent.train({"family": "lr-binary"}, split,
                                          config)
        except DomainError as exc:
            failed += 1
            assert isinstance(model, DomainError)
            assert str(model) == str(exc)
            continue
        assert _same_model(model, oracle)
    assert 0 < failed < len(configs)


def test_train_stack_refuses_mixed_stacks():
    split = _split_of(make_cohort(n=200, d=3, years=(2001, 2002)))
    low = dp_optim.DPTrainingConfig.from_level("low")
    for other in (dp_optim.DPTrainingConfig.from_level("none"),
                  dataclasses.replace(low, learning_rate=0.2)):
        with pytest.raises(ConfigurationError, match="stacked models"):
            dp_optim.train_stack({"family": "lr-binary"}, split, [low, other])
