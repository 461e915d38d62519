import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dp_tails import dp_optim, models
from dp_tails.errors import (ConfigurationError, DomainError,
                             OptimizationError, ShapeError,
                             UnsupportedFamilyError)


def _random_params(family, d, rng, h=4, l2_lambda=0.0):
    p = models.param_count(family, d, h)
    return models.ModelParams(family, rng.normal(scale=0.5, size=p),
                              d, h, l2_lambda)


def _fd_gradient(params, x, y, step=1e-5):
    grad = np.zeros_like(params.theta)
    for j in range(len(params.theta)):
        up = params.theta.copy()
        dn = params.theta.copy()
        up[j] += step
        dn[j] -= step
        lu, _ = models.loss_and_per_example_grads(params.copy_with(up), [x], [y])
        ld, _ = models.loss_and_per_example_grads(params.copy_with(dn), [x], [y])
        grad[j] = (lu - ld) / (2 * step)
    return grad


def test_predict_zero_theta_binary():
    params = models.init_params("lr-binary", 3)
    scores = models.predict(params, np.ones((5, 3)))
    assert np.allclose(scores, 0.5)


def test_predict_rows_sum_to_one(rng):
    for family in models.FAMILIES:
        params = _random_params(family, 4, rng)
        X = rng.normal(size=(20, 4))
        scores = models.predict(params, X)
        assert np.all(scores >= 0) and np.all(scores <= 1)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_predict_shape_error():
    params = models.init_params("lr-binary", 3)
    with pytest.raises(ShapeError):
        models.predict(params, np.ones((5, 4)))


def test_loss_ln2_at_zero_theta():
    params = models.init_params("lr-binary", 2)
    X = np.random.default_rng(0).normal(size=(10, 2))
    y = np.array([0, 1] * 5)
    loss, _ = models.loss_and_per_example_grads(params, X, y)
    assert abs(loss - np.log(2)) < 1e-9


def test_gradient_matches_finite_differences(rng):
    for family in models.FAMILIES:
        for _ in range(100):
            params = _random_params(family, 3, rng,
                                    l2_lambda=float(rng.uniform(0, 0.5)))
            x = rng.normal(size=3)
            y = int(rng.integers(2))
            _, G = models.loss_and_per_example_grads(params, [x], [y])
            fd = _fd_gradient(params, x, y)
            assert np.max(np.abs(G[0] - fd)) <= 1e-5


def test_single_record_closed_form(rng):
    params = _random_params("lr-binary", 4, rng, l2_lambda=0.0)
    x = rng.normal(size=4)
    p = models.predict(params, [x])[0, 1]
    for y in (0, 1):
        _, G = models.loss_and_per_example_grads(params, [x], [y])
        expected = (p - y) * np.append(x, 1.0)
        assert np.allclose(G[0], expected, atol=1e-12)


def test_ridge_rows_mean_to_full_batch_gradient(rng):
    params = _random_params("lr-binary", 3, rng, l2_lambda=0.3)
    X = rng.normal(size=(40, 3))
    y = rng.integers(2, size=40)
    loss, G = models.loss_and_per_example_grads(params, X, y)
    step = 1e-6
    fd = np.zeros_like(params.theta)
    for j in range(len(params.theta)):
        up, dn = params.theta.copy(), params.theta.copy()
        up[j] += step
        dn[j] -= step
        lu, _ = models.loss_and_per_example_grads(params.copy_with(up), X, y)
        ld, _ = models.loss_and_per_example_grads(params.copy_with(dn), X, y)
        fd[j] = (lu - ld) / (2 * step)
    assert np.max(np.abs(G.mean(axis=0) - fd)) <= 1e-4


def test_empty_subset_error():
    params = models.init_params("lr-binary", 3)
    with pytest.raises(DomainError):
        models.loss_and_per_example_grads(params, np.empty((0, 3)), [])


@st.composite
def _clipping_cases(draw):
    family = draw(st.sampled_from(models.FAMILIES))
    n = draw(st.integers(1, 12))
    m = draw(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]))
    lam = draw(st.sampled_from([0.0, 0.3]))
    clip_norm = draw(st.one_of(st.none(), st.floats(1e-3, 1e3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = int(rng.integers(1, 5))
    params = _random_params(family, d, rng, h=4, l2_lambda=lam)
    X = rng.normal(size=(n, d)) * rng.lognormal(0.0, 2.0, size=(n, 1))
    y = rng.integers(2, size=n)
    return params, X, y, clip_norm, m


@settings(max_examples=50, deadline=None)
@given(case=_clipping_cases())
def test_clipped_grad_sum_matches_per_example_oracle(case):
    # Oracle: the n x |theta| per-record matrix, averaged into microbatches
    # and clipped row by row with clip_gradient.
    params, X, y, clip_norm, m = case
    loss, total, norms = models.clipped_grad_sum(params, X, y, clip_norm, m)
    ref_loss, G = models.loss_and_per_example_grads(params, X, y)
    means = G.reshape(m, X.shape[0] // m, -1).mean(axis=1)
    assert loss == ref_loss
    if clip_norm is None:
        assert norms is None
        rows = means
    else:
        np.testing.assert_allclose(norms, np.linalg.norm(means, axis=1),
                                   rtol=1e-12, atol=0)
        rows = dp_optim.clip_gradient(means, clip_norm)
    np.testing.assert_allclose(total, rows.sum(axis=0), rtol=1e-12,
                               atol=1e-12 * np.abs(rows).sum())


def test_clipped_grad_sum_errors(rng):
    params = models.init_params("lr-binary", 3)
    X, y = rng.normal(size=(6, 3)), rng.integers(2, size=6)
    for m in (0, 4):
        with pytest.raises(ConfigurationError):
            models.clipped_grad_sum(params, X, y, 1.0, m)
    with pytest.raises(DomainError):
        models.clipped_grad_sum(params, X, y, 0.0, 3)


def test_hessian_closed_form_single_record():
    params = models.init_params("lr-binary", 1)
    H = models.lr_hessian(params, [[1.0]])
    assert np.allclose(H, 0.25 * np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-12)


def test_hessian_ridge_eigenvalue_floor(rng):
    params = _random_params("lr-binary", 4, rng, l2_lambda=0.2)
    X = rng.normal(size=(30, 4))
    H = models.lr_hessian(params, X, damping=0.05)
    assert np.linalg.eigvalsh(H).min() >= 0.25 - 1e-9


def test_hessian_matches_finite_differences(rng):
    params = _random_params("lr-binary", 3, rng, l2_lambda=0.1)
    X = rng.normal(size=(50, 3))
    y = rng.integers(2, size=50)
    # The Hessian regularizes every coordinate including the bias; compare
    # against finite differences of the matching objective.
    lam = params.l2_lambda

    def full_grad(theta):
        p = params.copy_with(theta)
        _, G = models.loss_and_per_example_grads(p, X, y)
        g = G.mean(axis=0)
        g[-1] += lam * theta[-1]
        return g

    step = 1e-5
    p_dim = len(params.theta)
    fd = np.zeros((p_dim, p_dim))
    for j in range(p_dim):
        up, dn = params.theta.copy(), params.theta.copy()
        up[j] += step
        dn[j] -= step
        fd[:, j] = (full_grad(up) - full_grad(dn)) / (2 * step)
    H = models.lr_hessian(params, X)
    assert np.max(np.abs(H - fd)) <= 1e-4


def test_hessian_gradient_consistency(rng):
    params = _random_params("lr-binary", 4, rng, l2_lambda=0.1)
    X = rng.normal(size=(60, 4))
    y = rng.integers(2, size=60)
    lam = params.l2_lambda

    def full_grad(theta):
        p = params.copy_with(theta)
        _, G = models.loss_and_per_example_grads(p, X, y)
        g = G.mean(axis=0)
        g[-1] += lam * theta[-1]
        return g

    H = models.lr_hessian(params, X)
    for _ in range(5):
        v = rng.normal(size=len(params.theta))
        v /= np.linalg.norm(v)
        step = 1e-5
        directional = (full_grad(params.theta + step * v)
                       - full_grad(params.theta - step * v)) / (2 * step)
        assert np.max(np.abs(directional - H @ v)) <= 1e-4


def test_hessian_non_lr_family_error():
    params = models.init_params("mlp-1", 3)
    with pytest.raises(UnsupportedFamilyError):
        models.lr_hessian(params, np.ones((2, 3)))


def test_midpoint_convexity(rng):
    params = _random_params("lr-binary", 3, rng, l2_lambda=0.2)
    X = rng.normal(size=(40, 3))
    y = rng.integers(2, size=40)

    def objective(theta):
        loss, _ = models.loss_and_per_example_grads(params.copy_with(theta), X, y)
        return loss

    for _ in range(10):
        a = rng.normal(size=len(params.theta))
        b = rng.normal(size=len(params.theta))
        mid = objective((a + b) / 2.0)
        assert mid <= (objective(a) + objective(b)) / 2.0 + 1e-9


def test_params_json_round_trip(rng):
    params = _random_params("mlp-1", 4, rng, h=3, l2_lambda=0.05)
    back = models.ModelParams.from_dict(
        json.loads(json.dumps(params.to_dict())))
    assert back.family == params.family
    assert back.d == params.d and back.h == params.h
    assert np.array_equal(back.theta, params.theta)
    assert back.l2_lambda == params.l2_lambda


def test_fit_lr_newton_recovers_signal(rng):
    n, d = 400, 3
    X = rng.normal(size=(n, d))
    w = np.array([2.0, -1.0, 0.5])
    y = (rng.random(n) < models._sigmoid(X @ w)).astype(int)
    params = models.fit_lr_newton(X, y, l2_lambda=1e-3)
    p = models.predict(params, X)[:, 1]
    acc = float(np.mean((p >= 0.5) == y))
    assert acc >= 0.75
    # Optimality: gradient of the fitted objective is ~0.
    _, G = models.loss_and_per_example_grads(params, X, y)
    grad = G.mean(axis=0)
    grad[-1] += params.l2_lambda * params.theta[-1]
    assert np.linalg.norm(grad) <= 1e-8


def test_fit_lr_newton_linear_term_and_tolerance_error(rng):
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] > 0).astype(int)
    c = rng.normal(scale=0.1, size=4)
    params = models.fit_lr_newton(X, y, l2_lambda=0.1, linear=c)
    _, G = models.loss_and_per_example_grads(params, X, y)
    grad = G.mean(axis=0) + c
    grad[-1] += params.l2_lambda * params.theta[-1]
    assert np.linalg.norm(grad) <= 1e-10
    with pytest.raises(OptimizationError):
        models.fit_lr_newton(X, y, l2_lambda=0.1, max_iter=1)
