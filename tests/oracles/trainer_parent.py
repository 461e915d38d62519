"""Frozen per-model DP-SGD trainer, the bit-for-bit reference for the
stacked one.

A verbatim copy of the 2-D `_sigmoid`, `_softmax`, `_unpack_mlp`,
`_forward`, `predict`, `_backprop`, `_sq_weights`,
`loss_and_per_example_grads` and `clipped_grad_sum` of dp_tails.models, and
of `clip_gradient`, `_step`, `_AdamState` and `train` of dp_tails.dp_optim,
as they stood when every model trained alone, one `_step` per batch. The
only edits: names that stay in the package are qualified with their module
(`models.`, `dp_optim.`, `accountant.`), and the two calls of
`models.clipped_grad_sum` call this file's copy. The differential tests
require every stacked model to equal `train` here byte for byte, and
`models.predict` to equal `predict`; the clipped-sum tests use
`loss_and_per_example_grads` and `clip_gradient` as their oracle. Do not
edit it to follow the package.
"""

from __future__ import annotations

import math

import numpy as np

from dp_tails import accountant, dp_optim, models
from dp_tails.errors import (ConfigurationError, DomainError, NumericError,
                             ShapeError, TrainingError, config_from_dict)

_CLAMP = 1e-12


def _sigmoid(z):
    # e = exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, else e / (1 + e).
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _unpack_mlp(params):
    h, d = params.h, params.d
    t = params.theta
    W1 = t[: h * d].reshape(h, d)
    b1 = t[h * d: h * d + h]
    off = h * d + h
    W2 = t[off: off + 2 * h].reshape(2, h)
    b2 = t[off + 2 * h:]
    return W1, b1, W2, b2


def _forward(params, X):
    """Class probabilities (for lr-binary, P(y = 1) alone) and, for each
    layer in theta order, its (input a, weights W, a·Wᵀ); a layer's
    pre-activation is a·Wᵀ + bias."""
    t = params.theta
    if params.family == "lr-binary":
        aw = X @ t[:-1]
        return _sigmoid(aw + t[-1]), [(X, t[None, :-1], aw[:, None])]
    W1, b1, W2, b2 = _unpack_mlp(params)
    aw1 = X @ W1.T
    A1 = _sigmoid(aw1 + b1)
    aw2 = A1 @ W2.T
    return _softmax(aw2 + b2), [(X, W1, aw1), (A1, W2, aw2)]


def predict(params: models.ModelParams, features) -> np.ndarray:
    """Class probability matrix, one row per record, 2 columns."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.shape[1] != params.d:
        raise ShapeError(f"feature width {X.shape[1]} != d={params.d}")
    S = _forward(params, X)[0]
    return np.column_stack([1.0 - S, S]) if S.ndim == 1 else S


def _backprop(params, features, labels):
    """Mean cross-entropy and, for each layer in theta order,
    (delta, a, W, a·Wᵀ), where delta is the cross-entropy gradient with
    respect to the layer's pre-activation. Record i's loss gradient for the
    layer is the outer product delta_i ⊗ [a_i; 1], flattened as
    [W row-major, bias]; the ridge adds l2_lambda * W to the W part."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=np.int64).ravel()
    n = X.shape[0]
    if n == 0:
        raise DomainError("empty subset")
    if X.shape[1] != params.d:
        raise ShapeError(f"feature width {X.shape[1]} != d={params.d}")
    if y.min() < 0 or y.max() > 1:
        raise DomainError(f"labels must lie in [0,2) for {params.family}")

    S, layers = _forward(params, X)
    if params.family == "lr-binary":
        pc = np.clip(S, _CLAMP, 1.0 - _CLAMP)
        ce = -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))
        deltas = [(S - y)[:, None]]
    else:
        Sc = np.clip(S, _CLAMP, 1.0 - _CLAMP)
        ce = -np.log(Sc[np.arange(n), y])
        D = S.copy()
        D[np.arange(n), y] -= 1.0
        A1, W2, _ = layers[1]
        deltas = [(D @ W2) * A1 * (1.0 - A1), D]
    return (float(ce.sum() / n),
            [(D, A, W, aw) for D, (A, W, aw) in zip(deltas, layers)])


def _sq_weights(layers):
    """||theta_w||^2 over the regularized (non-bias) entries of theta, as
    one dot product in theta order."""
    w = np.concatenate([W.ravel() for _, _, W, _ in layers])
    return float(w @ w)


def loss_and_per_example_grads(params: models.ModelParams, features, labels,
                               include_ridge=True):
    """Mean cross-entropy (+ ridge on weights) and the n x |theta| matrix
    of per-record loss gradients.

    With include_ridge, the full ridge gradient is added to every row so
    the row mean equals the gradient of the regularized mean loss.
    """
    loss, layers = _backprop(params, features, labels)
    lam = params.l2_lambda if include_ridge else 0.0
    if lam > 0:
        loss += 0.5 * lam * _sq_weights(layers)
    n = layers[0][0].shape[0]
    return loss, np.column_stack([
        block for D, A, W, _ in layers
        for block in (np.einsum("no,ni->noi", D, A).reshape(n, -1)
                      + lam * W.ravel(), D)])


def clipped_grad_sum(params: models.ModelParams, features, labels, clip_norm,
                     microbatch_count):
    """DP-SGD's pre-noise gradient of one batch, without the n x |theta|
    matrix of per-record gradients.

    The batch splits into `microbatch_count` equal consecutive units, each
    with gradient the mean over its records of the regularized loss
    gradient. Returns (mean regularized loss, the sum of the unit gradients
    each rescaled to norm <= clip_norm, the units' pre-clip norms). With
    clip_norm None nothing is clipped and the norms are None.

    A record's gradient for a layer is delta_i ⊗ [a_i; 1], so per record
    ||g_i||^2 sums ||delta_i||^2 (||a_i||^2 + 1) over layers, plus the ridge
    cross term 2 lambda delta_iᵀ W a_i + lambda^2 ||theta_w||^2 (Goodfellow
    2015, arXiv:1510.01799); fewer units form their m x |theta| means. The
    sum is then one matmul per layer with per-record weights.
    """
    loss, layers = _backprop(params, features, labels)
    n = layers[0][0].shape[0]
    m = microbatch_count
    if m < 1 or n % m != 0:
        raise ConfigurationError("microbatch_count must divide batch size")
    if clip_norm is not None and clip_norm <= 0:
        raise DomainError("clip norm must be > 0")
    lam = params.l2_lambda
    sq_weights = _sq_weights(layers) if lam > 0 else 0.0
    loss += 0.5 * lam * sq_weights

    norms = None
    if clip_norm is not None and m == n:
        sq = lam * lam * sq_weights
        for D, A, _, aw in layers:
            sq = sq + (np.einsum("no,no->n", D, D)
                       * (np.einsum("ni,ni->n", A, A) + 1.0)
                       + 2.0 * lam * np.einsum("no,no->n", D, aw))
        norms = np.sqrt(np.maximum(sq, 0.0))
    elif clip_norm is not None:
        b = n // m
        blocks = []
        for D, A, W, _ in layers:
            Dm = D.reshape(m, b, -1)
            blocks += [np.einsum("mbo,mbi->moi", Dm, A.reshape(m, b, -1))
                       .reshape(m, -1) / b + lam * W.ravel(),
                       Dm.sum(axis=1) / b]
        means = np.concatenate(blocks, axis=1)
        norms = np.sqrt((means * means).sum(axis=1))
    unit_weights = (np.ones(m) if norms is None
                    else 1.0 / np.maximum(1.0, norms / clip_norm))
    weights = np.repeat(unit_weights * (m / n), n // m)
    blocks = []
    for D, A, W, _ in layers:
        Dw = D * weights[:, None]
        blocks += [(Dw.T @ A + weights.sum() * lam * W).ravel(),
                   Dw.sum(axis=0)]
    return loss, np.concatenate(blocks), norms


def clip_gradient(g, clip_norm):
    """Rescale g, or each row of a matrix g, to norm <= clip_norm,
    preserving direction: the per-unit clipping that
    clipped_grad_sum applies, kept as the tests' reference."""
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient")
    if clip_norm <= 0:
        raise DomainError("clip norm must be > 0")
    norms = np.linalg.norm(g, axis=-1, keepdims=True)
    return g / np.maximum(1.0, norms / clip_norm)


def _step(params, features, labels, config, rng, adam=None, epoch=None):
    """One gradient pass, a finite-loss check, a finite-gradient check, then
    noise and update. Returns (updated params, batch loss)."""
    m = config.microbatch_count if config.private else 1
    loss, total, norms = clipped_grad_sum(
        params, features, labels, config.clip_norm, m)
    if not math.isfinite(loss):
        raise TrainingError("training diverged (non-finite loss)", epoch=epoch)
    if not (np.isfinite(total).all()
            and (norms is None or np.isfinite(norms).all())):
        raise NumericError("non-finite gradient")
    if config.private and config.noise_multiplier > 0:
        total = total + rng.normal(
            scale=config.noise_multiplier * config.clip_norm,
            size=total.shape)
    g = total / m
    if adam is not None:
        g = adam.direction(g)
    return params.copy_with(params.theta - config.learning_rate * g), loss


class _AdamState:
    def __init__(self, size, beta1=0.9, beta2=0.999, eps_hat=1e-8):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.beta1, self.beta2, self.eps_hat = beta1, beta2, eps_hat

    def direction(self, g):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1 ** self.t)
        vhat = self.v / (1 - self.beta2 ** self.t)
        return mhat / (np.sqrt(vhat) + self.eps_hat)


def train(family_spec, split, config: dp_optim.DPTrainingConfig) -> dp_optim.TrainedModel:
    """Train on the split's train side with shuffled fixed-size batches.

    family_spec: a models.FamilySpec, or a JSON object of its fields
    (family, h, l2_lambda), loaded and checked by config_from_dict; the
    input dimension is taken from the data.
    """
    if not isinstance(family_spec, models.FamilySpec):
        family_spec = config_from_dict(models.FamilySpec, family_spec,
                                       "family_spec")
    train_cohort = split.train
    n = train_cohort.n
    if n == 0:
        raise DomainError("empty training cohort")
    X = train_cohort.features
    y = train_cohort.labels

    params = models.init_params(family_spec.family, X.shape[1],
                                family_spec.h, family_spec.l2_lambda,
                                seed=config.seed)

    L = min(config.batch_size, n)
    if L < config.batch_size and L % config.microbatch_count != 0:
        raise ConfigurationError(
            "batch_size exceeds cohort size and microbatch_count does not "
            "divide the reduced batch")
    steps_per_epoch = n // L
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
    adam = _AdamState(params.theta.shape[0]) if config.optimizer == "adam" else None

    trace = []
    steps = 0
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        for b in range(steps_per_epoch):
            idx = perm[b * L:(b + 1) * L]
            params, loss = _step(params, X[idx], y[idx], config, rng,
                                 adam=adam, epoch=epoch)
            epoch_losses.append(loss)
            steps += 1
        trace.append(float(np.mean(epoch_losses)) if epoch_losses else math.nan)

    if not config.private:
        spend = accountant.PrivacySpend(epsilon=math.inf, delta=0.0)
        log = {"q": None, "sigma": None, "steps": steps, "delta": 0.0,
               "caveats": ["non-private run"]}
    elif config.noise_multiplier == 0.0 and steps > 0:
        spend = accountant.PrivacySpend(epsilon=math.inf, delta=0.0)
        log = {"q": L / n, "sigma": 0.0, "steps": steps, "delta": 0.0,
               "caveats": ["clipping without noise carries no finite guarantee"]}
    else:
        spend, log = accountant.spend_for_training(
            q=L / n, sigma=config.noise_multiplier, steps=steps,
            delta=config.delta)
    return dp_optim.TrainedModel(params=params, spend=spend, training_trace=trace,
                        steps_taken=steps, mechanism="dp-sgd",
                        accounting_log=log)
