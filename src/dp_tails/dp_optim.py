"""Non-private SGD/Adam and differentially private training with
per-microbatch clipping and Gaussian noise.

A step splits the minibatch into `microbatch_count` equal microbatches,
clips each microbatch-mean gradient to norm C, sums, adds N(0, sigma^2 C^2 I),
and divides by the microbatch count. microbatch_count = batch_size gives
true per-example clipping. `models.clipped_grad_sum` returns the clipped
sum straight from per-layer matmuls, so no step forms the batch's
per-example gradient matrix. The last partial batch of every epoch is
dropped so the accountant's sampling rate q = L/n is exact.

`train_stack` trains R models of one family on one split at once: theta is
(R, p), a step's batch (R, L, d), and every numpy call of the step covers
the whole stack, while each model keeps its own seed-derived generator,
permutations and noise draws. At small batches a step's cost is numpy's
per-call overhead, so a stack of R costs far less than R separate
trainings. `train` is the same trainer at R = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import accountant, models
from .cohort import CohortSplit
from .errors import (ConfigurationError, DomainError, DPTailsError,
                     NumericError, TrainingError, config_from_dict)

PRIVACY_LEVELS = {
    "none": (None, 0.0),
    "low": (5.0, 0.1),
    "high": (1.0, 1.0),
}


@dataclass
class DPTrainingConfig:
    clip_norm: float | None = None
    noise_multiplier: float = 0.0
    batch_size: int = 64
    microbatch_count: int = 16
    learning_rate: float = 0.1
    epochs: int = 10
    optimizer: str = "sgd"
    seed: int = 0
    delta: float = accountant.DEFAULT_DELTA

    def __post_init__(self):
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigurationError("clip_norm: must be > 0 or absent")
        if self.noise_multiplier < 0:
            raise ConfigurationError("noise_multiplier: must be >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigurationError("batch_size/epochs: must be positive")
        if (self.microbatch_count < 1
                or self.batch_size % self.microbatch_count != 0):
            raise ConfigurationError(
                "microbatch_count: must be >= 1 and divide batch_size")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate: must be > 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError("optimizer: must be sgd or adam")

    @classmethod
    def from_level(cls, name, **kwargs):
        """Config of a named privacy level, which alone sets clip_norm and
        noise_multiplier; kwargs set the other fields."""
        if not isinstance(name, str) or name not in PRIVACY_LEVELS:
            raise ConfigurationError(f"unknown privacy level {name!r}")
        bound = sorted({"clip_norm", "noise_multiplier"} & set(kwargs))
        if bound:
            raise ConfigurationError(
                f"training: {bound} set by privacy_level {name!r}")
        clip, sigma = PRIVACY_LEVELS[name]
        return config_from_dict(
            cls, {**kwargs, "clip_norm": clip, "noise_multiplier": sigma},
            "training")

    @property
    def private(self):
        return self.clip_norm is not None


@dataclass
class TrainedModel:
    params: models.ModelParams
    spend: accountant.PrivacySpend
    training_trace: list
    steps_taken: int
    mechanism: str = "dp-sgd"
    accounting_log: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "spend": self.spend.to_dict(),
            "training_trace": self.training_trace,
            "steps_taken": self.steps_taken,
            "mechanism": self.mechanism,
            "accounting_log": self.accounting_log,
        }


class _AdamState:
    def __init__(self, shape, beta1=0.9, beta2=0.999, eps_hat=1e-8):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.beta1, self.beta2, self.eps_hat = beta1, beta2, eps_hat

    def direction(self, g):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1 ** self.t)
        vhat = self.v / (1 - self.beta2 ** self.t)
        return mhat / (np.sqrt(vhat) + self.eps_hat)


# DPTrainingConfig fields (and the property `private`) every model of a
# stack shares; seed, clip_norm, noise_multiplier and delta may differ.
_SHARED = ("batch_size", "microbatch_count", "learning_rate", "epochs",
           "optimizer", "private")


class _Stack:
    """The models of a stack still training. Row i of every stacked array
    belongs to model index[i]; per-model lists are indexed by model."""

    def __init__(self, configs, theta):
        self.index = np.arange(len(configs))
        self.theta = theta
        self.clip = (np.array([c.clip_norm for c in configs])
                     if configs[0].private else None)
        self.adam = (_AdamState(theta.shape)
                     if configs[0].optimizer == "adam" else None)
        self.perms = None
        self.rngs = [np.random.default_rng(np.random.SeedSequence([c.seed, 2]))
                     for c in configs]
        self.noise = [c.noise_multiplier * c.clip_norm
                      if c.private and c.noise_multiplier > 0 else None
                      for c in configs]
        self.errors = [None] * len(configs)
        self.losses = [[] for _ in configs]
        self.traces = [[] for _ in configs]

    def drop(self, failed, error, *arrays):
        """Record `error` for the rows flagged in `failed` and remove them
        from the stack; returns `arrays` without those rows."""
        for r in self.index[failed]:
            self.errors[r] = error
        keep = ~failed
        self.index, self.theta, self.clip, self.perms = (
            _rows(a, keep) for a in (self.index, self.theta, self.clip,
                                     self.perms))
        if self.adam is not None:
            self.adam.m, self.adam.v = self.adam.m[keep], self.adam.v[keep]
        return [_rows(a, keep) for a in arrays]


def _rows(a, keep):
    return None if a is None else a[keep]


def _step(stack, family_spec, X, y, config, epoch):
    """One DP-SGD step of every model in the non-empty `stack`, row r on
    its batch X[r], y[r]: one gradient pass, then per model a finite-loss
    check and a finite-gradient check (a model failing one leaves the
    stack, the others go on untouched), then each model's own noise draw
    and the update."""
    m = config.microbatch_count if config.private else 1
    loss, total, norms = models.clipped_grad_sum(
        family_spec, stack.theta, X, y, stack.clip, m)
    failed = ~np.isfinite(loss)
    if failed.any():
        loss, total, norms = stack.drop(
            failed, TrainingError("training diverged (non-finite loss)",
                                  epoch=epoch), loss, total, norms)
    failed = ~np.isfinite(total).all(axis=1)
    if norms is not None:
        failed |= ~np.isfinite(norms).all(axis=1)
    if failed.any():
        loss, total, norms = stack.drop(
            failed, NumericError("non-finite gradient"), loss, total, norms)
    for row, r in enumerate(stack.index):
        stack.losses[r].append(float(loss[row]))
        if stack.noise[r] is not None:
            total[row] = total[row] + stack.rngs[r].normal(
                scale=stack.noise[r], size=total.shape[1])
    g = total / m
    if stack.adam is not None:
        g = stack.adam.direction(g)
    stack.theta = stack.theta - config.learning_rate * g


def train_stack(family_spec, split: CohortSplit, configs):
    """Train one model per config on the split's train side with shuffled
    fixed-size batches, every step one stacked pass over all models.

    The configs may differ only in seed, clip_norm, noise_multiplier and
    delta, and must be all private or all not. Each model keeps its own
    init and generator (SeedSequence([seed, 2])), permutation per epoch and
    noise draw per step, so it gets the bits it would get alone. Returns
    per config its TrainedModel, or the DPTailsError that stopped it (a bad
    label, a non-finite loss or gradient, its accounting), which leaves the
    other models untouched; errors common to all models are raised.

    family_spec: a models.FamilySpec, or a JSON object of its fields
    (family, h, l2_lambda), loaded and checked by config_from_dict; the
    input dimension is taken from the data.
    """
    if not isinstance(family_spec, models.FamilySpec):
        family_spec = config_from_dict(models.FamilySpec, family_spec,
                                       "family_spec")
    config = configs[0]
    for other in configs[1:]:
        for name in _SHARED:
            if getattr(other, name) != getattr(config, name):
                raise ConfigurationError(
                    f"training: stacked models differ in {name!r}")
    train_cohort = split.train
    n = train_cohort.n
    if n == 0:
        raise DomainError("empty training cohort")
    X = train_cohort.features
    y = train_cohort.labels
    d = X.shape[1]

    L = min(config.batch_size, n)
    if L < config.batch_size and L % config.microbatch_count != 0:
        raise ConfigurationError(
            "batch_size exceeds cohort size and microbatch_count does not "
            "divide the reduced batch")
    steps_per_epoch = n // L
    stack = _Stack(configs, np.stack([
        models.init_params(family_spec.family, d, family_spec.h,
                           family_spec.l2_lambda, seed=c.seed).theta
        for c in configs]))

    for epoch in range(config.epochs):
        if not len(stack.index):
            break
        stack.perms = np.stack([stack.rngs[r].permutation(n)
                                for r in stack.index])
        for r in stack.index:
            stack.losses[r] = []
        for b in range(steps_per_epoch):
            idx = stack.perms[:, b * L:(b + 1) * L]
            Xb, yb = X[idx], y[idx]
            failed = (yb.min(axis=1) < 0) | (yb.max(axis=1) > 1)
            if failed.any():
                Xb, yb = stack.drop(
                    failed, models.label_error(family_spec.family), Xb, yb)
            # A stack emptied by this batch's labels or an earlier step's
            # divergence takes no further step.
            if not len(stack.index):
                break
            _step(stack, family_spec, Xb, yb, config, epoch)
        for r in stack.index:
            stack.traces[r].append(float(np.mean(stack.losses[r]))
                                   if stack.losses[r] else math.nan)
    steps = config.epochs * steps_per_epoch

    results = list(stack.errors)
    for row, r in enumerate(stack.index):
        try:
            spend, log = _account(configs[r], L / n, steps)
        except DPTailsError as exc:
            results[r] = exc
            continue
        results[r] = TrainedModel(
            params=models.ModelParams(family_spec.family, stack.theta[row],
                                      d, family_spec.h,
                                      family_spec.l2_lambda),
            spend=spend, training_trace=stack.traces[r], steps_taken=steps,
            mechanism="dp-sgd", accounting_log=log)
    return results


def _account(config, q, steps):
    if not config.private:
        return (accountant.PrivacySpend(epsilon=math.inf, delta=0.0),
                {"q": None, "sigma": None, "steps": steps, "delta": 0.0,
                 "caveats": ["non-private run"]})
    if config.noise_multiplier == 0.0 and steps > 0:
        return (accountant.PrivacySpend(epsilon=math.inf, delta=0.0),
                {"q": q, "sigma": 0.0, "steps": steps, "delta": 0.0,
                 "caveats": ["clipping without noise carries no finite "
                             "guarantee"]})
    return accountant.spend_for_training(
        q=q, sigma=config.noise_multiplier, steps=steps, delta=config.delta)


def train(family_spec, split: CohortSplit, config: DPTrainingConfig) -> TrainedModel:
    """Train one model: train_stack at R = 1, its error raised."""
    trained, = train_stack(family_spec, split, [config])
    if isinstance(trained, DPTailsError):
        raise trained
    return trained
