"""Non-private SGD/Adam and differentially private training with
per-microbatch clipping and Gaussian noise.

A step splits the minibatch into `microbatch_count` equal microbatches,
clips each microbatch-mean gradient to norm C, sums, adds N(0, sigma^2 C^2 I),
and divides by the microbatch count. microbatch_count = batch_size gives
true per-example clipping. `models.clipped_grad_sum` returns the clipped
sum straight from per-layer matmuls, so no step forms the batch's
per-example gradient matrix. The last partial batch of every epoch is
dropped so the accountant's sampling rate q = L/n is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import accountant, models
from .cohort import CohortSplit
from .errors import (ConfigurationError, DomainError, NumericError,
                     TrainingError, config_from_dict)

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


def clip_gradient(g, clip_norm):
    """Rescale g, or each row of a matrix g, to norm <= clip_norm,
    preserving direction: the per-unit clipping that
    models.clipped_grad_sum applies, kept as the tests' reference."""
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
    loss, total, norms = models.clipped_grad_sum(
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


def train(family_spec, split: CohortSplit, config: DPTrainingConfig) -> TrainedModel:
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
    return TrainedModel(params=params, spend=spend, training_trace=trace,
                        steps_taken=steps, mechanism="dp-sgd",
                        accounting_log=log)
