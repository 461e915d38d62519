"""Non-private SGD/Adam and differentially private training with
per-microbatch clipping and Gaussian noise.

A step splits the minibatch into `microbatch_count` equal microbatches,
clips each microbatch-mean gradient to norm C, sums, adds N(0, sigma^2 C^2 I),
and divides by the microbatch count. microbatch_count = batch_size gives
true per-example clipping. `models.clipped_grad_sum` returns the clipped
sum straight from per-layer matmuls, so no step forms the batch's
per-example gradient matrix. The last partial batch of every epoch is
dropped so the accountant's sampling rate q = L/n is exact. Every label is
0 or 1, as `cohort.Cohort` guarantees, so no step checks them.

`train_stack` trains any list of models of one family, each on its own
records of one cohort (the grid's models of every level, seed and pivot
year together). It alone decides which models share a lockstep stack:
those equal in the optimizer settings and in the batch size L, private or
not. In a stack of R models theta is (R, p), a step's batch (R, L, d), and
every numpy call of the step covers the whole stack, while each model
keeps its own seed-derived generator, permutations and noise draws; one
with fewer records (fewer steps) leaves the stack when it is done. A
non-private model in a stack is one unclipped unit per batch (each record
weighted 1/L, divided by 1), as it is trained alone, and draws no noise.
At small batches a step's cost is numpy's per-call overhead, so a stack of
R costs far less than R separate trainings. `train` is the same trainer
for one model.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import accountant, models
from .cohort import Cohort, CohortSplit
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
        # A stack reads an infinite clip norm as a non-private model.
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ConfigurationError(
                "clip_norm: must be finite and > 0, or absent")
        if self.noise_multiplier < 0:
            raise ConfigurationError("noise_multiplier: must be >= 0")
        if self.noise_multiplier > 0 and self.clip_norm is None:
            raise ConfigurationError(
                "noise_multiplier: > 0 needs a clip_norm to scale the noise")
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
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")
        if not 0 < self.delta < 1:
            raise ConfigurationError("delta: must lie in (0,1)")

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


# DPTrainingConfig fields every model of a lockstep stack shares, with the
# batch size L; seed, clip_norm, noise_multiplier and delta may differ, so
# private and non-private models share a stack.
_SHARED = ("batch_size", "microbatch_count", "learning_rate", "epochs",
           "optimizer")


class _Stack:
    """The models of a stack still training. Row i of every stacked array
    belongs to model index[i]; per-model lists are indexed by model. A
    non-private model has clip norm inf and one unit per batch, a private
    one its clip norm and microbatch_count units."""

    def __init__(self, configs, theta):
        self.index = np.arange(len(configs))
        self.theta = theta
        self.clip = np.array([c.clip_norm if c.private else np.inf
                              for c in configs])
        self.units = np.array([c.microbatch_count if c.private else 1
                               for c in configs], dtype=float)
        self.adam = (_AdamState(theta.shape)
                     if configs[0].optimizer == "adam" else None)
        self.rngs = [np.random.default_rng(np.random.SeedSequence([c.seed, 2]))
                     for c in configs]
        self.noise = [c.noise_multiplier * c.clip_norm
                      if c.private and c.noise_multiplier > 0 else None
                      for c in configs]
        self.errors = [None] * len(configs)
        self.final = [None] * len(configs)
        self.losses = [[] for _ in configs]
        self.traces = [[] for _ in configs]

    def drop(self, leaving, errors, *arrays):
        """Remove the rows flagged in `leaving` from the stack, recording
        per row its entry of `errors`: the DPTailsError that stopped its
        model, or None for a model whose training is done, whose theta is
        kept. Returns `arrays` without those rows."""
        for row, error in zip(np.flatnonzero(leaving), errors):
            r = self.index[row]
            self.errors[r], self.final[r] = error, self.theta[row]
        keep = ~leaving
        self.index, self.theta, self.clip, self.units = (
            a[keep] for a in (self.index, self.theta, self.clip, self.units))
        if self.adam is not None:
            self.adam.m, self.adam.v = self.adam.m[keep], self.adam.v[keep]
        return [a[keep] for a in arrays]


def _step(stack, family_spec, X, y, config, epochs):
    """One DP-SGD step of every model in the non-empty `stack`, row r on
    its batch X[r], y[r] in its epoch epochs[r]: one gradient pass; one
    drop of each model whose loss (TrainingError at its epoch) or else
    gradient or, if it clips, pre-clip norm (NumericError) is not finite,
    the others untouched; then each private model's own noise draw and the
    update, each model's sum divided by its unit count."""
    loss, total, norms = models.clipped_grad_sum(
        family_spec, stack.theta, X, y, stack.clip, config.microbatch_count)
    diverged = ~np.isfinite(loss)
    failed = diverged | ~np.isfinite(total).all(axis=1)
    if norms is not None:
        failed |= ~np.isfinite(norms).all(axis=1) & (stack.clip < np.inf)
    if failed.any():
        errors = [TrainingError("training diverged (non-finite loss)",
                                epoch=int(e)) if bad
                  else NumericError("non-finite gradient")
                  for bad, e in zip(diverged[failed], epochs[failed])]
        loss, total = stack.drop(failed, errors, loss, total)
    noisy, draws = [], []
    for row, (r, value) in enumerate(zip(stack.index.tolist(),
                                         loss.tolist())):
        stack.losses[r].append(value)
        if stack.noise[r] is not None:
            noisy.append(row)
            draws.append(stack.rngs[r].normal(scale=stack.noise[r],
                                              size=total.shape[1]))
    if noisy:
        total[noisy] += draws
    g = total / stack.units[:, None]
    if stack.adam is not None:
        g = stack.adam.direction(g)
    stack.theta = stack.theta - config.learning_rate * g


def train_stack(family_spec, cohort: Cohort, configs, rows=None):
    """Train one model per config, model r on the records rows[r] of
    `cohort` (default: every record), with shuffled fixed-size batches.
    Returns per config, in input order, its TrainedModel or the DPTailsError
    that stopped it.

    The models train in lockstep stacks, one per distinct value of the
    fields a stack shares (`_SHARED`) and the batch size
    L = min(batch_size, n_r): global step t of a stack is one stacked pass
    over every member that has steps left, each on its own next batch.
    Model r has its own n_r records, sampling rate q_r = L / n_r and
    n_r // L steps per epoch, and leaves its stack when its epochs are done.
    Each model keeps its own init and generator (SeedSequence([seed, 2])),
    permutation per epoch and noise draw per step, so it gets the bits it
    would get alone. An error of one model (a non-finite loss or gradient,
    its accounting) leaves the others untouched; an error that stops a
    whole stack (an empty row set, a microbatch count that does not divide
    the reduced batch) is every member's result. The labels are not checked
    here: `cohort.Cohort` holds only 0 and 1.

    family_spec: a models.FamilySpec, or a JSON object of its fields
    (family, h, l2_lambda), loaded and checked by config_from_dict; the
    input dimension is taken from the data.
    """
    if not isinstance(family_spec, models.FamilySpec):
        family_spec = config_from_dict(models.FamilySpec, family_spec,
                                       "family_spec")
    if rows is None:
        rows = [np.arange(cohort.n)] * len(configs)
    stacks = {}
    for r, (config, own) in enumerate(zip(configs, rows)):
        key = tuple(getattr(config, name) for name in _SHARED)
        stacks.setdefault((*key, min(config.batch_size, len(own))),
                          []).append(r)
    results = [None] * len(configs)
    for members in stacks.values():
        try:
            trained = _train_lockstep(family_spec, cohort,
                                      [configs[r] for r in members],
                                      [rows[r] for r in members])
        except DPTailsError as exc:
            trained = [exc] * len(members)
        for r, result in zip(members, trained):
            results[r] = result
    return results


def _train_lockstep(family_spec, cohort, configs, rows):
    """train_stack's results for one stack: configs equal in `_SHARED` and
    in L = min(batch_size, n_r)."""
    config = configs[0]
    n = np.array([len(r) for r in rows])
    if not n.all():
        raise DomainError("empty training cohort")
    X = cohort.features
    y = cohort.labels
    d = X.shape[1]

    L = min(config.batch_size, int(n[0]))
    if L < config.batch_size and L % config.microbatch_count != 0:
        raise ConfigurationError(
            "batch_size exceeds cohort size and microbatch_count does not "
            "divide the reduced batch")
    steps_per_epoch = n // L
    steps = config.epochs * steps_per_epoch
    stack = _Stack(configs, np.stack([
        models.init_params(family_spec.family, d, family_spec.h,
                           family_spec.l2_lambda, seed=c.seed).theta
        for c in configs]))
    # order[r, :n_r] holds model r's records in its current epoch's
    # shuffle, and batches[r, i] the L of them from position i on.
    order = np.zeros((len(configs), n.max()), dtype=np.intp)
    batches = sliding_window_view(order, L, axis=1)
    finish = set(steps.tolist())

    # A model leaves the stack when its steps are done, or earlier at its
    # error; the loop ends when the stack is empty.
    for t in itertools.count():
        if t in finish:
            stack.drop(steps[stack.index] == t, itertools.repeat(None))
        if not len(stack.index):
            break
        epochs, b = np.divmod(t, steps_per_epoch[stack.index])
        for r in stack.index[b == 0]:
            order[r, :n[r]] = rows[r][stack.rngs[r].permutation(n[r])]
            stack.losses[r] = []
        idx = batches[stack.index, b * L]
        _step(stack, family_spec, np.take(X, idx, axis=0), y[idx], config,
              epochs)
        for r in stack.index[(t + 1) % steps_per_epoch[stack.index] == 0]:
            stack.traces[r].append(float(np.mean(stack.losses[r])))

    results = list(stack.errors)
    # Models of one (privacy, sigma, delta, q, steps) spend the same:
    # accounted once.
    spends = {}
    for r, theta in enumerate(stack.final):
        if results[r] is not None:
            continue
        q, T = L / int(n[r]), int(steps[r])
        key = (configs[r].private, configs[r].noise_multiplier,
               configs[r].delta, q, T)
        if key not in spends:
            try:
                spends[key] = _account(configs[r], q, T)
            except DPTailsError as exc:
                spends[key] = exc
        if isinstance(spends[key], DPTailsError):
            results[r] = spends[key]
            continue
        spend, log = copy.deepcopy(spends[key])
        results[r] = TrainedModel(
            params=models.ModelParams(family_spec.family, theta, d,
                                      family_spec.h, family_spec.l2_lambda),
            spend=spend, training_trace=stack.traces[r], steps_taken=T,
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
    """Train one model on the split's train side: train_stack at R = 1,
    its error raised."""
    trained, = train_stack(family_spec, split.train, [config])
    if isinstance(trained, DPTailsError):
        raise trained
    return trained
