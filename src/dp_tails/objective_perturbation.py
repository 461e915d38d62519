"""(eps, 0)-DP regularized logistic regression via objective perturbation.

Records are first rescaled to norm <= C, and the solver appends the
intercept's 1, so its inputs [x; 1] have norm <= B = sqrt(C^2 + 1). The
logistic loss is c-smooth with c = 1/4 for unit-norm inputs, hence cB^2
-smooth in these. The privacy budget is split as
  eps' = eps_p - log(1 + 2cB^2/(n Lambda) + c^2 B^4/(n^2 Lambda^2))
and when eps' <= 0 the extra-regularization branch is taken:
  Delta = cB^2/(n (e^{eps_p/4} - 1)) - Lambda,   eps' = eps_p / 2.
The perturbation vector b has a uniform direction and Gamma(dim, rate=beta)
norm with beta = eps'/(2B) (a loss gradient has norm <= B), which realizes
the density proportional to exp(-beta ||b||). The perturbed objective
  J(f) + (1/n) b^T f + (Delta/2) ||f||^2
is ridge LR plus a linear term, minimized by `models.fit_lr_newton` to
gradient norm <= 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accountant, models
from .cohort import Cohort
from .dp_optim import TrainedModel
from .errors import ConfigurationError, DomainError

# The smoothness constant c of the logistic loss at unit input norm; a
# smaller value would understate epsilon.
SMOOTHNESS = 0.25


@dataclass
class ObjPertConfig:
    eps_p: float
    lam: float
    record_norm_bound: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.eps_p > 0:
            raise ConfigurationError("eps_p: must be > 0")
        if self.lam <= 0:
            raise ConfigurationError("lam: must be > 0")
        if self.record_norm_bound <= 0:
            raise ConfigurationError("record_norm_bound: must be > 0")
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")


def sample_noise_vector(dim, beta, rng):
    """Vector with uniform direction and Gamma(shape=dim, rate=beta) norm."""
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    if beta <= 0:
        raise DomainError("noise rate beta must be > 0")
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    norm = rng.gamma(shape=dim, scale=1.0 / beta)
    return direction * norm


def budget_split(n, config: ObjPertConfig):
    """(eps_prime, Delta, branch) per the extra-regularization rule, with
    the loss's smoothness cB^2 at inputs of norm <= B."""
    c = SMOOTHNESS * (config.record_norm_bound ** 2 + 1.0)
    lam, eps_p = config.lam, config.eps_p
    eps_prime = eps_p - math.log(1.0 + 2.0 * c / (n * lam)
                                 + c * c / (n * n * lam * lam))
    if eps_prime > 0:
        return eps_prime, 0.0, "slack-free"
    denominator = math.exp(eps_p / 4.0) - 1.0
    if denominator == 0.0:
        raise DomainError(f"eps_p: {eps_p!r} is too small, exp(eps_p / 4) "
                          "- 1 rounds to 0")
    delta_reg = c / (n * denominator) - lam
    return eps_p / 2.0, max(delta_reg, 0.0), "extra-regularization"


def train_objective_perturbation(cohort: Cohort,
                                 config: ObjPertConfig) -> TrainedModel:
    """Private minimizer of the perturbed regularized logistic objective on
    the training records `cohort`.

    eps_p = inf is the beta -> infinity limit: b = 0 and Delta = 0, so the
    result is the non-private regularized minimizer, reported as a
    non-private run with epsilon = inf; it reads no seed. The grid's `none`
    level trains this model.
    """
    n, d = cohort.n, cohort.d

    # Per-record rescale so every feature vector has norm <= C.
    norms = np.linalg.norm(cohort.features, axis=1)
    factors = np.maximum(1.0, norms / config.record_norm_bound)
    X = cohort.features / factors[:, None]

    log = {"mechanism": "objective-perturbation", "lambda": config.lam,
           "record_norm_bound": config.record_norm_bound,
           "input_norm_bound": math.sqrt(config.record_norm_bound ** 2
                                         + 1.0),
           "smoothness_constant": SMOOTHNESS}
    if math.isinf(config.eps_p):
        b, delta_reg = np.zeros(d + 1), 0.0
        caveat = "non-private run"
    else:
        eps_prime, delta_reg, branch = budget_split(n, config)
        beta = eps_prime / (2.0 * log["input_norm_bound"])
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
        b = sample_noise_vector(d + 1, beta, rng)
        log.update(eps_p=config.eps_p, eps_prime=eps_prime, beta=beta,
                   branch=branch, extra_regularization=delta_reg)
        caveat = "solver is deterministic; DP holds conditionally on b"
    log["caveats"] = [caveat,
                      "record features rescaled to norm <= C before solving"]

    solved = models.fit_lr_newton(X, cohort.labels,
                                  l2_lambda=config.lam + delta_reg,
                                  tol=1e-8, max_iter=200, linear=b / n)
    params = models.ModelParams("lr-binary", solved.theta, d,
                                l2_lambda=config.lam)
    spend = accountant.PrivacySpend(epsilon=config.eps_p, delta=0.0)
    return TrainedModel(params=params, spend=spend, training_trace=[],
                        steps_taken=0, mechanism="objective-perturbation",
                        accounting_log=log)
