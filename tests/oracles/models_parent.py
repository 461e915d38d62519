"""Frozen activations and Newton solver of dp_tails.models, the
bit-for-bit references for the package's.

A verbatim copy of `_sigmoid`, `_softmax`, `lr_hessian` and
`fit_lr_newton` as they stood when the sigmoid chose its numerator with
np.where, the softmax reduced over its length-2 axis, and every Newton
iterate formed X·θ and the sigmoid once for the gradient, again in
`lr_hessian` and once more per objective evaluation. The only edit:
`ModelParams` is qualified with its module (`models.`). The differential
tests require the package's activations to give the same bits and its
solver the same θ and the same OptimizationError. Do not edit it to follow
the package.
"""

from __future__ import annotations

import numpy as np

from dp_tails import models
from dp_tails.errors import (DomainError, OptimizationError,
                             UnsupportedFamilyError)


def _sigmoid(z):
    # e = exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, else e / (1 + e).
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def lr_hessian(params: models.ModelParams, features, damping=0.0) -> np.ndarray:
    """Exact Hessian surrogate (1/n) sum s(1-s) z z^T + (lambda+damping) I
    for binary LR, z = [x; 1]."""
    if params.family != "lr-binary":
        raise UnsupportedFamilyError("hessian only defined for lr-binary")
    if damping < 0:
        raise DomainError("damping must be >= 0")
    X = np.atleast_2d(np.asarray(features, dtype=float))
    n = X.shape[0]
    if n == 0:
        raise DomainError("empty subset")
    p = _sigmoid(X @ params.theta[:-1] + params.theta[-1])
    w = p * (1.0 - p)
    Z = np.column_stack([X, np.ones(n)])
    H = (Z * w[:, None]).T @ Z / n
    H += (params.l2_lambda + damping) * np.eye(params.d + 1)
    return (H + H.T) / 2.0


def fit_lr_newton(features, labels, l2_lambda=1e-3, tol=1e-10, max_iter=100,
                  linear=None):
    """Deterministic Newton fit of binary LR, the one solver wherever an
    exact regularized minimizer is needed (domain classifiers, influence
    oracles, objective perturbation). Minimizes

        mean cross-entropy + (l2_lambda/2) ||theta||^2 + linear^T theta

    over theta = [w, b]. The bias is regularized too so the objective is
    strongly convex. Raises OptimizationError if the gradient norm does
    not reach tol within max_iter Newton steps.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    n, d = X.shape
    if n == 0:
        raise DomainError("empty subset")
    if not np.all((y == 0) | (y == 1)):
        raise DomainError("labels must lie in [0,2) for lr-binary")
    y_pm = 2.0 * y - 1.0
    c = np.zeros(d + 1) if linear is None else np.asarray(linear, dtype=float)

    def objective(theta):
        # log(1 + exp(-margin)) computed stably
        margins = y_pm * (X @ theta[:-1] + theta[-1])
        loss = float(np.mean(np.logaddexp(0.0, -margins)))
        return loss + 0.5 * l2_lambda * float(theta @ theta) + float(c @ theta)

    theta = np.zeros(d + 1)
    for it in range(max_iter + 1):
        params = models.ModelParams("lr-binary", theta, d,
                                    l2_lambda=l2_lambda)
        resid = _sigmoid(X @ theta[:-1] + theta[-1]) - y
        grad = (np.append(X.T @ resid, resid.sum()) / n
                + l2_lambda * theta + c)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            return params
        if it == max_iter:
            break
        step = np.linalg.solve(lr_hessian(params, X), grad)
        # Backtracking keeps the update stable on separable data.
        t, base, gdots = 1.0, objective(theta), float(grad @ step)
        for _ in range(60):
            # Accept when the Armijo decrease holds or the predicted
            # decrease is below float resolution of the objective.
            if 1e-4 * t * gdots <= 1e-14 * max(1.0, abs(base)):
                break
            if objective(theta - t * step) <= base - 1e-4 * t * gdots:
                break
            t *= 0.5
        theta = theta - t * step
    raise OptimizationError(
        f"Newton solve did not reach tolerance {tol:g} in {max_iter} "
        f"iterations (grad norm {grad_norm:.3e})")
