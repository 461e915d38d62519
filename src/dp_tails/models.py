"""Model families: binary/multinomial logistic regression and a one
hidden layer network, with per-example gradients and (for binary LR) the
exact Hessian of the regularized mean loss.

Parameter layouts (flat theta):
  lr-binary:      [w(d), b]
  lr-multinomial: [W(K*d row-major), b(K)]
  mlp-1:          [W1(h*d), b1(h), W2(K*h), b2(K)], logistic activation
Bias terms are never regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, OptimizationError,
                     ShapeError, UnsupportedFamilyError, check_keys)

FAMILIES = ("lr-binary", "lr-multinomial", "mlp-1")
_CLAMP = 1e-12


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def param_count(family, d, k=2, h=16):
    if family == "lr-binary":
        return d + 1
    if family == "lr-multinomial":
        return k * d + k
    if family == "mlp-1":
        return h * d + h + k * h + k
    raise UnsupportedFamilyError(f"unknown family {family!r}")


@dataclass
class ModelParams:
    family: str
    theta: np.ndarray
    d: int
    k: int = 2
    h: int = 16
    l2_lambda: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown family {self.family!r}")
        if self.l2_lambda < 0:
            raise ConfigurationError("l2_lambda: must be >= 0")
        self.theta = np.asarray(self.theta, dtype=float)
        expected = param_count(self.family, self.d, self.k, self.h)
        if self.theta.shape != (expected,):
            raise ShapeError(
                f"theta length {self.theta.shape} != expected ({expected},)")

    def copy_with(self, theta):
        return ModelParams(self.family, np.asarray(theta, dtype=float),
                           self.d, self.k, self.h, self.l2_lambda)

    def weight_mask(self):
        """Boolean mask of regularized (non-bias) entries of theta."""
        mask = np.zeros(self.theta.shape[0], dtype=bool)
        if self.family == "lr-binary":
            mask[: self.d] = True
        elif self.family == "lr-multinomial":
            mask[: self.k * self.d] = True
        else:
            h, d, k = self.h, self.d, self.k
            mask[: h * d] = True
            mask[h * d + h: h * d + h + k * h] = True
        return mask

    def to_dict(self):
        return {"family": self.family,
                "dims": {"d": self.d, "k": self.k, "h": self.h},
                "l2_lambda": self.l2_lambda,
                "theta": [float(v) for v in self.theta]}

    @classmethod
    def from_dict(cls, raw):
        """Inverse of to_dict; every key is required."""
        keys = ("family", "dims", "l2_lambda", "theta")
        check_keys(raw, keys, keys, "params")
        dims = raw["dims"]
        check_keys(dims, ("d", "k", "h"), ("d", "k", "h"), "params.dims")
        return cls(raw["family"], np.asarray(raw["theta"], dtype=float),
                   dims["d"], dims["k"], dims["h"], raw["l2_lambda"])


def init_params(family, d, k=2, h=16, l2_lambda=0.0, seed=0):
    """Zeros for the convex families, scaled uniform (1/sqrt(fan-in)) for MLP."""
    p = param_count(family, d, k, h)
    if family == "mlp-1":
        rng = np.random.default_rng(seed)
        theta = np.zeros(p)
        s1, s2 = 1.0 / np.sqrt(d), 1.0 / np.sqrt(h)
        theta[: h * d] = rng.uniform(-s1, s1, size=h * d)
        off = h * d + h
        theta[off: off + k * h] = rng.uniform(-s2, s2, size=k * h)
    else:
        theta = np.zeros(p)
    return ModelParams(family, theta, d, k, h, l2_lambda)


def _unpack_mlp(params):
    h, d, k = params.h, params.d, params.k
    t = params.theta
    W1 = t[: h * d].reshape(h, d)
    b1 = t[h * d: h * d + h]
    off = h * d + h
    W2 = t[off: off + k * h].reshape(k, h)
    b2 = t[off + k * h:]
    return W1, b1, W2, b2


def predict(params: ModelParams, features) -> np.ndarray:
    """Class probability matrix, one row per record, K columns."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.shape[1] != params.d:
        raise ShapeError(f"feature width {X.shape[1]} != d={params.d}")
    if params.family == "lr-binary":
        p = _sigmoid(X @ params.theta[:-1] + params.theta[-1])
        return np.column_stack([1.0 - p, p])
    if params.family == "lr-multinomial":
        W = params.theta[: params.k * params.d].reshape(params.k, params.d)
        b = params.theta[params.k * params.d:]
        return _softmax(X @ W.T + b)
    W1, b1, W2, b2 = _unpack_mlp(params)
    a1 = _sigmoid(X @ W1.T + b1)
    return _softmax(a1 @ W2.T + b2)


def loss_and_per_example_grads(params: ModelParams, features, labels,
                               include_ridge=True):
    """Mean cross-entropy (+ ridge on weights) and the n x |theta| matrix
    of per-record loss gradients.

    With include_ridge, the full ridge gradient is added to every row so
    the row mean equals the gradient of the regularized mean loss.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=np.int64).ravel()
    n = X.shape[0]
    if n == 0:
        raise DomainError("empty subset")
    if X.shape[1] != params.d:
        raise ShapeError(f"feature width {X.shape[1]} != d={params.d}")
    k_eff = 2 if params.family == "lr-binary" else params.k
    if y.min() < 0 or y.max() >= k_eff:
        raise DomainError(f"labels must lie in [0,{k_eff}) for {params.family}")

    if params.family == "lr-binary":
        p = _sigmoid(X @ params.theta[:-1] + params.theta[-1])
        pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
        ce = -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))
        resid = p - y
        G = np.column_stack([resid[:, None] * X, resid])
    elif params.family == "lr-multinomial":
        S = predict(params, X)
        Sc = np.clip(S, _CLAMP, 1.0 - _CLAMP)
        ce = -np.log(Sc[np.arange(n), y])
        D = S.copy()
        D[np.arange(n), y] -= 1.0
        Gw = np.einsum("nk,nd->nkd", D, X).reshape(n, params.k * params.d)
        G = np.column_stack([Gw, D])
    else:
        W1, b1, W2, b2 = _unpack_mlp(params)
        Z1 = X @ W1.T + b1
        A1 = _sigmoid(Z1)
        S = _softmax(A1 @ W2.T + b2)
        Sc = np.clip(S, _CLAMP, 1.0 - _CLAMP)
        ce = -np.log(Sc[np.arange(n), y])
        D = S.copy()
        D[np.arange(n), y] -= 1.0
        dW2 = np.einsum("nk,nh->nkh", D, A1).reshape(n, params.k * params.h)
        dA1 = D @ W2
        dZ1 = dA1 * A1 * (1.0 - A1)
        dW1 = np.einsum("nh,nd->nhd", dZ1, X).reshape(n, params.h * params.d)
        G = np.column_stack([dW1, dZ1, dW2, D])

    loss = float(ce.mean())
    if include_ridge and params.l2_lambda > 0:
        mask = params.weight_mask()
        ridge_grad = np.where(mask, params.l2_lambda * params.theta, 0.0)
        loss += 0.5 * params.l2_lambda * float(params.theta[mask] @ params.theta[mask])
        G = G + ridge_grad
    return loss, G


def lr_hessian(params: ModelParams, features, damping=0.0) -> np.ndarray:
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
        params = ModelParams("lr-binary", theta, d, l2_lambda=l2_lambda)
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
