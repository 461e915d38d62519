"""Model families for binary labels: logistic regression and a one
hidden layer network with a 2-way softmax output, with DP-SGD's clipped
gradient sums, per-example gradients and (for LR) the exact Hessian of the
regularized mean loss. Every family runs one forward/backward pass that
yields, per layer, the pre-activation gradient delta and the input a, so
each record's gradient is a per-layer outer product.

Parameter layouts (flat theta):
  lr-binary: [w(d), b]
  mlp-1:     [W1(h*d), b1(h), W2(2*h), b2(2)], logistic activation
Bias terms are never regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, OptimizationError,
                     ShapeError, UnsupportedFamilyError, config_from_dict)

FAMILIES = ("lr-binary", "mlp-1")
_CLAMP = 1e-12


def _sigmoid(z):
    # e = exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, else e / (1 + e).
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def param_count(family, d, h=16):
    if family == "lr-binary":
        return d + 1
    if family == "mlp-1":
        return h * d + h + 2 * h + 2
    raise UnsupportedFamilyError(f"unknown family {family!r}")


@dataclass
class FamilySpec:
    """A model family and its sizes, as a training config names them; the
    input dimension d comes from the data."""
    family: str = "lr-binary"
    h: int = 16
    l2_lambda: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"family: unknown {self.family!r}, must be one of {FAMILIES}")
        if self.h < 1:
            raise ConfigurationError("h: need h >= 1 units")


@dataclass
class ModelParams:
    family: str
    theta: np.ndarray
    d: int
    h: int = FamilySpec.h
    l2_lambda: float = FamilySpec.l2_lambda

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown family {self.family!r}")
        if self.l2_lambda < 0:
            raise ConfigurationError("l2_lambda: must be >= 0")
        self.theta = np.asarray(self.theta, dtype=float)
        expected = param_count(self.family, self.d, self.h)
        if self.theta.shape != (expected,):
            raise ShapeError(
                f"theta length {self.theta.shape} != expected ({expected},)")

    def copy_with(self, theta):
        return ModelParams(self.family, np.asarray(theta, dtype=float),
                           self.d, self.h, self.l2_lambda)

    def to_dict(self):
        return {"family": self.family,
                "dims": {"d": self.d, "h": self.h},
                "l2_lambda": self.l2_lambda,
                "theta": [float(v) for v in self.theta]}

    @classmethod
    def from_dict(cls, raw):
        """Inverse of to_dict; every key is required and type-checked."""
        p = config_from_dict(_ParamsFile, raw, "params")
        dims = config_from_dict(_Dims, p.dims, "params.dims")
        return cls(p.family, np.asarray(p.theta, dtype=float),
                   dims.d, dims.h, p.l2_lambda)


@dataclass
class _ParamsFile:
    """The JSON form of ModelParams, as to_dict writes it."""
    family: str
    dims: dict
    l2_lambda: float
    theta: list[float]


@dataclass
class _Dims:
    d: int
    h: int


def init_params(family, d, h=FamilySpec.h, l2_lambda=FamilySpec.l2_lambda,
                seed=0):
    """Zeros for lr-binary, scaled uniform (1/sqrt(fan-in)) for MLP."""
    p = param_count(family, d, h)
    if family == "mlp-1":
        rng = np.random.default_rng(seed)
        theta = np.zeros(p)
        s1, s2 = 1.0 / np.sqrt(d), 1.0 / np.sqrt(h)
        theta[: h * d] = rng.uniform(-s1, s1, size=h * d)
        off = h * d + h
        theta[off: off + 2 * h] = rng.uniform(-s2, s2, size=2 * h)
    else:
        theta = np.zeros(p)
    return ModelParams(family, theta, d, h, l2_lambda)


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


def predict(params: ModelParams, features) -> np.ndarray:
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


def loss_and_per_example_grads(params: ModelParams, features, labels,
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


def clipped_grad_sum(params: ModelParams, features, labels, clip_norm,
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
