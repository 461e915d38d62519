"""Model families for binary labels: logistic regression and a one
hidden layer network with a 2-way softmax output, with DP-SGD's clipped
gradient sums and (for LR) the exact Hessian of the regularized mean loss.
Every family runs one forward/backward pass over a stack of R models, theta
(R, p) and one batch per model (R, n, d), that yields, per layer, the
pre-activation gradient delta and the input a, so each record's gradient
is a per-layer outer product. `predict` is that pass at R = 1, and
returns P(y = 1) alone.

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
    # e lies in [0, 1] (or is NaN, which maximum keeps), so max(e, z >= 0)
    # is 1 for z >= 0 and e otherwise, with no branch per element.
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _softmax(logits):
    """Softmax over the last axis of 2-way logits (..., 2): the max and the
    sum over the two columns are one elementwise call each."""
    e = np.exp(logits - np.maximum(logits[..., 0], logits[..., 1])[..., None])
    return e / (e[..., 0] + e[..., 1])[..., None]


def param_count(family, d, h=16):
    if family == "lr-binary":
        return d + 1
    if family == "mlp-1":
        return h * d + h + 2 * h + 2
    FamilySpec(family)  # refuses the unknown family


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
        if self.l2_lambda < 0:
            raise ConfigurationError("l2_lambda: must be >= 0")


@dataclass
class ModelParams:
    family: str
    theta: np.ndarray
    d: int
    h: int = FamilySpec.h
    l2_lambda: float = FamilySpec.l2_lambda

    def __post_init__(self):
        FamilySpec(self.family, self.h, self.l2_lambda)
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


def _unpack_mlp(h, d, theta):
    """W1 (R, h, d), b1 (R, h), W2 (R, 2, h), b2 (R, 2): views of the
    stacked theta (R, p)."""
    R = theta.shape[0]
    W1 = theta[:, : h * d].reshape(R, h, d)
    b1 = theta[:, h * d: h * d + h]
    off = h * d + h
    W2 = theta[:, off: off + 2 * h].reshape(R, 2, h)
    b2 = theta[:, off + 2 * h:]
    return W1, b1, W2, b2


def _forward(spec, theta, X):
    """Stacked forward pass of R models of one family: theta is (R, p) and
    X is (R, n, d), model r reading batch X[r]. Returns the class
    probabilities (for lr-binary, P(y = 1) alone, (R, n)) and, for each
    layer in theta order, its (input a, weights W, a·Wᵀ), each with the
    leading model axis; a layer's pre-activation is a·Wᵀ + bias. Every
    product is a stacked matmul, so model r gets the bits a 2-D pass over
    theta[r] and X[r] would give, whatever models share the stack."""
    if spec.family == "lr-binary":
        aw = np.matmul(X, theta[:, :-1, None])
        return (_sigmoid(aw[..., 0] + theta[:, -1:]),
                [(X, theta[:, None, :-1], aw)])
    W1, b1, W2, b2 = _unpack_mlp(spec.h, X.shape[-1], theta)
    aw1 = X @ W1.transpose(0, 2, 1)
    A1 = _sigmoid(aw1 + b1[:, None, :])
    aw2 = A1 @ W2.transpose(0, 2, 1)
    return _softmax(aw2 + b2[:, None, :]), [(X, W1, aw1), (A1, W2, aw2)]


def predict(params: ModelParams, features) -> np.ndarray:
    """P(y = 1) of each record, shape (n,)."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.shape[1] != params.d:
        raise ShapeError(f"feature width {X.shape[1]} != d={params.d}")
    S = _forward(params, params.theta[None], X[None])[0][0]
    return S if S.ndim == 1 else S[:, 1]


def _backprop(spec, theta, X, y):
    """Stacked backward pass: per model, the mean cross-entropy ((R,)) and,
    for each layer in theta order, (delta, a, W, a·Wᵀ) with the leading
    model axis, where delta is the cross-entropy gradient with respect to
    the layer's pre-activation. Record i's loss gradient for the layer is
    the outer product delta_i ⊗ [a_i; 1], flattened as [W row-major, bias];
    the ridge adds l2_lambda * W to the W part."""
    R, n = y.shape
    if n == 0:
        raise DomainError("empty subset")
    S, layers = _forward(spec, theta, X)
    if spec.family == "lr-binary":
        pc = np.clip(S, _CLAMP, 1.0 - _CLAMP)
        ce = -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc))
        deltas = [(S - y)[..., None]]
    else:
        rows = np.arange(R)[:, None], np.arange(n)
        Sc = np.clip(S, _CLAMP, 1.0 - _CLAMP)
        ce = -np.log(Sc[(*rows, y)])
        D = S.copy()
        D[(*rows, y)] -= 1.0
        A1, W2, _ = layers[1]
        deltas = [(D @ W2) * A1 * (1.0 - A1), D]
    return (ce.sum(axis=1) / n,
            [(D, A, W, aw) for D, (A, W, aw) in zip(deltas, layers)])


def _sq_weights(layers):
    """Per model, ||theta_w||^2 over the regularized (non-bias) entries of
    theta, as one dot product in theta order."""
    w = np.concatenate([W.reshape(len(W), -1) for _, _, W, _ in layers],
                       axis=1)
    return np.vecdot(w, w)


def clipped_grad_sum(spec, theta, features, labels, clip_norms,
                     microbatch_count):
    """DP-SGD's pre-noise gradient of one batch for each of R stacked
    models of one family, without the n x |theta| matrix of per-record
    gradients.

    spec names the family, h and l2_lambda (a FamilySpec or ModelParams);
    theta is (R, p), features (R, n, d), labels (R, n) of 0 and 1 (unchecked
    here: `cohort.Cohort` guarantees them) and clip_norms (R,), one clip
    norm > 0 per model.
    Each model's batch splits into `microbatch_count` equal consecutive
    units, each with gradient the mean over its records of the regularized
    loss gradient. Returns, per model, (mean regularized loss (R,), the sum
    of the unit gradients each rescaled to norm <= its clip norm (R, p),
    the units' pre-clip norms (R, m), or None when no model clips). A model
    whose clip norm is inf is not clipped and its whole batch is one unit:
    its sum is the mean gradient, each record weighted 1/n, and its row of
    norms is not read. Model r's values are those of a stack of r alone,
    bit for bit.

    A record's gradient for a layer is delta_i ⊗ [a_i; 1], so per record
    ||g_i||^2 sums ||delta_i||^2 (||a_i||^2 + 1) over layers, plus the ridge
    cross term 2 lambda delta_iᵀ W a_i + lambda^2 ||theta_w||^2 (Goodfellow
    2015, arXiv:1510.01799); fewer units form their m x |theta| means. The
    sum is then one matmul per layer with per-record weights.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=np.int64)
    R, n = y.shape
    if theta.shape[1] != param_count(spec.family, X.shape[2], spec.h):
        raise ShapeError(f"theta width {theta.shape[1]} does not fit "
                         f"{spec.family} at d={X.shape[2]}")
    m = microbatch_count
    if m < 1 or n % m != 0:
        raise ConfigurationError("microbatch_count must divide batch size")
    clip_norms = np.asarray(clip_norms, dtype=float)
    if clip_norms.shape != (R,) or not (clip_norms > 0).all():
        raise DomainError("clip norm must be > 0, one per model")
    clipped = clip_norms < np.inf
    any_clipped = clipped.any()
    loss, layers = _backprop(spec, theta, X, y)
    lam = spec.l2_lambda
    sq_weights = _sq_weights(layers) if lam > 0 else np.zeros(R)
    loss = loss + 0.5 * lam * sq_weights

    norms = None
    if any_clipped and m == n:
        sq = (lam * lam * sq_weights)[:, None]
        for D, A, _, aw in layers:
            sq = sq + (np.einsum("rno,rno->rn", D, D)
                       * (np.einsum("rni,rni->rn", A, A) + 1.0)
                       + 2.0 * lam * np.einsum("rno,rno->rn", D, aw))
        norms = np.sqrt(np.maximum(sq, 0.0))
    elif any_clipped:
        b = n // m
        blocks = []
        for D, A, W, _ in layers:
            Dm = D.reshape(R, m, b, -1)
            blocks += [np.einsum("rmbo,rmbi->rmoi", Dm,
                                 A.reshape(R, m, b, -1)).reshape(R, m, -1)
                       / b + lam * W.reshape(R, 1, -1),
                       Dm.sum(axis=2) / b]
        means = np.concatenate(blocks, axis=2)
        norms = np.sqrt((means * means).sum(axis=2))
    unit_weights = (np.full((R, m), 1.0 / n) if norms is None
                    else 1.0 / np.maximum(1.0, norms / clip_norms[:, None])
                    * (m / n))
    unit_weights[~clipped] = 1.0 / n
    weights = np.repeat(unit_weights, n // m, axis=1)
    weight_sums = weights.sum(axis=1)[:, None, None]
    blocks = []
    for D, A, W, _ in layers:
        Dw = D * weights[..., None]
        blocks += [(Dw.transpose(0, 2, 1) @ A + weight_sums * lam * W)
                   .reshape(R, -1),
                   Dw.sum(axis=1)]
    return loss, np.concatenate(blocks, axis=1), norms


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
    if X.shape[1] != params.d:
        raise ShapeError(f"feature width {X.shape[1]} != d={params.d}")
    p = _sigmoid(X @ params.theta[:-1] + params.theta[-1])
    return _hessian(np.column_stack([X, np.ones(n)]), p,
                    (params.l2_lambda + damping) * np.eye(params.d + 1))


def _hessian(Z, p, ridge):
    """(1/n) Z^T diag(p(1-p)) Z + ridge, symmetrized: the LR Hessian at
    sigmoid outputs p of the n rows of Z = [X, 1]."""
    H = (Z * (p * (1.0 - p))[:, None]).T @ Z / len(Z)
    H += ridge
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

    Each iterate forms the margins X w + b and their sigmoid once; the
    gradient, the Hessian (lr_hessian's helper, on [X, 1] built once per
    solve) and the line search's base objective read them, and an
    accepted line-search point carries its margins and objective to the
    next iterate.
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
    theta = np.zeros(d + 1)
    # Checks l2_lambda before the first iterate.
    params = ModelParams("lr-binary", theta, d, l2_lambda=l2_lambda)
    Z = np.column_stack([X, np.ones(n)])
    ridge = l2_lambda * np.eye(d + 1)

    def margins(theta):
        return X @ theta[:-1] + theta[-1]

    def objective(theta, s):
        # log(1 + exp(-margin)) computed stably
        loss = float(np.mean(np.logaddexp(0.0, -(y_pm * s))))
        return loss + 0.5 * l2_lambda * float(theta @ theta) + float(c @ theta)

    s, base = margins(theta), None
    for it in range(max_iter + 1):
        p = _sigmoid(s)
        resid = p - y
        grad = (np.append(X.T @ resid, resid.sum()) / n
                + l2_lambda * theta + c)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            return params.copy_with(theta)
        if it == max_iter:
            break
        step = np.linalg.solve(_hessian(Z, p, ridge), grad)
        # Backtracking keeps the update stable on separable data.
        t, gdots = 1.0, float(grad @ step)
        if base is None:
            base = objective(theta, s)
        accepted = None
        for _ in range(60):
            # Accept when the Armijo decrease holds or the predicted
            # decrease is below float resolution of the objective.
            if 1e-4 * t * gdots <= 1e-14 * max(1.0, abs(base)):
                break
            trial = theta - t * step
            s_trial = margins(trial)
            value = objective(trial, s_trial)
            if value <= base - 1e-4 * t * gdots:
                accepted = s_trial, value
                break
            t *= 0.5
        theta = theta - t * step
        s, base = accepted if accepted else (margins(theta), None)
    raise OptimizationError(
        f"Newton solve did not reach tolerance {tol:g} in {max_iter} "
        f"iterations (grad norm {grad_norm:.3e})")
