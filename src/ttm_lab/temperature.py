"""Token temperature fields and every stability fix applied to them.

A temperature field is an h x n matrix of per-head, per-token scalars kept
strictly inside [eps_min, 1 - eps_min]. Range enforcement is structural: the
field is produced through the affine squash eps + (1 - 2 eps) * sigmoid(.),
which is differentiable everywhere. Additive extensions (coupled / adaptive
variants) can leave the range and are clamped back in.
"""

import io
import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .numerics import DimensionError, Tensor, sigmoid_map

DEFAULT_EPS_MIN = 0.01


class ConfigurationError(ValueError):
    """Required parameters are missing or out of their documented range."""


def squash(logits, eps_min=DEFAULT_EPS_MIN):
    """Affine sigmoid squash into [eps_min, 1 - eps_min]."""
    if not 0.0 <= eps_min < 0.5:
        raise ConfigurationError(f"eps_min {eps_min} outside [0, 0.5)")
    return sigmoid_map(logits) * (1.0 - 2.0 * eps_min) + eps_min


@dataclass
class TemperatureHeadParams:
    """Projection parameters of the temperature head.

    W_t maps the attention output of each token to one logit per head; W_c,
    when present, injects a context vector into the same logits.
    """

    W_t: Tensor
    b_t: Tensor
    W_c: Tensor = None
    eps_min: float = DEFAULT_EPS_MIN

    def __post_init__(self):
        if not 0.0 < self.eps_min < 0.5:
            raise ConfigurationError(f"eps_min {self.eps_min} outside (0, 0.5)")
        if self.W_t.values.ndim != 2 or self.b_t.shape != (self.W_t.shape[0],):
            raise DimensionError(
                f"W_t {self.W_t.shape} and b_t {self.b_t.shape} inconsistent")

    @property
    def head_count(self):
        return self.W_t.shape[0]


class TemperatureField:
    """Per-head, per-token temperatures, shape (head_count, seq_len)."""

    def __init__(self, values, eps_min=DEFAULT_EPS_MIN, validate=True):
        if not isinstance(values, Tensor):
            values = Tensor(values)
        if values.values.ndim != 2:
            raise DimensionError(f"field must be 2-D (h x n), got {values.shape}")
        if validate:
            v = values.values
            if v.size and (v.min() < eps_min - 1e-12 or v.max() > 1.0 - eps_min + 1e-12):
                raise ValueError(
                    f"field entries [{v.min()}, {v.max()}] escape "
                    f"[{eps_min}, {1.0 - eps_min}]")
        self.values = values
        self.eps_min = eps_min

    @property
    def head_count(self):
        return self.values.shape[0]

    @property
    def seq_len(self):
        return self.values.shape[1]

    def array(self):
        return self.values.values

    def detach(self):
        return TemperatureField(self.values.detach(), self.eps_min, validate=False)

    def to_csv(self, path_or_buf):
        """Write `head,token,value` rows; floats use shortest round-trip repr."""
        buf = path_or_buf if hasattr(path_or_buf, "write") else io.StringIO()
        buf.write("head,token,value\n")
        v = self.array()
        for h in range(v.shape[0]):
            for t in range(v.shape[1]):
                buf.write(f"{h},{t},{float(v[h, t])!r}\n")
        if buf is not path_or_buf:
            with open(path_or_buf, "w") as fh:
                fh.write(buf.getvalue())

    def __repr__(self):
        return f"TemperatureField(h={self.head_count}, n={self.seq_len})"


def compute_temperature(activations, params):
    """Temperature field from per-token attention outputs.

    Each token's logit vector is W_t . a_i + b_t (one logit per head), squashed
    into [eps_min, 1 - eps_min]. Output shape is (h, n).
    """
    activations = Tensor._coerce(activations)
    n, d = activations.shape
    if params.W_t.shape[1] != d:
        raise DimensionError(
            f"W_t expects width {params.W_t.shape[1]}, activations have {d}")
    logits = activations @ params.W_t.T + params.b_t  # (n, h)
    return TemperatureField(squash(logits, params.eps_min).T,
                            params.eps_min, validate=False)


def compute_temperature_ctx(activations, context, params, broadcast_only=False):
    """Context-conditioned temperature field.

    Default: logit_i = W_t . a_i + W_c . c + b_t per token. With
    `broadcast_only`, the per-token term is replaced by W_t applied to the
    mean activation and the single logit vector is broadcast across tokens.
    """
    if params.W_c is None:
        raise ConfigurationError("context-conditioned field requires W_c")
    activations = Tensor._coerce(activations)
    context = Tensor._coerce(context)
    if params.W_c.shape[1] != context.shape[0]:
        raise DimensionError(
            f"W_c expects context width {params.W_c.shape[1]}, got {context.shape[0]}")
    n = activations.shape[0]
    ctx_logit = params.W_c @ context.reshape(-1, 1)  # (h, 1)
    if broadcast_only:
        pooled = activations.mean(axis=0).reshape(-1, 1)  # (d, 1)
        logits = params.W_t @ pooled + ctx_logit + params.b_t.reshape(-1, 1)
        logits = logits @ Tensor(np.ones((1, n)), check=False)
        return TemperatureField(squash(logits, params.eps_min),
                                params.eps_min, validate=False)
    token_logits = activations @ params.W_t.T + params.b_t  # (n, h)
    logits = token_logits.T + ctx_logit  # (h, n)
    return TemperatureField(squash(logits, params.eps_min),
                            params.eps_min, validate=False)


def collapse_penalty(field, lam):
    """Differentiable regularizer lam * sum((T - 0.5)^2)."""
    if lam < 0:
        raise ConfigurationError("lambda must be nonnegative")
    return ((field.values - 0.5) ** 2).sum() * lam


@dataclass
class CollapseReport:
    collapsed: bool
    fraction: float
    min_value: float
    max_value: float


def detect_collapse(field, eps):
    """Flag entries strictly below eps or above 1 - eps (both tails counted)."""
    if not 0.0 < eps < 0.5:
        raise ConfigurationError(f"eps {eps} outside (0, 0.5)")
    v = field.array()
    bad = (v < eps) | (v > 1.0 - eps)
    frac = float(bad.mean()) if v.size else 0.0
    return CollapseReport(collapsed=bool(bad.any()), fraction=frac,
                          min_value=float(v.min()), max_value=float(v.max()))


def clip_temperature_grad(grad, tau):
    """Elementwise clamp of a temperature gradient to [-tau, tau]."""
    if tau <= 0:
        raise ConfigurationError("tau must be positive")
    if isinstance(grad, Tensor):
        return Tensor(np.clip(grad.values, -tau, tau), check=False)
    return np.clip(np.asarray(grad, dtype=np.float64), -tau, tau)


def default_grad_clip_tau(d_k):
    """Explosion threshold 1 / sqrt(d_k)."""
    return 1.0 / math.sqrt(d_k)


def normalize_temperature(field, norm_eps=1e-12):
    """Standardize each head's row across tokens, then re-squash into bounds.

    With fewer than two tokens the variance is undefined; the field is
    returned unchanged and a warning is issued.
    """
    if field.seq_len < 2:
        warnings.warn("normalize_temperature: n < 2, field returned unchanged")
        return field
    v = field.values
    mu = v.mean(axis=-1, keepdims=True)
    centered = v - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    z = centered / ((var + norm_eps) ** 0.5)
    return TemperatureField(squash(z, field.eps_min), field.eps_min,
                            validate=False)


@dataclass
class MultiScaleConfig:
    """Recursive multi-scale temperature parameters.

    weights[s] is the (h, d_model) projection at scale s + 1; biases[s] its
    bias; gammas[s] the coupling into scale s's neighborhood sums (unused at
    the base scale); neighborhoods[s][i] lists the token indices feeding
    token i at scale s + 1.
    """

    weights: list
    biases: list
    gammas: list
    neighborhoods: list
    eps_min: float = DEFAULT_EPS_MIN

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.gammas)
                == len(self.neighborhoods)):
            raise ConfigurationError("per-scale parameter lists must align")
        for g in self.gammas:
            if not 0.0 < g < 1.0:
                raise ConfigurationError(f"gamma {g} outside (0, 1)")

    @property
    def scale_count(self):
        return len(self.weights)


def multiscale_temperature(embeddings, cfg):
    """One temperature field per scale.

    Scale 1 squashes W_1 x + b_1. Each later scale adds gamma_s times the sum
    of the previous scale's temperatures over the token's neighborhood; empty
    neighborhoods contribute zero.
    """
    embeddings = Tensor._coerce(embeddings)
    n = embeddings.shape[0]
    fields = []
    prev = None
    for s in range(cfg.scale_count):
        W = Tensor._coerce(cfg.weights[s])
        b = Tensor._coerce(cfg.biases[s])
        logits = (embeddings @ W.T + b).T  # (h, n)
        if s > 0:
            h = W.shape[0]
            coupling = np.zeros((h, n))
            prev_vals = prev.array()
            for i, neigh in enumerate(cfg.neighborhoods[s]):
                for j in neigh:
                    if not 0 <= j < n:
                        raise ConfigurationError(
                            f"neighborhood index {j} outside [0, {n})")
                    coupling[:, i] += prev_vals[:, j]
            logits = logits + Tensor(cfg.gammas[s] * coupling, check=False)
        fld = TemperatureField(squash(logits, cfg.eps_min), cfg.eps_min,
                               validate=False)
        fields.append(fld)
        prev = fld
    return fields


def _cosine(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def coupled_temperature(base, embeddings, adjacency, alpha):
    """Add neighbor interactions (cosine similarity of embeddings, scaled by
    alpha) to the base field, clamping back into bounds.

    `adjacency` maps token index -> iterable of neighbor indices. `alpha` is
    either one shared scalar or a mapping (i, j) -> coefficient.
    """
    embeddings = np.asarray(
        embeddings.values if isinstance(embeddings, Tensor) else embeddings,
        dtype=np.float64)
    delta = np.zeros(base.seq_len)
    for i, neigh in (adjacency.items() if hasattr(adjacency, "items")
                     else enumerate(adjacency)):
        for j in neigh:
            a = alpha[(i, j)] if hasattr(alpha, "__getitem__") and not np.isscalar(alpha) else alpha
            delta[i] += a * _cosine(embeddings[i], embeddings[j])
    out = base.values + Tensor(delta[None, :], check=False)
    return TemperatureField(out.clip(base.eps_min, 1.0 - base.eps_min),
                            base.eps_min, validate=False)


@dataclass
class NgramTransform:
    """Learnable squashed-affine map applied to each window sum."""

    scale: float = 1.0
    shift: float = 0.0


def ngram_temperature(base, n_gram, weights, f_params=None):
    """Temperature field over sliding windows of `n_gram` tokens.

    Window i gets squash(scale * sum_k w_k * T[h, i + k] + shift); output
    shape is (h, n - n_gram + 1).
    """
    if f_params is None:
        f_params = NgramTransform()
    n = base.seq_len
    if not 1 <= n_gram <= n:
        raise DimensionError(f"n_gram {n_gram} outside [1, {n}]")
    if len(weights) != n_gram:
        raise DimensionError(
            f"need {n_gram} window weights, got {len(weights)}")
    windows = None
    for k, w in enumerate(weights):
        sl = base.values[:, k:n - n_gram + 1 + k] * float(w)
        windows = sl if windows is None else windows + sl
    logits = windows * f_params.scale + f_params.shift
    return TemperatureField(squash(logits, base.eps_min), base.eps_min,
                            validate=False)


@dataclass
class CategoryParams:
    """Per-category adaptive behavior: scaling logit and jump terms."""

    scale_logit: float = 0.0
    jumps: list = dc_field(default_factory=list)  # [(beta, weight vector)]
    lipschitz_bound: float = 1.0


@dataclass
class AdaptiveTempConfig:
    categories: dict
    max_jump: float = 0.5
    neutral: str = "neutral"

    def gamma(self, name):
        """sigma(logit) + 0.5, exactly 1 for a zero logit."""
        g = self.categories[name].scale_logit
        return 1.0 / (1.0 + np.exp(-g)) + 0.5


def adaptive_temperature(base, context_id, x_features, cfg):
    """Context-adaptive field: base * gamma(c) + jump terms, clamped.

    Unknown categories fall back to neutral behavior (gamma = 1, no jump)
    with a warning. Jump magnitude per token is clamped to cfg.max_jump.
    """
    x = np.asarray(
        x_features.values if isinstance(x_features, Tensor) else x_features,
        dtype=np.float64)
    if context_id not in cfg.categories:
        warnings.warn(f"unknown context category {context_id!r}; using neutral")
        context_id = cfg.neutral
    if context_id == cfg.neutral:
        gamma, jumps = 1.0, []
    else:
        gamma = cfg.gamma(context_id)
        jumps = cfg.categories[context_id].jumps
    delta = np.zeros(base.seq_len)
    for beta, w in jumps:
        delta += beta * np.tanh(x @ np.asarray(w, dtype=np.float64))
    delta = np.clip(delta, -cfg.max_jump, cfg.max_jump)
    out = base.values * gamma + Tensor(delta[None, :], check=False)
    return TemperatureField(out.clip(base.eps_min, 1.0 - base.eps_min),
                            base.eps_min, validate=False)


@dataclass
class InvarianceReport:
    layer_sums: list
    max_drift: float
    renormalized: list = None
    clamp_adjusted: bool = False


def invariance_diagnostic(fields, enforce=False):
    """Report per-layer total temperature and drift from the first layer.

    In enforce mode each layer is rescaled to the first layer's total and
    re-clamped; clamping that changes any entry is flagged.
    """
    if len(fields) < 2:
        raise ConfigurationError("invariance diagnostic needs >= 2 layers")
    sums = [float(f.array().sum()) for f in fields]
    target = sums[0]
    drift = max(abs(s - target) for s in sums)
    if not enforce:
        return InvarianceReport(layer_sums=sums, max_drift=drift)
    renorm = []
    clamped = False
    for f, s in zip(fields, sums):
        scaled = f.array() * (target / s)
        kept = np.clip(scaled, f.eps_min, 1.0 - f.eps_min)
        clamped = clamped or not np.array_equal(scaled, kept)
        renorm.append(TemperatureField(Tensor(kept, check=False), f.eps_min,
                                       validate=False))
    return InvarianceReport(layer_sums=sums, max_drift=drift,
                            renormalized=renorm, clamp_adjusted=clamped)
