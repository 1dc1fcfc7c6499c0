"""Token temperature fields and every stability fix applied to them.

A temperature field is an h x n matrix of per-head, per-token scalars kept
strictly inside [eps_min, 1 - eps_min]. Range enforcement is structural: the
field is produced through the affine squash eps + (1 - 2 eps) * sigmoid(.),
which is differentiable everywhere.
"""

import math
import warnings
from dataclasses import dataclass

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
    """Per-head, per-token temperatures, shape (head_count, seq_len), or
    (B, head_count, seq_len) for a batch of B sequences."""

    def __init__(self, values, eps_min=DEFAULT_EPS_MIN, validate=True):
        if not isinstance(values, Tensor):
            values = Tensor(values)
        if values.values.ndim not in (2, 3):
            raise DimensionError(
                f"field must be (h, n) or (B, h, n), got {values.shape}")
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
        return self.values.shape[-2]

    @property
    def seq_len(self):
        return self.values.shape[-1]

    def array(self):
        return self.values.values

    def __repr__(self):
        return f"TemperatureField(h={self.head_count}, n={self.seq_len})"


def compute_temperature(activations, params):
    """Temperature field from per-token attention outputs.

    Each token's logit vector is W_t . a_i + b_t (one logit per head), squashed
    into [eps_min, 1 - eps_min]. Activations of shape (n, d) give an (h, n)
    field, a (B, n, d) batch a (B, h, n) field.
    """
    activations = Tensor._coerce(activations)
    d = activations.shape[-1]
    if params.W_t.shape[1] != d:
        raise DimensionError(
            f"W_t expects width {params.W_t.shape[1]}, activations have {d}")
    logits = activations @ params.W_t.T + params.b_t  # (..., n, h)
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
    """Flag entries strictly below eps or above 1 - eps (both tails counted).

    On a (B, h, n) field, min and max run over every entry and `fraction` is
    the largest fraction of any one example.
    """
    if not 0.0 < eps < 0.5:
        raise ConfigurationError(f"eps {eps} outside (0, 0.5)")
    v = field.array()
    bad = (v < eps) | (v > 1.0 - eps)
    frac = float(bad.mean(axis=(-2, -1)).max()) if v.size else 0.0
    return CollapseReport(collapsed=bool(bad.any()), fraction=frac,
                          min_value=float(v.min()), max_value=float(v.max()))


def clip_temperature_grad(grad, tau):
    """Elementwise clamp of a temperature gradient to [-tau, tau]."""
    if tau <= 0:
        raise ConfigurationError("tau must be positive")
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
