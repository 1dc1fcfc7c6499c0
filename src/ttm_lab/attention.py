"""Scaled dot-product attention and its temperature-modulated variants.

A block's query, key and value projections are one tensor W_qkv of shape
(h, 3, d_model, d_k): W_qkv[i, 0], W_qkv[i, 1] and W_qkv[i, 2] are head i's
W_q, W_k and W_v. One product x @ W_qkv projects every head at once. Only the
baseline projects: a modulated variant takes the baseline's output for the
same x and params, multiplies its logits and weighs its value rows.

Two modulation forms exist side by side: a key-axis broadcast (each logit
column j is scaled by T[h, j]) and an outer-product form (logit [i, j] scaled
by T[h, i] * T[h, j]). Modulation multiplies pre-softmax logits, as defined;
with negative logits this can raise a weight when the temperature drops, which
is documented behavior rather than something we correct.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import DimensionError, NumericError, Tensor, softmax_rows


class AttentionConfigError(ValueError):
    pass


@dataclass
class AttentionParams:
    """Stacked per-head projections plus the output projection back to d_model.

    W_qkv is (h, 3, d_model, d_k), holding each head's W_q, W_k and W_v in
    that order; W_o maps the merged head outputs (h * d_k wide, head 0 first)
    back to d_model.
    """

    W_qkv: Tensor
    W_o: Tensor

    def __post_init__(self):
        shape = self.W_qkv.shape
        if len(shape) != 4 or shape[1] != 3 or 0 in (shape[0], shape[3]):
            raise AttentionConfigError(
                f"W_qkv must have shape (h, 3, d_model, d_k) with h and d_k "
                f"positive, got {shape}")
        h, _, d_model, d_k = shape
        if h * d_k > d_model:
            raise AttentionConfigError(
                f"h * d_k = {h * d_k} exceeds d_model = {d_model}")

    @property
    def head_count(self):
        return self.W_qkv.shape[0]

    @property
    def d_k(self):
        return self.W_qkv.shape[3]


@dataclass
class AttentionOutput:
    values: Tensor          # (n, d_model)
    weights: Tensor         # (h, n, n), rows sum to 1
    pre_softmax: Tensor     # (h, n, n) modulated logits
    v: Tensor               # (h, n, d_k) per-head value rows


def merge_heads(head_values, W_o):
    """(h, n, d_k) per-head outputs, laid side by side as (n, h * d_k) with
    head 0 first, projected by W_o."""
    h, n, d_k = head_values.shape
    return head_values.transpose(0, 1).reshape(n, h * d_k) @ W_o


def _causal_mask(n):
    """Additive lower-triangular mask (large negative above the diagonal)."""
    m = np.triu(np.full((n, n), -1e30), k=1)
    return m[None, :, :]


def _weigh(pre, v, W_o):
    """Softmax over the logits `pre`, then the weighted values merged."""
    weights = softmax_rows(pre)
    return AttentionOutput(values=merge_heads(weights @ v, W_o),
                           weights=weights, pre_softmax=pre, v=v)


def attention_baseline(x, params, causal=False):
    """softmax(Q K^T / sqrt(d_k)) V per head, heads merged and projected."""
    x = Tensor._coerce(x)
    qkv = x @ params.W_qkv                      # (h, 3, n, d_k)
    q, k, v = qkv[:, 0], qkv[:, 1], qkv[:, 2]
    pre = q @ k.T * (1.0 / np.sqrt(params.d_k))
    if causal:
        pre = pre + Tensor(_causal_mask(x.shape[0]), check=False)
    return _weigh(pre, v, params.W_o)


def _check_field(base, field, params):
    n = base.weights.shape[-1]
    if field.head_count != params.head_count or field.seq_len != n:
        raise DimensionError(
            f"field shape ({field.head_count}, {field.seq_len}) does not match "
            f"h={params.head_count}, n={n}")


def attention_temp_broadcast(base, params, field):
    """Temperature-modulated attention, key-axis broadcast.

    Logit [h, i, j] is multiplied by T[h, j]: temperature rates each token as
    an information source.
    """
    _check_field(base, field, params)
    mod = field.values.reshape(field.head_count, 1, field.seq_len)
    return _weigh(base.pre_softmax * mod, base.v, params.W_o)


def attention_temp_outer(base, params, field):
    """Temperature-modulated attention, outer-product form.

    Logit [h, i, j] is multiplied by T[h, i] * T[h, j].
    """
    _check_field(base, field, params)
    t = field.values
    outer = t.reshape(field.head_count, field.seq_len, 1) \
        * t.reshape(field.head_count, 1, field.seq_len)
    return _weigh(base.pre_softmax * outer, base.v, params.W_o)


def residual_blend(base_weights, modulated_weights, alpha):
    """Convex blend of two post-softmax weight tensors, rows renormalized."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    base_weights = Tensor._coerce(base_weights)
    modulated_weights = Tensor._coerce(modulated_weights)
    mix = base_weights * alpha + modulated_weights * (1.0 - alpha)
    return mix / mix.sum(axis=-1, keepdims=True)


def interference_ratio(weights, field):
    """||T ⊙ A||_F / ||A||_F with the field applied along the key axis."""
    w = weights.values if isinstance(weights, Tensor) else np.asarray(weights)
    t = field.array()[:, None, :]
    denom = np.linalg.norm(w)
    if denom == 0.0:
        raise NumericError("interference_ratio: zero-norm attention weights")
    return float(np.linalg.norm(w * t) / denom)
