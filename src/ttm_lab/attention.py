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

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (DimensionError, Tensor, _once, _softmax,
                       _unbroadcast, check_finite, softmax_rows)


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
            raise ValueError(
                f"W_qkv must have shape (h, 3, d_model, d_k) with h and d_k "
                f"positive, got {shape}")
        h, _, d_model, d_k = shape
        if h * d_k > d_model:
            raise ValueError(
                f"h * d_k = {h * d_k} exceeds d_model = {d_model}")
        if self.W_o.shape != (h * d_k, d_model):
            raise ValueError(
                f"W_o must have shape (h * d_k, d_model) = "
                f"{(h * d_k, d_model)} for W_qkv {shape}, got "
                f"{self.W_o.shape}")

    @property
    def head_count(self):
        return self.W_qkv.shape[0]

    @property
    def d_k(self):
        return self.W_qkv.shape[3]


@dataclass
class AttentionOutput:
    """Shapes for one (n, d_model) input; a (B, n, d_model) batch adds a
    leading B to each."""

    values: Tensor          # (n, d_model)
    weights: Tensor         # (h, n, n), rows sum to 1
    pre_softmax: Tensor     # (h, n, n) modulated logits
    v: Tensor               # (h, n, d_k) per-head value rows


def _side_by_side(heads):
    """(..., h, n, d_k) per-head arrays laid side by side as (..., n, h * d_k),
    head 0 first."""
    *lead, h, n, d_k = heads.shape
    return heads.swapaxes(-3, -2).reshape(*lead, n, h * d_k)


def merge_heads(weights, v, W_o):
    """The heads' weighted values weights @ v, (..., h, n, d_k), laid side by
    side as (..., n, h * d_k) with head 0 first and projected by W_o; one
    node.

    Values and gradients are those of the matmul, transpose, reshape and
    matmul chain this replaces, bit for bit. The heads' gradient is the
    product's, folded back into (..., h, n, d_k) and copied with + 0.0 into
    a C-ordered array, as the heads node's _accumulate copied it, so the
    weights' and v's products sum in BLAS's order for that layout. It is
    computed once per backward and shared by both. W_o's gradient is
    merged^T @ g; the merged array is not kept, as W_o's vjp lays the heads
    side by side again.
    """
    wv, vv, ov = weights.values, v.values, W_o.values
    heads = wv @ vv
    *lead, h, n, d_k = heads.shape

    @_once
    def dheads(g):
        side = (g @ ov.swapaxes(-1, -2)).reshape(*lead, n, h, d_k)
        return np.add(side.swapaxes(-3, -2), 0.0, out=np.empty_like(heads))

    return Tensor(_side_by_side(heads) @ ov, _parents=(
        (weights, lambda g: dheads(g) @ vv.swapaxes(-1, -2)),
        (v, lambda g: wv.swapaxes(-1, -2) @ dheads(g)),
        (W_o, lambda g: _side_by_side(heads).swapaxes(-1, -2) @ g)))


def _weigh(pre, v, W_o):
    """Softmax over the logits `pre`, then the weighted values merged. The
    weights are a softmax_rows node of their own, so they keep a gradient."""
    weights = softmax_rows(pre)
    return AttentionOutput(values=merge_heads(weights, v, W_o),
                           weights=weights, pre_softmax=pre, v=v)


def _project(x, W_qkv):
    """x.reshape(..., 1, 1, n, d) @ W_qkv as one node: every head's q, k and
    v rows, stacked as (..., h, 3, n, d_k).

    Values and gradients are those of the reshape-then-matmul chain this
    replaces, bit for bit: x's gradient is the product's summed over the
    head and q/k/v axes, as accumulating it into the reshaped x did.
    """
    *lead, n, d = shape = x.shape
    xs = x.values.reshape(*lead, 1, 1, n, d)
    wv = W_qkv.values

    def dx(g):
        gx = _unbroadcast(g @ wv.swapaxes(-1, -2), xs.shape)
        return gx.reshape(shape)

    return Tensor(xs @ wv, _parents=(
        (x, dx), (W_qkv, lambda g: xs.swapaxes(-1, -2) @ g)))


def _scaled_scores(qkv, scale):
    """(q @ k^T) * scale as one node, q and k read from the stacked
    (..., h, 3, n, d_k) projection and their product scaled in place.

    The vjp repeats the arithmetic of the slice, matmul and multiply chain
    this replaces, bit for bit: the product's gradient is g * scale, q's
    slot of the stacked gradient is that @ k, and k's the transpose of
    q^T @ that; v's slot is 0.
    """
    stacked = qkv.values
    qv, kv = stacked[..., 0, :, :], stacked[..., 1, :, :]
    out = qv @ kv.swapaxes(-1, -2)
    out *= scale

    def dqkv(g):
        gs = g * scale
        full = np.zeros_like(stacked)
        full[..., 0, :, :] = gs @ kv
        full[..., 1, :, :] = (qv.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return full

    return Tensor(out, _parents=((qkv, dqkv),))


def attention_baseline(x, params):
    """softmax(Q K^T / sqrt(d_k)) V per head, heads merged and projected.

    x is (n, d_model) or a (B, n, d_model) batch.
    """
    x = Tensor._coerce(x)
    qkv = _project(x, params.W_qkv)   # (..., h, 3, n, d_k)
    pre = _scaled_scores(qkv, 1.0 / np.sqrt(params.d_k))
    return _weigh(pre, qkv[..., 2, :, :], params.W_o)


def _baseline_values(x, params):
    """attention_baseline(x, params).values alone, computed off the tape.

    The scores are written into one (..., h, n, n) array and the softmax
    over that same array, so a call holds one n x n array per head where
    attention_baseline holds the scores, the weights and their tape. The
    arithmetic is attention_baseline's, in its order, so the values are
    bit-identical. No gradient can flow through this path, so a Tensor that
    requires one is refused.

    A non-finite array raises NumericError naming it, as on the tape, but
    an n x n array is scanned only where it can hold one. The projection's
    largest magnitude M is one reduction over it, and it is not finite
    exactly when some entry is not ("attention projection"). Every score
    |q . k| / sqrt(d_k) is at most d_k * M**2, rounding included, so the
    scores are scanned ("attention scores") only when d_k * M**2 reaches
    1e300. Finite scores give weights in [0, 1], since every exp after the
    row max is in [0, 1] and the row sum is at least 1, so the weights are
    never scanned. Each weighted value then combines v entries (|v| <= M)
    with weights summing to 1 within n ulps, so it is at most M * (1 + n
    ulps); below the bound M < 1e150, and the weighted values ("attention
    weighted values") are scanned only where the scores are. The output is
    always scanned.
    """
    if x.requires_grad or params.W_qkv.requires_grad \
            or params.W_o.requires_grad:
        raise ValueError("_baseline_values records no tape; its input and "
                         "projections must not require a gradient")
    *lead, n, d = x.shape
    qkv = x.values.reshape(*lead, 1, 1, n, d) @ params.W_qkv.values
    m = float(np.maximum.reduce(np.abs(qkv), axis=None))
    if not math.isfinite(m):
        check_finite(qkv, "attention projection")
    q, k, v = (qkv[..., i, :, :] for i in range(3))
    w = q @ k.swapaxes(-1, -2)
    w *= 1.0 / np.sqrt(params.d_k)
    near_bound = params.d_k * m * m >= 1e300
    if near_bound:
        check_finite(w, "attention scores")
    heads = _softmax(w, out=w) @ v
    if near_bound:
        check_finite(heads, "attention weighted values")
    return check_finite(_side_by_side(heads) @ params.W_o.values,
                        "attention output")


def _check_field(base, field, params):
    """The field must be (..., h, n) for base's (..., h, n, n) weights."""
    if field.shape != base.weights.shape[:-1]:
        raise DimensionError(
            f"field shape {field.shape} does not match "
            f"h={params.head_count} and weights {base.weights.shape}")


def _modulated(pre, field, outer):
    """The (..., h, n, n) logits `pre` times the (..., h, n) field, as one
    node: logit [h, i, j] times T[h, j], and with `outer` also times
    T[h, i].

    Values and gradients are those of the chain this replaces, bit for bit:
    the field reshaped to (..., h, 1, n) and multiplied in, and with `outer`
    first multiplied by its (..., h, n, 1) reshape. Each reshape's gradient
    is the product's summed over the axis it broadcast along, and the
    field's is their sum, as the field node added the two reshapes'. With
    `outer`, the product T[h, i] * T[h, j] of a transposed field is not
    C-ordered, and its gradient is copied with + 0.0 into an array laid out
    like it, as that product node's _accumulate did, so each sum runs in
    the chain's order.
    """
    *lead, h, n = field.shape
    fv, pv = field.values, pre.values
    cols = fv.reshape(*lead, h, 1, n)
    if not outer:
        return Tensor(pv * cols, _parents=(
            (pre, lambda g: g * cols),
            (field, lambda g: np.add.reduce(g * pv, axis=-2))))
    rows = fv.reshape(*lead, h, n, 1)
    mod = rows * cols

    def dfield(g):
        gm = np.add(g * pv, 0.0, out=np.empty_like(mod))
        return np.add.reduce(gm * cols, axis=-1) \
            + np.add.reduce(gm * rows, axis=-2)

    return Tensor(pv * mod, _parents=((pre, lambda g: g * mod),
                                      (field, dfield)))


def attention_temp_broadcast(base, params, field):
    """Temperature-modulated attention, key-axis broadcast.

    Logit [h, i, j] is multiplied by T[h, j]: temperature rates each token as
    an information source.
    """
    _check_field(base, field, params)
    return _weigh(_modulated(base.pre_softmax, field, outer=False), base.v,
                  params.W_o)


def attention_temp_outer(base, params, field):
    """Temperature-modulated attention, outer-product form.

    Logit [h, i, j] is multiplied by T[h, i] * T[h, j].
    """
    _check_field(base, field, params)
    return _weigh(_modulated(base.pre_softmax, field, outer=True), base.v,
                  params.W_o)

