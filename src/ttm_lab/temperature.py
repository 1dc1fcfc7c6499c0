"""Token temperature fields, their collapse penalty and collapse check.

A temperature field is a Tensor of per-head, per-token scalars, shape (h, n)
or (B, h, n) for a batch, kept strictly inside [eps_min, 1 - eps_min]. Range
enforcement is structural: the field is produced through the affine squash
eps + (1 - 2 eps) * sigmoid(.), which is differentiable everywhere.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import (DimensionError, Tensor, _once, _sigmoid,
                       _unbroadcast, check_finite)

DEFAULT_EPS_MIN = 0.01


def squash(logits, eps_min=DEFAULT_EPS_MIN):
    """Affine sigmoid squash into [eps_min, 1 - eps_min], as one node.

    Values and gradients are those of a logistic sigmoid node over the
    logits, times 1 - 2 eps_min, plus eps_min, bit for bit: the sigmoid's
    gradient is g * (1 - 2 eps_min), and the logits' that times s * (1 - s).
    """
    if not 0.0 <= eps_min < 0.5:
        raise ValueError(f"eps_min {eps_min} outside [0, 0.5)")
    logits = Tensor._coerce(logits)
    out, dlogits = _squashed(logits.values, eps_min)
    return Tensor(out, _parents=((logits, dlogits),))


def _squashed(v, eps_min):
    """squash's arithmetic on the array v: the output and the vjp of v."""
    span = 1.0 - 2.0 * eps_min
    s = _sigmoid(v)
    out = s * span
    out += eps_min

    def dv(g):
        return g * span * s * (1.0 - s)

    return out, dv


@dataclass
class TemperatureHeadParams:
    """Projection parameters of the temperature head.

    W_t maps the attention output of each token to one logit per head.
    """

    W_t: Tensor
    b_t: Tensor
    eps_min: float = DEFAULT_EPS_MIN

    def __post_init__(self):
        if not 0.0 < self.eps_min < 0.5:
            raise ValueError(f"eps_min {self.eps_min} outside (0, 0.5)")
        if self.W_t.values.ndim != 2 or self.b_t.shape != (self.W_t.shape[0],):
            raise DimensionError(
                f"W_t {self.W_t.shape} and b_t {self.b_t.shape} inconsistent")


def compute_temperature(activations, params):
    """Temperature field from per-token attention outputs, as one node.

    Each token's logit vector is W_t . a_i + b_t (one logit per head), squashed
    into [eps_min, 1 - eps_min]. Activations of shape (n, d) give an (h, n)
    field, a (B, n, d) batch a (B, h, n) field.

    Values and gradients are those of the W_t.T, linear, squash and .T chain
    this replaces, bit for bit. The field is the transposed view of the
    (..., n, h) squash output, as the .T node's was, so a sum over it keeps
    its order. The logits' gradient is computed once per backward and handed
    to each operand's product, as the linear node handed on its own. The
    squash bounds a logit of +-inf, so the logits are checked here: an
    overflow names this node, as the linear node named itself. Finite
    logits give a field in [eps_min, 1 - eps_min], so the field is not
    scanned again.
    """
    activations = Tensor._coerce(activations)
    d = activations.shape[-1]
    W_t, b_t = params.W_t, params.b_t
    if W_t.shape[1] != d:
        raise DimensionError(
            f"W_t expects width {W_t.shape[1]}, activations have {d}")
    xv, wv = activations.values, W_t.values
    logits = xv @ wv.swapaxes(-1, -2)  # (..., n, h)
    logits += b_t.values
    out, dsquash = _squashed(check_finite(logits, "compute_temperature"),
                             params.eps_min)
    dlogits = _once(lambda g: dsquash(g.swapaxes(-1, -2)))
    return Tensor(out.swapaxes(-1, -2), _parents=(
        (activations, lambda g: dlogits(g) @ wv),
        (W_t, lambda g: _unbroadcast(xv.swapaxes(-1, -2) @ dlogits(g),
                                     wv.shape[::-1]).swapaxes(-1, -2)),
        (b_t, dlogits)), check=False)


def collapse_penalty(field):
    """Differentiable regularizer sum((T - 0.5)^2), as one node.

    Values and gradients are those of ((field - 0.5) ** 2).sum(), bit for
    bit: the square's gradient is g * 2 times field - 0.5.
    """
    d = field.values - 0.5

    def dfield(g):
        return g * 2.0 * d

    return Tensor(np.add.reduce(d ** 2.0, axis=None),
                  _parents=((field, dfield),))


@dataclass
class CollapseReport:
    fraction: float
    min_value: float
    max_value: float


def detect_collapse(field, eps):
    """Flag entries strictly below eps or above 1 - eps (both tails counted).

    On a (B, h, n) field, min and max run over every entry and `fraction` is
    the largest fraction of any one example.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps {eps} outside (0, 0.5)")
    v = field.values
    bad = (v < eps) | (v > 1.0 - eps)
    frac = float(bad.mean(axis=(-2, -1)).max()) if v.size else 0.0
    return CollapseReport(fraction=frac, min_value=float(v.min()),
                          max_value=float(v.max()))

