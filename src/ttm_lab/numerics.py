"""Dense float64 tensors with a reverse-mode tape, plus a finite-difference checker.

Only the operations the rest of the library needs carry backward rules; this is
deliberately not a general autodiff framework. All arrays are float64 and every
public operation verifies its output is finite.
"""

import math
import sys

import numpy as np

__all__ = [
    "NumericError",
    "DimensionError",
    "Tensor",
    "Rng",
    "matmul",
    "softmax_rows",
    "sigmoid_map",
    "layer_norm",
    "gelu",
    "grad_check",
]


class NumericError(ArithmeticError):
    """A public operation produced a non-finite value."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


# W. J. Cody's rational Chebyshev approximations of erf and erfc (Math. Comp.
# 23, 1969; coefficients as in SPECFUN's CALERF): erf on |x| <= 0.5, and
# erfc(y) * exp(y^2) on 0.5 < y <= 4 and on y > 4 (the latter in 1 / y^2).
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02,
          1.28261652607737228e03, 2.84423683343917062e03)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e00,
          6.61191906371416295e01, 2.98635138197400131e02,
          8.81952221241769090e02, 1.71204761263407058e03,
          2.05107837782607147e03, 1.23033935479799725e03,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e01, 1.17693950891312499e02,
          5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03,
          3.43936767414372164e03, 1.23033935480374942e03)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e00, 1.87295284992346725e00,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)
_RSQRT_PI = 5.6418958354775628695e-1
_ERFC_ZERO = 27.0  # erfc(y) underflows to 0 beyond here; keeps y * y finite


def _rational(coef_num, coef_den, z, lead):
    """Numerator and denominator polynomials in z, evaluated in Cody's
    nested order: start from lead * z and z, then add a coefficient and
    multiply by z once per coefficient pair. The caller adds the last
    constant terms."""
    num, den = lead * z, z
    for a, b in zip(coef_num, coef_den):
        num = (num + a) * z
        den = (den + b) * z
    return num, den


def _exp_neg_square(y):
    """exp(-y^2), with y^2 split so the exponent keeps its low-order bits."""
    head = np.trunc(y * 16.0) / 16.0
    return np.exp(-head * head) * np.exp(-(y - head) * (y + head))


def _erf(x):
    """Elementwise erf, within 2.3e-16 of math.erf.

    Each of Cody's three ranges is evaluated only on the elements that fall
    in it, so no full-size temporary is kept per range.
    """
    y = np.abs(x)
    out = y.copy()  # a NaN falls in no range and stays NaN
    small = y <= 0.5
    ys = y[small]
    num, den = _rational(_ERF_A[:3], _ERF_B[:3], ys * ys, _ERF_A[4])
    out[small] = ys * (num + _ERF_A[3]) / (den + _ERF_B[3])
    mid = (y > 0.5) & (y <= 4.0)
    ym = y[mid]
    num, den = _rational(_ERF_C[:7], _ERF_D[:7], ym, _ERF_C[8])
    erfc = _exp_neg_square(ym) * (num + _ERF_C[7]) / (den + _ERF_D[7])
    out[mid] = (0.5 - erfc) + 0.5
    big = y > 4.0
    yb = np.minimum(y[big], _ERFC_ZERO)
    z = 1.0 / (yb * yb)
    num, den = _rational(_ERF_P[:4], _ERF_Q[:4], z, _ERF_P[5])
    tail = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    erfc = _exp_neg_square(yb) * (_RSQRT_PI - tail) / yb
    out[big] = (0.5 - erfc) + 0.5
    return np.copysign(out, x)


def _same(g):
    return g


def _negated(g):
    return -g


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A float64 array node on an implicit backward tape.

    Values are immutable by convention after construction; only `grad` is
    mutated, and only during a single-threaded backward pass. Every op builds
    its node here with one (parent, vjp) pair per operand, where `vjp` maps
    the node's gradient to that parent's; a node none of whose parents
    requires a gradient keeps no pairs, so it ends the tape. A vjp keeps the
    arrays it needs, never the node it belongs to: that reference would make
    a cycle, which holds the whole upstream tape until the cyclic collector
    runs.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents")
    # an ndarray on the left of + - * leaves the operation to the Tensor's
    # reflected method instead of building an object array of Tensors
    __array_ufunc__ = None

    def __init__(self, values, requires_grad=False, _parents=(), check=True):
        self.values = v = np.asarray(values, dtype=np.float64)
        if check and not np.isfinite(v).all():
            # name the first caller outside this tensor's construction; a
            # wrapper around __init__ shares its `self`
            caller = sys._getframe(1)
            while caller.f_locals.get("self") is self:
                caller = caller.f_back
            raise NumericError(f"{caller.f_code.co_name} produced non-finite "
                               f"values of shape {v.shape}")
        self.grad = None
        if not requires_grad:
            for p, _ in _parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = _parents if requires_grad else ()

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- tape ---------------------------------------------------------------

    def _accumulate(self, g):
        if g.shape != self.values.shape:
            g = _unbroadcast(g, self.values.shape)
        if self.grad is None:
            # an owned copy laid out like the values, not g (often a view or
            # a transpose): this gradient feeds the matmuls of the node's
            # vjps, whose BLAS summation order follows the layout. Adding
            # 0.0 turns -0.0 into 0.0, as summing into zeros did
            self.grad = np.add(g, 0.0, out=np.empty_like(self.values))
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from this (scalar) tensor.

        Raises NumericError if any leaf (a node without parents, such as a
        parameter) ends the sweep with a non-finite gradient.
        """
        if self.values.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            n, expanded = stack.pop()
            if expanded:
                order.append(n)
                continue
            if id(n) in seen:
                continue
            seen.add(id(n))
            stack.append((n, True))
            for p, _ in n._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.values)
        for node in reversed(order):
            for parent, vjp in node._parents:
                if parent.requires_grad:
                    parent._accumulate(vjp(node.grad))
        for node in order:
            if not node._parents and node.grad is not None \
                    and not np.isfinite(node.grad).all():
                raise NumericError(
                    f"non-finite gradient at a leaf tensor of shape {node.shape}")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=np.float64), check=False)

    # A Tensor operand is a parent; any other operand (a Python or numpy
    # scalar, an ndarray) is a constant held by the vjp, with no node of its own.

    def __add__(self, other):
        if isinstance(other, Tensor):
            return Tensor(self.values + other.values,
                          _parents=((self, _same), (other, _same)))
        return Tensor(self.values + other, _parents=((self, _same),))

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.values, _parents=((self, _negated),))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return Tensor(self.values - other.values,
                          _parents=((self, _same), (other, _negated)))
        return Tensor(self.values - other, _parents=((self, _same),))

    def __rsub__(self, other):
        return Tensor(other - self.values, _parents=((self, _negated),))

    def __mul__(self, other):
        a = self.values
        if isinstance(other, Tensor):
            b = other.values
            return Tensor(a * b, _parents=((self, lambda g: g * b),
                                           (other, lambda g: g * a)))
        return Tensor(a * other, _parents=((self, lambda g: g * other),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a = self.values
        if isinstance(other, Tensor):
            b = other.values
            return Tensor(a / b, _parents=((self, lambda g: g / b),
                                           (other, lambda g: -g * a / b ** 2)))
        return Tensor(a / other, _parents=((self, lambda g: g / other),))

    def __pow__(self, exponent):
        exponent = float(exponent)
        a = self.values
        return Tensor(a ** exponent, _parents=(
            (self, lambda g: g * exponent * a ** (exponent - 1.0)),))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- reductions and reshaping ------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.shape
        dropped = () if axis is None or keepdims else axis
        return Tensor(self.values.sum(axis=axis, keepdims=keepdims), _parents=(
            (self, lambda g: np.broadcast_to(np.expand_dims(g, dropped), shape)),))

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def reshape(self, *shape):
        old = self.shape
        return Tensor(self.values.reshape(*shape),
                      _parents=((self, lambda g: g.reshape(old)),))

    def transpose(self, axis0=-2, axis1=-1):
        return Tensor(np.swapaxes(self.values, axis0, axis1), _parents=(
            (self, lambda g: np.swapaxes(g, axis0, axis1)),))

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, index):
        a = self.values

        def scatter(g):
            full = np.zeros_like(a)
            # ints, slices and Ellipsis pick each element at most once, so
            # the gradient can be assigned; index arrays may repeat and add
            if all(isinstance(i, (int, slice, type(...))) for i in
                   (index if isinstance(index, tuple) else (index,))):
                full[index] = g
            else:
                np.add.at(full, index, g)
            return full

        return Tensor(a[index], _parents=((self, scatter),))

    def clip(self, lo, hi):
        """Clamp values to [lo, hi]; gradient passes only where unclipped."""
        mask = (self.values >= lo) & (self.values <= hi)
        return Tensor(np.clip(self.values, lo, hi),
                      _parents=((self, lambda g: g * mask),))

    # -- elementwise nonlinearities ------------------------------------------

    def exp(self):
        e = np.exp(self.values)
        return Tensor(e, _parents=((self, lambda g: g * e),))

    def log(self):
        a = self.values
        return Tensor(np.log(a), _parents=((self, lambda g: g / a),))


def concat(tensors, axis=0):
    """Concatenate along `axis`; each operand's gradient is its slice."""
    tensors = [Tensor._coerce(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    parents = []
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        idx = [slice(None)] * t.values.ndim
        idx[axis] = slice(lo, hi)
        parents.append((t, lambda g, idx=tuple(idx): g[idx]))
    return Tensor(np.concatenate([t.values for t in tensors], axis=axis),
                  _parents=tuple(parents))


def matmul(a, b):
    """Matrix product with numpy broadcasting over leading axes.

    c[i, j] = sum_t a[i, t] * b[t, j] on the trailing two axes.
    """
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} x {b.shape}")
    av, bv = a.values, b.values
    return Tensor(av @ bv, _parents=(
        (a, lambda g: g @ np.swapaxes(bv, -1, -2)),
        (b, lambda g: np.swapaxes(av, -1, -2) @ g)))


def softmax_rows(x):
    """Row-wise softmax over the last axis, with max-subtraction."""
    x = Tensor._coerce(x)
    if x.values.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"softmax_rows needs a non-empty last axis, got {x.shape}")
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    # dL/dx = p * (g - sum(g * p))
    return Tensor(p, _parents=(
        (x, lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True))),))


def sigmoid_map(x):
    """Elementwise logistic sigmoid 1 / (1 + exp(-x))."""
    x = Tensor._coerce(x)
    # evaluate on the stable side of the exponential in each branch
    v = x.values
    s = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                 np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    return Tensor(s, _parents=((x, lambda g: g * s * (1.0 - s)),))


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize each row of the last axis to zero mean / unit variance, then
    apply gain and bias."""
    x = Tensor._coerce(x)
    gain = Tensor._coerce(gain)
    bias = Tensor._coerce(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} "
            f"and {bias.shape}")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mu = x.values.mean(axis=-1, keepdims=True)
    var = x.values.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    z = (x.values - mu) * inv
    gv = gain.values

    def dx(g):
        gz = g * gv
        term = gz - gz.mean(axis=-1, keepdims=True) \
            - z * (gz * z).mean(axis=-1, keepdims=True)
        return term * inv

    return Tensor(z * gv + bias.values, _parents=(
        (x, dx),
        (gain, lambda g: (g * z).reshape(-1, d).sum(axis=0)),
        (bias, lambda g: g.reshape(-1, d).sum(axis=0))))


def gelu(x):
    """Exact (erf-based) GELU."""
    x = Tensor._coerce(x)
    v = x.values
    cdf = 0.5 * (1.0 + _erf(v / math.sqrt(2.0)))
    return Tensor(v * cdf, _parents=((x, lambda g: g * (
        cdf + v * (np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)))),))


def grad_check(f, x, eps=1e-5):
    """Max relative error between the tape gradient of `f` and central
    finite differences, coordinate by coordinate.

    `f` must be a pure scalar-valued function of one Tensor.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"grad_check eps {eps} outside [1e-7, 1e-3]")
    probe = Tensor(x.values.copy(), requires_grad=True, check=False)
    loss = f(probe)
    loss.backward()
    analytic = probe.grad.copy()

    base = x.values.copy()
    worst = 0.0
    flat = base.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(Tensor(base, check=False)).values)
        flat[i] = orig - eps
        lo = float(f(Tensor(base, check=False)).values)
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NumericError(f"non-finite finite-difference value at coordinate {i}")
        numeric = (hi - lo) / (2.0 * eps)
        a = analytic.reshape(-1)[i]
        rel = abs(a - numeric) / max(1.0, abs(a))
        worst = max(worst, rel)
    return worst


class Rng:
    """Deterministic random stream (PCG64), reproducible across platforms."""

    algorithm = "pcg64"

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, mean=0.0, std=1.0):
        return self._gen.normal(mean, std, size=shape)

    def uniform(self, shape, lo=0.0, hi=1.0):
        return self._gen.uniform(lo, hi, size=shape)

    def integers(self, lo, hi, size=None):
        return self._gen.integers(lo, hi, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def spawn(self, offset):
        """Derive an independent stream; deterministic in (seed, offset)."""
        return Rng((self.seed * 1_000_003 + offset) & 0xFFFFFFFFFFFFFFFF)
