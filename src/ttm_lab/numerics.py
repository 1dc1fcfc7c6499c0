"""Dense float64 tensors with a reverse-mode tape, plus a finite-difference checker.

Only the operations the rest of the library needs carry backward rules; this is
deliberately not a general autodiff framework. All arrays are float64 and every
public operation verifies its output is finite.
"""

import math

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
    mutated, and only during a single-threaded backward pass.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None,
                 check=True):
        self.values = np.asarray(values, dtype=np.float64)
        if check and not np.all(np.isfinite(self.values)):
            raise NumericError("tensor contains non-finite values")
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

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
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
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

        def visit(node):
            stack = [(node, False)]
            while stack:
                n, expanded = stack.pop()
                if expanded:
                    order.append(n)
                    continue
                if id(n) in seen:
                    continue
                seen.add(id(n))
                stack.append((n, True))
                for p in n._parents:
                    if id(p) not in seen:
                        stack.append((p, False))

        visit(self)
        self.grad = np.ones_like(self.values)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
        for node in order:
            if not node._parents and node.grad is not None \
                    and not np.all(np.isfinite(node.grad)):
                raise NumericError(
                    f"non-finite gradient at a leaf tensor of shape {node.shape}")

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=np.float64), check=False)

    def __add__(self, other):
        other = self._coerce(other)
        out = Tensor(self.values + other.values, _parents=(self, other),
                     _backward=None)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        out._backward = backward if out.requires_grad else None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.values, _parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        out._backward = backward if out.requires_grad else None
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = Tensor(self.values * other.values, _parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.values, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.values, other.shape))

        out._backward = backward if out.requires_grad else None
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out = Tensor(self.values / other.values, _parents=(self, other))

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.values, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -g * self.values / other.values ** 2, other.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def __pow__(self, exponent):
        exponent = float(exponent)
        out = Tensor(self.values ** exponent, _parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.values ** (exponent - 1.0))

        out._backward = backward if out.requires_grad else None
        return out

    def __matmul__(self, other):
        return matmul(self, other)

    # -- reductions and reshaping ------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.values.sum(axis=axis, keepdims=keepdims),
                     _parents=(self,))

        def backward(g):
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        out._backward = backward if out.requires_grad else None
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def reshape(self, *shape):
        out = Tensor(self.values.reshape(*shape), _parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def transpose(self, axis0=-2, axis1=-1):
        out = Tensor(np.swapaxes(self.values, axis0, axis1), _parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(np.swapaxes(g, axis0, axis1))

        out._backward = backward if out.requires_grad else None
        return out

    @property
    def T(self):
        return self.transpose()

    def __getitem__(self, index):
        out = Tensor(self.values[index], _parents=(self,))

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.values)
                np.add.at(full, index, g)
                self._accumulate(full)

        out._backward = backward if out.requires_grad else None
        return out

    def clip(self, lo, hi):
        """Clamp values to [lo, hi]; gradient passes only where unclipped."""
        out = Tensor(np.clip(self.values, lo, hi), _parents=(self,))
        mask = (self.values >= lo) & (self.values <= hi)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        out._backward = backward if out.requires_grad else None
        return out

    # -- elementwise nonlinearities ------------------------------------------

    # The backward rule of exp keeps the result array, not `out`: a closure
    # that refers to its own node makes a reference cycle, and the cycle
    # would hold the whole upstream tape until the cyclic collector ran.

    def exp(self):
        e = np.exp(self.values)
        out = Tensor(e, _parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * e)

        out._backward = backward if out.requires_grad else None
        return out

    def log(self):
        out = Tensor(np.log(self.values), _parents=(self,))

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.values)

        out._backward = backward if out.requires_grad else None
        return out


def concat(tensors, axis=0):
    """Concatenate along `axis` with a splitting backward rule."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis),
                 _parents=tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(g[tuple(idx)])

    out._backward = backward if out.requires_grad else None
    return out


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
    out = Tensor(a.values @ b.values, _parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g @ np.swapaxes(b.values, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.swapaxes(a.values, -1, -2) @ g, b.shape))

    out._backward = backward if out.requires_grad else None
    return out


def softmax_rows(x):
    """Row-wise softmax over the last axis, with max-subtraction."""
    x = Tensor._coerce(x)
    if x.values.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"softmax_rows needs a non-empty last axis, got {x.shape}")
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, _parents=(x,))

    def backward(g):
        if x.requires_grad:
            # dL/dx = p * (g - sum(g * p))
            inner = (g * p).sum(axis=-1, keepdims=True)
            x._accumulate(p * (g - inner))

    out._backward = backward if out.requires_grad else None
    return out


def sigmoid_map(x):
    """Elementwise logistic sigmoid 1 / (1 + exp(-x))."""
    x = Tensor._coerce(x)
    # evaluate on the stable side of the exponential in each branch
    v = x.values
    s = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                 np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
    out = Tensor(s, _parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    out._backward = backward if out.requires_grad else None
    return out


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
    out = Tensor(z * gain.values + bias.values, _parents=(x, gain, bias))

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * z).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gz = g * gain.values
            term = gz - gz.mean(axis=-1, keepdims=True) \
                - z * (gz * z).mean(axis=-1, keepdims=True)
            x._accumulate(term * inv)

    out._backward = backward if out.requires_grad else None
    return out


def gelu(x):
    """Exact (erf-based) GELU."""
    x = Tensor._coerce(x)
    v = x.values
    cdf = 0.5 * (1.0 + _erf(v / math.sqrt(2.0)))
    out = Tensor(v * cdf, _parents=(x,))

    def backward(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
            x._accumulate(g * (cdf + v * pdf))

    out._backward = backward if out.requires_grad else None
    return out


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
