"""Dense float64 tensors with a reverse-mode tape, plus a finite-difference checker.

Only the operations the rest of the library needs carry backward rules; this is
deliberately not a general autodiff framework. All arrays are float64 and every
public operation verifies its output is finite.

A forward kernel allocates only the arrays it returns or its vjp keeps, and
computes the rest in place: it writes only into arrays it has just created,
before any of them becomes a Tensor's values or is held by a vjp. That saves
an allocation and a pass over memory per temporary.

Importing this module keeps freed numpy buffers in the process heap. Under
glibc's defaults a freed array of 128 KiB or more (a 16-example slice's tape,
an n×n attention array) goes back to the OS, and the next array of that size
page-faults its memory in again. Where the C library has glibc's `mallopt`,
arrays under 32 MiB come from the heap and the heap is trimmed only past
1 GiB of free space at its top. The cost is that the process's resident
memory no longer shrinks after a peak. A process started with any MALLOC_
variable, or with glibc.malloc tunables in GLIBC_TUNABLES, keeps the
allocator as its user set it.
"""

import contextlib
import ctypes
import math
import os
import sys

import numpy as np

__all__ = [
    "NumericError",
    "DimensionError",
    "check_finite",
    "Tensor",
    "Rng",
    "matmul",
    "linear",
    "softmax_rows",
    "layer_norm",
    "gelu",
    "grad_check",
]


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Set glibc's mmap and trim thresholds; whether both were set.

    The mmap threshold goes first: setting either one freezes glibc's
    dynamic mmap threshold where it stands (128 KiB at start), and a trim
    threshold alone would then map and fault every n×n attention array
    afresh."""
    if (any(name.startswith("MALLOC_") for name in os.environ)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 1 << 30))


_HEAP_KEPT = _keep_freed_memory()


class NumericError(ArithmeticError):
    """A public operation produced a non-finite value."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _all_finite(v):
    """Whether every entry of the array v is finite.

    A C-ordered v is read first by one BLAS dot of v with itself. A NaN or an
    infinity makes that sum of squares NaN or infinite, so a finite sum
    proves every entry finite. A sum that is not finite holds such an entry
    or overflowed (an entry beyond about 1.3e154 in magnitude), and the ufunc
    reduction decides; the answer is exact either way. Any other layout goes
    to the ufunc reduction alone, since np.vdot would copy it first (a
    transposed (512, 512) array: 3.8 ms against 90 us for the reduction).
    """
    if v.flags.c_contiguous and math.isfinite(np.vdot(v, v)):
        return True
    return np.logical_and.reduce(np.isfinite(v), axis=None)


def check_finite(values, op):
    """`values`, after checking that every entry is finite; otherwise a
    NumericError names `op`, in the words a Tensor uses for its caller."""
    if not _all_finite(values):
        raise NumericError(f"{op} produced non-finite values of shape "
                           f"{values.shape}")
    return values


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
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _rational(coef_num, coef_den, z, lead):
    """Numerator and denominator polynomials in z, evaluated in Cody's
    nested order: start from lead * z and z, then add a coefficient and
    multiply by z once per coefficient pair. The caller adds the last
    constant terms."""
    num, den = lead * z, z.copy()
    for a, b in zip(coef_num, coef_den):
        num += a
        num *= z
        den += b
        den *= z
    return num, den


def _exp_neg_square(y):
    """exp(-y^2), with y^2 split so the exponent keeps its low-order bits:
    exp(-head * head) * exp(-(y - head) * (y + head))."""
    head = y * 16.0
    np.trunc(head, out=head)
    head /= 16.0
    out = np.negative(head)
    out *= head
    np.exp(out, out=out)
    low = y - head
    np.negative(low, out=low)
    head += y
    low *= head
    out *= np.exp(low, out=low)
    return out


def _one_minus(erfc):
    """(0.5 - erfc) + 0.5, written over erfc: 1 - erfc without losing the
    low bits of an erfc near 1/2."""
    np.subtract(0.5, erfc, out=erfc)
    erfc += 0.5
    return erfc


def _erf(x):
    """Elementwise erf, within 2.3e-16 of math.erf.

    Each of Cody's three ranges is gathered by index, evaluated on the
    elements that fall in it and scattered back, so no full-size temporary
    is kept per range. The result is C-ordered, so its flat view is never a
    copy, whatever the layout of x.
    """
    out = np.abs(x, order="C")  # a NaN falls in no range and stays NaN
    flat = out.reshape(-1)
    small = np.flatnonzero(flat <= 0.5)
    mid = np.flatnonzero((flat > 0.5) & (flat <= 4.0))
    big = np.flatnonzero(flat > 4.0)
    if small.size:
        ys = flat.take(small)
        num, den = _rational(_ERF_A[:3], _ERF_B[:3], ys * ys, _ERF_A[4])
        num += _ERF_A[3]
        num *= ys
        den += _ERF_B[3]
        num /= den
        flat[small] = num
    if mid.size:
        ym = flat.take(mid)
        num, den = _rational(_ERF_C[:7], _ERF_D[:7], ym, _ERF_C[8])
        num += _ERF_C[7]
        erfc = _exp_neg_square(ym)
        erfc *= num
        den += _ERF_D[7]
        erfc /= den
        flat[mid] = _one_minus(erfc)
    if big.size:
        yb = flat.take(big)
        np.minimum(yb, _ERFC_ZERO, out=yb)
        z = yb * yb
        np.divide(1.0, z, out=z)
        num, den = _rational(_ERF_P[:4], _ERF_Q[:4], z, _ERF_P[5])
        num += _ERF_P[4]
        num *= z
        den += _ERF_Q[4]
        num /= den
        erfc = _exp_neg_square(yb)
        erfc *= np.subtract(_RSQRT_PI, num, out=num)
        erfc /= yb
        flat[big] = _one_minus(erfc)
    return np.copysign(out, x, out=out)


def _same(g):
    return g


def _negated(g):
    return -g


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    if grad.shape != shape:
        axes = tuple(i for i, s in enumerate(shape)
                     if s == 1 and grad.shape[i] != 1)
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad


class Tensor:
    """A float64 array node on an implicit backward tape.

    Values are immutable by convention after construction; only `grad` is
    rebound, and only during a single-threaded backward pass. Every op builds
    its node here with one (parent, vjp) pair per operand, where `vjp` maps
    the node's gradient to that parent's; a node none of whose parents
    requires a gradient keeps no pairs, so it ends the tape. A vjp keeps the
    arrays it needs, never the node it belongs to: that reference would make
    a cycle, which holds the whole upstream tape until the cyclic collector
    runs.

    An interior node (one with parents) may share its gradient array with a
    child's gradient or with a view a vjp returned, so no vjp writes into the
    gradient it is handed, and a node adds a later contribution into a fresh
    array. A leaf owns its gradient and adds into it in place.

    A model's parameter is a leaf whose values are a view of its model's
    value buffer and whose gradient is written into `_grad_view`, its view
    of the model's gradient buffer (see model.ModelParams), once a training
    step has allocated it. That gradient is valid until the next backward
    after zero_grad, which writes the next one into the same view; a leaf
    without a `_grad_view` gets a fresh array.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_grad_view")
    # an ndarray on the left of + - * leaves the operation to the Tensor's
    # reflected method instead of building an object array of Tensors
    __array_ufunc__ = None

    def __init__(self, values, requires_grad=False, _parents=(), check=True):
        self.values = v = np.asarray(values, dtype=np.float64)
        if check and not _all_finite(v):
            # name the first caller outside this tensor's construction; a
            # wrapper around __init__ shares its `self`
            caller = sys._getframe(1)
            while caller.f_locals.get("self") is self:
                caller = caller.f_back
            raise NumericError(f"{caller.f_code.co_name} produced non-finite "
                               f"values of shape {v.shape}")
        self.grad = self._grad_view = None
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
        """Add the contribution g to this node's gradient.

        An interior node keeps its first g as it is when g and the values
        are both C-ordered; otherwise it copies g into an array laid out like
        the values, because the gradient feeds the matmuls of the node's
        vjps, whose BLAS summation order follows the layout. A later
        contribution goes into a fresh array of that layout, since the
        stored one may be shared. A leaf copies its first g as g + 0.0, into
        its `_grad_view` when it has one, and adds the rest in place.

        Adding 0.0 turns -0.0 into 0.0, as summing into zeros did. An
        interior gradient may keep a -0.0, but that changes no leaf bit: a
        vjp only multiplies, divides by values, adds and sums, where a -0.0
        in place of a 0.0 can flip only the sign of a zero result, and every
        leaf adds 0.0 to its first contribution.
        """
        if g.shape != self.values.shape:
            g = _unbroadcast(g, self.values.shape)
        if self.grad is None:
            if self._parents and g.flags.c_contiguous \
                    and self.values.flags.c_contiguous:
                self.grad = g
            else:
                out = self._grad_view
                self.grad = np.add(g, 0.0, out=np.empty_like(self.values)
                                   if out is None else out)
        elif self._parents:
            self.grad = np.add(self.grad, g, out=np.empty_like(self.values))
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from this (scalar) tensor.

        Raises NumericError if any leaf (a node without parents, such as a
        parameter) ends the sweep with a non-finite gradient. The gradients
        held in a model's gradient buffer are scanned as that one buffer.
        When a buffer scan fails, every leaf is scanned on its own, so the
        error names the shape of the first leaf that failed, and a region
        that got no gradient in this sweep (stale values from an aborted
        step) raises nothing.
        """
        if self.values.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        # post-order of a depth-first walk that takes each node's parents
        # last first; each stack entry holds the node's parents left to walk
        order = []
        seen = {self}
        stack = [(self, reversed(self._parents))]
        while stack:
            n, parents = stack[-1]
            for p, _ in parents:
                if p not in seen:
                    seen.add(p)
                    stack.append((p, reversed(p._parents)))
                    break
            else:
                stack.pop()
                order.append(n)
        self.grad = np.ones_like(self.values)
        for node in reversed(order):
            for parent, vjp in node._parents:
                if parent.requires_grad:
                    parent._accumulate(vjp(node.grad))
        leaves, loose, buffers = [], [], {}
        for node in order:
            if not node._parents and node.grad is not None:
                leaves.append(node)
                if node.grad is node._grad_view:
                    buffers[id(node.grad.base)] = node.grad.base
                else:
                    loose.append(node)
        if not all(_all_finite(b) for b in buffers.values()):
            loose = leaves
        for node in loose:
            if not _all_finite(node.grad):
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

    def __rtruediv__(self, other):
        a = self.values
        return Tensor(other / a, _parents=(
            (self, lambda g: -g * other / a ** 2),))

    def __pow__(self, exponent):
        exponent = float(exponent)
        a = self.values
        return Tensor(a ** exponent, _parents=(
            (self, lambda g: g * exponent * a ** (exponent - 1.0)),))

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    # -- reductions and reshaping ------------------------------------------

    def sum(self, axis=None):
        shape = self.shape
        dropped = () if axis is None else axis
        out = np.add.reduce(self.values, axis=axis)
        return Tensor(out, _parents=(
            (self, lambda g: np.broadcast_to(np.expand_dims(g, dropped), shape)),))

    def mean(self, axis=None):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis) / float(n)

    def reshape(self, *shape):
        old = self.shape
        return Tensor(self.values.reshape(*shape),
                      _parents=((self, lambda g: g.reshape(old)),))

    def transpose(self):
        """The last two axes swapped."""
        return Tensor(self.values.swapaxes(-1, -2), _parents=(
            (self, lambda g: g.swapaxes(-1, -2)),))

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
        (a, lambda g: g @ bv.swapaxes(-1, -2)),
        (b, lambda g: av.swapaxes(-1, -2) @ g)))


def linear(x, W, b):
    """x @ W + b as one node: a dense layer with a bias.

    Values and gradients are those of matmul followed by +, bit for bit: the
    product's gradient is the node's own, as the + node handed it on.
    """
    xv, wv = x.values, W.values
    out = xv @ wv
    out += b.values
    return Tensor(out, _parents=(
        (x, lambda g: g @ wv.swapaxes(-1, -2)),
        (W, lambda g: xv.swapaxes(-1, -2) @ g),
        (b, _same)))


def _spread(v, rows, n):
    """The array v placed at the rows `rows` (a slice of the second-to-last
    axis) of an n-row array of zeros."""
    full = np.zeros(v.shape[:-2] + (n, v.shape[-1]))
    full[..., rows, :] = v
    return full


def _linear_rows(x, W, b, rows, n):
    """linear(x, W, b), or x @ W when b is None, at the rows `rows` (a
    slice) of an n-row operand that holds x's rows there and zeros
    elsewhere: one node, whose output and x's gradient cover only those rows.

    Each product is taken at the full (..., n, k) shape, so BLAS sums each
    kept row as the full product does: a product of the kept rows alone can
    go to another kernel (gemv, for one row) and round differently. Values
    and gradients are those of the chain spread x -> linear -> take the
    rows, bit for bit.
    """
    xv, wv = x.values, W.values
    kept = (_spread(xv, rows, n) @ wv)[..., rows, :]

    def dx(g):
        return (_spread(g, rows, n) @ wv.swapaxes(-1, -2))[..., rows, :]

    def dW(g):
        return _spread(xv, rows, n).swapaxes(-1, -2) @ _spread(g, rows, n)

    parents = ((x, dx), (W, dW))
    if b is None:
        return Tensor(kept.copy(), _parents=parents)
    return Tensor(np.add(kept, b.values), _parents=(*parents, (b, _same)))


# Softmax rows of k entries, _COLUMN_KEYS[0] <= k <= _COLUMN_KEYS[1], go
# through a (k, rows) layout when there are at least _COLUMN_MIN_ROWS rows
# and at most _COLUMN_MAX_SIZE entries in all; see _softmax.
_COLUMN_KEYS = (2, 16)
_COLUMN_MIN_ROWS = 256
_COLUMN_MAX_SIZE = 1 << 17
# Rows of at least _SMALL_BUFFER_MIN_KEYS entries run the row path's two
# broadcasts with numpy's ufunc buffer at _SMALL_BUFFER elements; see
# _softmax.
_SMALL_BUFFER_MIN_KEYS = 192
_SMALL_BUFFER = 64


def _column_sums(cols):
    """np.add.reduce(rows, axis=-1) of the C-ordered (R, k) array whose
    transpose is cols, 1 <= k <= 128, bit for bit, as k vector adds over
    cols' rows.

    It replays numpy's pairwise summation of a contiguous row: fewer than 8
    entries are added one after another; from 8 entries on, entry j goes to
    running sum j % 8 for the first k - k % 8 entries, the eight sums are
    added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the last
    k % 8 entries follow in order. The reduction starts from 0.0, which
    turns a sum of -0.0s into 0.0. (np.add.reduce(cols, axis=0) adds the
    entries in order instead, and rounds differently from 8 entries on.)
    """
    k = len(cols)
    if k < 8:
        s = cols[0] + 0.0
        for row in cols[1:]:
            s += row
        return s
    whole = k - k % 8
    r = cols[:8]
    if whole > 8:
        r = r + cols[8:16]
        for lo in range(16, whole, 8):
            r += cols[lo:lo + 8]
    s = r[0] + r[1]
    s += r[2] + r[3]
    t = r[4] + r[5]
    t += r[6] + r[7]
    s += t
    for row in cols[whole:]:
        s += row
    s += 0.0
    return s


@contextlib.contextmanager
def _small_buffer():
    """numpy's ufunc buffer at _SMALL_BUFFER elements inside the block.
    np.errstate restores the buffer size and the error state on exit, also
    when the block raises."""
    with np.errstate():
        np.setbufsize(_SMALL_BUFFER)
        yield


def _softmax(v, out=None):
    """Softmax over the last axis of the array v, written into out (v itself
    may be out) or a new array: subtract each row's max, exponentiate in
    place, divide by the row sum. Finite v gives entries in [0, 1]: every
    exp is of a value <= 0, and the row max adds exp(0) = 1 to the sum.

    numpy pays about 100 ns per row for a reduction or a broadcast against
    a (..., 1) operand, so short rows cost far more than their arithmetic.
    A C-ordered v of rows of 2 to 16 entries, at least 256 rows and at most
    2**17 entries (and a C-ordered out, when given) is copied into one
    C-ordered (k, rows) array instead, where each pass is one ufunc over
    long contiguous rows: the max is np.maximum down axis 0, the sum
    `_column_sums`, and the result is copied back. On a 2-core host with
    one BLAS thread that path is 1.2-3.6x faster than the row layout at
    256-1,024 rows for every such k (a (64, 2, 8, 8) array: 192 -> 81 us).
    It loses at one entry per row, below about 128 rows, from about 32
    entries per row, and from about 2**19 entries, where the two transposed
    copies no longer fit in the cache.

    Every other input takes the row layout, computed in C order: a strided
    v is copied, and a strided out is written from a C-ordered result,
    since numpy sums a strided row in another order than a contiguous one.
    Long rows pay there for numpy's ufunc buffer (8,192 elements) instead:
    a broadcast against a (..., 1) operand over rows shorter than the
    buffer fills it across rows, copying the operand into it: at (512,
    512) the subtract took 1.9-2.3x as long as the subtract of a scalar.
    With a 64-element buffer (`_small_buffer`) it took 1.1-1.3x, and the
    divide gains alike, with the same bits. One (n, n) softmax with out=v
    on the 2-core host, default -> small buffer: n = 192 139 -> 132 us,
    224 183 -> 167, 256 232 -> 206, 341 403 -> 346, 512 953 -> 805, 1,024
    4,315 -> 3,718 (runs spread by about 5% up to n = 256); below 192,
    160 126 -> 141 and 128 83 -> 105. So rows of 192 entries or more take
    the small buffer: gsot's n x n scores from n = 192 on. The two blocks
    cost a fixed 5-9 us, more than they save in an array of 2**15 entries
    or fewer (64 rows of 256: +5%), and rows of 6,144 entries or more, two
    of which no longer fit in the buffer, save nothing (+1%); every library
    softmax is n x n per head, so it meets the first case never and the
    second only from n = 6,144 on. The max, the exp and the sum run with
    numpy's buffer as the caller set it.

    Both layouts give every entry the same bits: the max, subtract, exp and
    divide are exact or elementwise, and `_column_sums` adds each row in
    np.add.reduce's order. So a slice's loss does not depend on how many
    examples share its forward pass.
    """
    k = v.shape[-1]
    if (_COLUMN_KEYS[0] <= k <= _COLUMN_KEYS[1]
            and _COLUMN_MIN_ROWS * k <= v.size <= _COLUMN_MAX_SIZE
            and v.flags.c_contiguous
            and (out is None or out.flags.c_contiguous)):
        cols = v.reshape(-1, k).T.copy()
        cols -= np.maximum.reduce(cols, axis=0)
        np.exp(cols, out=cols)
        cols /= _column_sums(cols)
        if out is None:
            out = np.empty(v.shape)
        out.reshape(-1, k)[...] = cols.T
        return out
    dest = out
    if not v.flags.c_contiguous:
        v = out = np.ascontiguousarray(v)
    elif out is not None and not out.flags.c_contiguous:
        out = None
    block = (_small_buffer if k >= _SMALL_BUFFER_MIN_KEYS
             else contextlib.nullcontext)
    m = np.maximum.reduce(v, axis=-1, keepdims=True)
    with block():
        out = np.subtract(v, m, out=out)
    np.exp(out, out=out)
    s = np.add.reduce(out, axis=-1, keepdims=True)
    with block():
        out /= s
    if dest is None or dest is out:
        return out
    dest[...] = out
    return dest


def softmax_rows(x):
    """Row-wise softmax over the last axis, with max-subtraction.

    The values are `_softmax`'s: many short rows (2 to 16 entries, at least
    256 rows, at most 2**17 entries) go through a column layout that skips
    numpy's per-row reduction cost, and rows of 192 entries or more take
    their broadcasts with a small ufunc buffer, each with the bits the row
    layout gives in C order."""
    x = Tensor._coerce(x)
    if x.values.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"softmax_rows needs a non-empty last axis, got {x.shape}")
    p = _softmax(x.values)
    # dL/dx = p * (g - sum(g * p))
    return Tensor(p, _parents=(
        (x, lambda g: p * (g - np.add.reduce(g * p, axis=-1,
                                             keepdims=True))),))


def _sigmoid(v):
    """Elementwise 1 / (1 + exp(-v)) of an array, evaluated on the stable
    side of the exponential in each branch. Its derivative is s * (1 - s)."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def _layer_norm(v, gain, bias, out=None):
    """layer_norm's arithmetic on the array v, its deviations written into
    out (v itself may be out) or a new array: the output, the vjp of v, and
    the (parent, vjp) pairs of gain and bias."""
    d = v.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.shape} "
            f"and {bias.shape}")
    # np.mean's and np.var's own arithmetic, without their Python wrappers:
    # a row sum divided by d, of the values and of the squared deviations
    z = np.subtract(v, np.add.reduce(v, axis=-1, keepdims=True) / d, out=out)
    var = np.add.reduce(z * z, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    z *= inv
    gv = gain.values

    def dv(g):
        gz = g * gv
        term = gz - np.add.reduce(gz, axis=-1, keepdims=True) / d \
            - z * (np.add.reduce(gz * z, axis=-1, keepdims=True) / d)
        return term * inv

    y = z * gv
    y += bias.values
    return y, dv, (
        (gain, lambda g: np.add.reduce((g * z).reshape(-1, d), axis=0)),
        (bias, lambda g: np.add.reduce(g.reshape(-1, d), axis=0)))


def layer_norm(x, gain, bias):
    """Normalize each row of the last axis to zero mean / unit variance (with
    1e-5 added to the variance), then apply gain and bias."""
    x = Tensor._coerce(x)
    out, dx, affine = _layer_norm(x.values, Tensor._coerce(gain),
                                  Tensor._coerce(bias))
    return Tensor(out, _parents=((x, dx), *affine))


def _once(vjp):
    """vjp, computed once per gradient: the result for the last gradient
    handed in is kept, so every operand of a node that calls it gets that
    one array."""
    memo = [None, None]

    def shared(g):
        if memo[0] is not g:
            memo[:] = g, vjp(g)
        return memo[1]

    return shared


def _add_layer_norm(x, y, gain, bias, rows=None):
    """layer_norm(x + y, gain, bias) as one node: a residual add and the
    LayerNorm after it.

    Values and gradients are those of the + and layer_norm chain, bit for
    bit. The sum is x.values + y.values, as the + node computed it, and is
    centred in place, so it is not kept. Its gradient is layer_norm's input
    gradient, computed once per backward: the vjp keeps the last gradient it
    was handed and its result, and both operands get that same array, as
    both parents of the + node got its gradient.

    With `rows`, a slice of the second-to-last axis, the node is the chain's
    at those rows alone: its output holds only them, and the operands'
    gradient is zero in every other row. Each row is normalized on its own,
    so the kept rows keep their bits.
    """
    xv, yv = x.values, y.values
    if rows is not None:
        xv, yv = xv[..., rows, :], yv[..., rows, :]
    s = xv + yv
    out, ds, affine = _layer_norm(s, gain, bias, out=s)
    if rows is not None:
        ds_rows, n = ds, x.shape[-2]

        def ds(g):
            return _spread(ds_rows(g), rows, n)
    dsum = _once(ds)
    return Tensor(out, _parents=((x, dsum), (y, dsum), *affine))


def _linear_add_layer_norm(x, h, W, b, gain, bias):
    """_add_layer_norm(x, linear(h, W, b), gain, bias) as one node: a dense
    layer, the residual add after it and the LayerNorm after that.

    Values and gradients are those of that chain, bit for bit. The dense
    layer's output is computed as linear computes it, and x is added into
    it in place, since the sum of two floats does not depend on their
    order. The sum's gradient, once per backward, goes to x and to b as it
    is, and to h and W through the dense layer's products, as the linear
    node handed it on.
    """
    hv, wv = h.values, W.values
    s = hv @ wv
    s += b.values
    s += x.values
    out, ds, affine = _layer_norm(s, gain, bias, out=s)
    dsum = _once(ds)
    return Tensor(out, _parents=(
        (x, dsum), (h, lambda g: dsum(g) @ wv.swapaxes(-1, -2)),
        (W, lambda g: hv.swapaxes(-1, -2) @ dsum(g)), (b, dsum), *affine))


def gelu(x):
    """Exact (erf-based) GELU."""
    x = Tensor._coerce(x)
    v = x.values
    cdf = _erf(v / math.sqrt(2.0))
    cdf += 1.0
    cdf *= 0.5

    def dx(g):
        # g * (cdf + v * exp(-v^2 / 2) / sqrt(2 pi)), in one buffer
        out = np.multiply(v, -0.5)
        out *= v
        np.exp(out, out=out)
        out /= _SQRT_2PI
        out *= v
        out += cdf
        out *= g
        return out

    return Tensor(v * cdf, _parents=((x, dx),))


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

    def spawn(self, offset):
        """Derive an independent stream; deterministic in (seed, offset)."""
        return Rng((self.seed * 1_000_003 + offset) & 0xFFFFFFFFFFFFFFFF)
