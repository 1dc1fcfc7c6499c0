"""The in-place kernels and the fused nodes against the expressions they
replaced, gradient sharing against the copying tape it replaced, backward's
walk against the stack walk it replaced, and the kernels' allocation bounds.

Each reference below is a kernel as it was written before it computed its
temporaries in place, or the chain of tape nodes a fused node stands in for.
Values and gradients must match it bit for bit: arrays are compared as int64
views, so a -0.0 against a 0.0 or a different NaN payload fails too. A
backward runs with every stored interior gradient read-only, so a vjp that
writes into the gradient it was handed raises, and a reference runs once
more under `copying_accumulate`, the rule under which every node owned a
copy of its gradient with -0.0 turned into 0.0. The allocation guards
measure the peak of numpy's traced allocations during one forward call, or
the bytes a forward leaves alive, which do not depend on the host.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab import model as model_mod
from ttm_lab import numerics
from ttm_lab.attention import (AttentionParams, _baseline_values, _modulated,
                               _project, _scaled_scores, attention_baseline,
                               merge_heads)
from ttm_lab.gsot import GsotConfig, build_universe, gsot_pipeline
from ttm_lab.model import (VARIANTS, ModelConfig, ModelParams, _scaled_by_mean,
                           model_forward)
from ttm_lab.numerics import (NumericError, Rng, Tensor, _add_layer_norm,
                              _erf, _linear_add_layer_norm, _linear_rows,
                              _sigmoid, _unbroadcast, gelu, layer_norm,
                              linear, softmax_rows)
from ttm_lab.temperature import (TemperatureHeadParams, collapse_penalty,
                                 compute_temperature, squash)
from ttm_lab.training import (ARITH_VOCAB, EVAL_SLICE, Example, TaskSpec,
                              TrainConfig, cross_entropy, dataset_loss,
                              evaluate, make_task, train)

# -- references: the pre-change expressions -----------------------------------


def ref_rational(coef_num, coef_den, z, lead):
    num, den = lead * z, z
    for a, b in zip(coef_num, coef_den):
        num = (num + a) * z
        den = (den + b) * z
    return num, den


def ref_exp_neg_square(y):
    head = np.trunc(y * 16.0) / 16.0
    return np.exp(-head * head) * np.exp(-(y - head) * (y + head))


def ref_erf(x):
    A, B, C, D, P, Q = (numerics._ERF_A, numerics._ERF_B, numerics._ERF_C,
                        numerics._ERF_D, numerics._ERF_P, numerics._ERF_Q)
    y = np.abs(x)
    out = y.copy()
    small = y <= 0.5
    ys = y[small]
    num, den = ref_rational(A[:3], B[:3], ys * ys, A[4])
    out[small] = ys * (num + A[3]) / (den + B[3])
    mid = (y > 0.5) & (y <= 4.0)
    ym = y[mid]
    num, den = ref_rational(C[:7], D[:7], ym, C[8])
    erfc = ref_exp_neg_square(ym) * (num + C[7]) / (den + D[7])
    out[mid] = (0.5 - erfc) + 0.5
    big = y > 4.0
    yb = np.minimum(y[big], numerics._ERFC_ZERO)
    z = 1.0 / (yb * yb)
    num, den = ref_rational(P[:4], Q[:4], z, P[5])
    tail = z * (num + P[4]) / (den + Q[4])
    erfc = ref_exp_neg_square(yb) * (numerics._RSQRT_PI - tail) / yb
    out[big] = (0.5 - erfc) + 0.5
    return np.copysign(out, x)


def ref_softmax_rows(x):
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return Tensor(p, _parents=(
        (x, lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True))),))


def ref_layer_norm(x, gain, bias, eps=1e-5):
    d = x.shape[-1]
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


def ref_gelu(x):
    v = x.values
    cdf = 0.5 * (1.0 + ref_erf(v / math.sqrt(2.0)))
    return Tensor(v * cdf, _parents=((x, lambda g: g * (
        cdf + v * (np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)))),))


def ref_scores(qkv, scale):
    q, k = qkv[..., 0, :, :], qkv[..., 1, :, :]
    return (q @ k.T) * scale


def ref_merge_heads(head_values, W_o):
    *lead, h, n, d_k = head_values.shape
    return Tensor(np.swapaxes(head_values.values, -3, -2), _parents=(
        (head_values, lambda g: np.swapaxes(g, -3, -2)),)
    ).reshape(*lead, n, h * d_k) @ W_o


def ref_weighted_merge(weights, v, W_o):
    """merge_heads as the chain it stands in for: weights @ v as a node of
    its own, then the transpose, reshape and matmul chain."""
    return ref_merge_heads(weights @ v, W_o)


def ref_modulated(outer):
    """_modulated as the chain it stands in for: the field reshaped to a
    row (and with `outer` to a column, the two multiplied), then multiplied
    into the logits."""
    def run(pre, field):
        *lead, h, n = field.shape
        mod = field.reshape(*lead, h, 1, n)
        if outer:
            mod = field.reshape(*lead, h, n, 1) * mod
        return pre * mod
    return run


def ref_compute_temperature(eps_min):
    """compute_temperature as the chain it stands in for."""
    return lambda a, W_t, b_t: squash(linear(a, W_t.T, b_t), eps_min).T


def ref_scaled_by_mean(logits, field):
    """_scaled_by_mean as the chain it stands in for: the field summed over
    its last two axes with the axes kept, as Tensor.sum did with keepdims,
    divided by their size, and multiplied into the logits."""
    shape = field.shape
    total = Tensor(np.add.reduce(field.values, axis=(-2, -1), keepdims=True),
                   _parents=((field, lambda g: np.broadcast_to(g, shape)),))
    return logits * (total / float(shape[-2] * shape[-1]))


def ref_project(x, W_qkv):
    *lead, n, d = x.shape
    return x.reshape(*lead, 1, 1, n, d) @ W_qkv


def ref_attention_baseline(x, params):
    qkv = ref_project(x, params.W_qkv)
    q, k, v = (qkv[..., i, :, :] for i in range(3))
    pre = q @ k.T * (1.0 / np.sqrt(params.d_k))
    weights = softmax_rows(pre)
    values = ref_merge_heads(weights @ v, params.W_o)
    return values + weights.sum() + pre.sum()


def ref_linear(x, W, b):
    return x @ W + b


def ref_linear_rows(rows, n, bias=True):
    """_linear_rows as the chain it stands in for: x's rows spread into an
    n-row array of zeros, linear (or matmul) at that shape, then the kept
    rows taken."""
    def run(x, W, *b):
        spread = np.zeros(x.shape[:-2] + (n, x.shape[-1]))
        spread[..., rows, :] = x.values
        full = Tensor(spread, _parents=((x, lambda g: g[..., rows, :]),))
        out = linear(full, W, *b) if bias else full @ W
        return out[..., rows, :]
    return run


def ref_sigmoid(x):
    """The logistic sigmoid as a node of its own."""
    s = _sigmoid(x.values)
    return Tensor(s, _parents=((x, lambda g: g * s * (1.0 - s)),))


def ref_squash(eps_min):
    return lambda logits: ref_sigmoid(logits) * (1.0 - 2.0 * eps_min) + eps_min


def ref_collapse_penalty(field):
    return ((field - 0.5) ** 2).sum()


def ref_cross_entropy(targets, mask):
    def run(logits):
        per_example = mask.sum(axis=-1)
        rows = np.nonzero(mask)
        shift = logits.values.max(axis=-1, keepdims=True)
        z = (logits - shift).exp().sum(axis=-1).log() \
            + Tensor(shift[..., 0], check=False)
        picked = logits[rows + (targets[rows],)]
        weight = 1.0 / (per_example[rows[:-1]] * float(per_example.size))
        return ((z[rows] - picked) * weight).sum()
    return run


# -- the tape's accumulation rules --------------------------------------------

shared_accumulate = Tensor._accumulate


def copying_accumulate(self, g):
    """Tensor._accumulate before interior nodes shared their gradients:
    every node copies its first contribution as g + 0.0 into an array laid
    out like its values and adds the rest in place."""
    if g.shape != self.values.shape:
        g = _unbroadcast(g, self.values.shape)
    if self.grad is None:
        self.grad = np.add(g, 0.0, out=np.empty_like(self.values))
    else:
        self.grad += g


def read_only_accumulate(self, g):
    """Tensor._accumulate, with an interior node's stored gradient then made
    read-only; a numpy scalar gradient is immutable already."""
    shared_accumulate(self, g)
    if self._parents and isinstance(self.grad, np.ndarray):
        self.grad.flags.writeable = False


def under(rule, fn, *args):
    """fn(*args) with `rule` as Tensor._accumulate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tensor, "_accumulate", rule)
        return fn(*args)


# -- helpers -----------------------------------------------------------------


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


SHAPES = [(8, 5), (2, 3, 6, 6)]
# signed zeros, subnormals and the float extremes a logit can reach
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300,
                  -1e300, 1.0, -3.5])
# the same, with extremes whose products and squares stay finite
FINITE_PRODUCTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                            1e150, -1e150, 1.0, -3.5])


def inputs(shape, seed, edges=EDGES, scale=3.0):
    """A random array of `shape` whose leading entries are `edges`."""
    x = Rng(seed).normal(shape, 0.0, scale).reshape(-1)
    x[:edges.size] = edges
    return x.reshape(shape)


def run_both(kernel, reference, arrays, seed, upstream=None):
    """Values and leaf gradients of kernel and reference on the same leaves,
    under one random upstream gradient, or `upstream(shape)` when given.

    Both run with read-only interior gradients; the reference runs a second
    time under the copying rule, and its results come last."""

    def run(fn):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*leaves)
        w = Rng(seed).normal(out.shape) if upstream is None \
            else upstream(out.shape)
        (out * w).sum().backward()
        return out.values, [t.grad for t in leaves]

    return [under(read_only_accumulate, run, kernel),
            under(read_only_accumulate, run, reference),
            under(copying_accumulate, run, reference)]


def tiny_upstream(shape):
    """An upstream gradient led by signed zeros and subnormals, which turn
    into -0.0 when a vjp scales them down; a scalar one is -5e-324."""
    if not shape:
        return -5e-324
    return inputs(shape, 10, edges=EDGES[:6], scale=1.0)


def assert_same(results):
    (got, got_grads), *wants = results
    for want, want_grads in wants:
        assert_bits_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            assert_bits_equal(g, w)


# -- parity ------------------------------------------------------------------


class TestErfParity:
    def test_every_range_and_special_value(self):
        edges = [0.0, 0.5, 4.0, 6.0, 27.0, 30.0]
        x = np.concatenate([
            np.linspace(-8.0, 8.0, 4001),
            [np.nextafter(e, t) for e in edges for t in (-np.inf, np.inf)],
            edges, EDGES, [np.inf, -np.inf, np.nan, -np.nan]])
        x = np.concatenate([x, -x])
        got = _erf(x)
        assert_bits_equal(got, ref_erf(x))
        assert np.isnan(got[np.isnan(x)]).all()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_shapes(self, shape):
        x = inputs(shape, 1)
        assert_bits_equal(_erf(x), ref_erf(x))

    def test_transposed_input(self):
        x = inputs((7, 12), 13).T
        got = _erf(x)
        assert got.flags.c_contiguous
        assert_bits_equal(got, ref_erf(x))

    @pytest.mark.parametrize("lo, hi", [(0.0, 0.5),
                                        (np.nextafter(0.5, 1.0), 4.0),
                                        (np.nextafter(4.0, 5.0), 30.0)])
    def test_one_range_at_a_time(self, lo, hi):
        # every |x| in the one range [lo, hi], so the other two are empty:
        # its first and last values and their neighbours inside it
        x = np.concatenate([np.linspace(lo, hi, 257),
                            [np.nextafter(lo, hi), np.nextafter(hi, lo)]])
        x = np.concatenate([x, -x])[::-1].reshape(2, -1)
        assert_bits_equal(_erf(x), ref_erf(x))

    def test_empty_input(self):
        assert _erf(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("shape", SHAPES)
class TestKernelParity:
    def test_softmax_rows(self, shape):
        assert_same(run_both(softmax_rows, ref_softmax_rows,
                             [inputs(shape, 2)], 3))

    def test_layer_norm(self, shape):
        # squares of +-1e300 overflow the variance; +-1e150 is the largest
        # scale whose variance stays finite
        x = inputs(shape, 4, edges=np.array(
            [0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150, 2.0]))
        d = shape[-1]
        gain, bias = Rng(5).normal((2, d))
        assert_same(run_both(layer_norm, ref_layer_norm, [x, gain, bias], 6))

    def test_add_layer_norm(self, shape):
        # the residual sum's extremes are the largest whose variance stays
        # finite; x + x runs the sum's gradient into one parent twice
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 5e149, -5e149, 2.0])
        x, y = inputs(shape, 30, edges=edges), inputs(shape, 31, edges=edges)
        d = shape[-1]
        gain, bias = Rng(32).normal((2, d))
        for upstream in (None, tiny_upstream):
            assert_same(run_both(
                _add_layer_norm, lambda a, b, g, c: layer_norm(a + b, g, c),
                [x, y, gain, bias], 33, upstream))
            assert_same(run_both(
                lambda a, g, c: _add_layer_norm(a, a, g, c),
                lambda a, g, c: layer_norm(a + a, g, c), [x, gain, bias], 34,
                upstream))

    def test_linear_add_layer_norm(self, shape):
        # h @ W + b added to x: the dense layer's extremes keep the sum's
        # variance finite; x + the layer of x runs the sum's gradient into
        # one parent twice
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 5e74, -5e74, 2.0])
        d = shape[-1]
        rng = Rng(50)
        x, h = inputs(shape, 51, edges=edges), inputs(shape, 52, edges=edges)
        w, gain = rng.normal((d, d)), rng.normal((d,))
        b, bias = rng.normal((d,)), rng.normal((d,))
        for upstream in (None, tiny_upstream):
            assert_same(run_both(
                _linear_add_layer_norm,
                lambda a, c, W, e, g, f: _add_layer_norm(
                    a, linear(c, W, e), g, f),
                [x, h, w, b, gain, bias], 53, upstream))
            assert_same(run_both(
                lambda a, W, e, g, f: _linear_add_layer_norm(a, a, W, e, g, f),
                lambda a, W, e, g, f: layer_norm(a + linear(a, W, e), g, f),
                [x, w, b, gain, bias], 54, upstream))

    def test_scaled_by_mean(self, shape):
        # shape is the logits' (..., n, vocab); a two-head field, C-ordered
        # and as the transposed view compute_temperature gives
        *lead, n, _ = shape
        logits = inputs(shape, 55, edges=FINITE_PRODUCTS)
        field = Rng(56).uniform((*lead, n, 2), 0.01, 0.99)
        for f in (field.swapaxes(-1, -2), field.swapaxes(-1, -2).copy()):
            for upstream in (None, tiny_upstream):
                assert_same(run_both(_scaled_by_mean, ref_scaled_by_mean,
                                     [logits, f], 57, upstream))

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(4, 5), slice(1, 4)])
    def test_add_layer_norm_rows(self, shape, rows):
        # the fused node cut to some rows against the full node's rows
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 5e149, -5e149, 2.0])
        x, y = inputs(shape, 36, edges=edges), inputs(shape, 37, edges=edges)
        gain, bias = Rng(38).normal((2, shape[-1]))
        # one row of (8, 5) has room for five of tiny_upstream's six edges
        five_edges = lambda s: inputs(s, 10, edges=EDGES[:5], scale=1.0)
        for upstream in (None, five_edges):
            assert_same(run_both(
                lambda a, b, g, c: _add_layer_norm(a, b, g, c, rows),
                lambda a, b, g, c: _add_layer_norm(a, b, g, c)[..., rows, :],
                [x, y, gain, bias], 39, upstream))

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(4, 5), slice(1, 4)])
    def test_linear_rows(self, shape, rows):
        *lead, n, d = shape
        kept = (*lead, len(range(n)[rows]), d)
        rng = Rng(40)
        x = inputs(kept, 41, edges=FINITE_PRODUCTS[:math.prod(kept)])
        w, b = rng.normal((d, 7)), rng.normal((7,))
        assert_same(run_both(lambda *t: _linear_rows(*t, rows, n),
                             ref_linear_rows(rows, n), [x, w, b], 42,
                             tiny_upstream))
        assert_same(run_both(lambda t, W: _linear_rows(t, W, None, rows, n),
                             ref_linear_rows(rows, n, bias=False), [x, w],
                             43, tiny_upstream))

    def test_gelu(self, shape):
        with np.errstate(over="ignore"):
            assert_same(run_both(gelu, ref_gelu, [inputs(shape, 7)], 8))

    def test_scaled_scores(self, shape):
        # q and k are strided views of one stacked projection
        *lead, n, _ = shape
        qkv = inputs((*lead, 3, n, 4), 9, scale=1.0)
        for s in (0.5, 1.0 / np.sqrt(3)):
            assert_same(run_both(lambda t: _scaled_scores(t, s),
                                 lambda t: ref_scores(t, s), [qkv], 10,
                                 tiny_upstream))

    def test_project(self, shape):
        *lead, n, d = shape
        for h in (1, 2):
            w = Rng(h).normal((h, 3, d, 4))
            assert_same(run_both(_project, ref_project,
                                 [inputs(shape, 15, edges=EDGES[:6]), w], 16,
                                 tiny_upstream))

    def test_merge_heads(self, shape):
        # (h, n, d_k) are the last three axes of (2, *shape); with one head
        # the heads' swapped gradient is C-ordered already
        for stacked in ((2, *shape), (2, *shape[:-2], 1, *shape[-2:])):
            *lead, h, n, d_k = stacked
            weights = Rng(17).uniform((*lead, h, n, n))
            weights[..., 0] = 0.0
            v = inputs(stacked, 17, edges=FINITE_PRODUCTS)
            w = Rng(18).normal((h * d_k, 7))
            assert_same(run_both(merge_heads, ref_weighted_merge,
                                 [weights, v, w], 19, tiny_upstream))

    @pytest.mark.parametrize("outer", [False, True])
    def test_modulated(self, shape, outer):
        # the field is (..., h, n + 8), as rows of 8 or more entries are
        # summed pairwise, in an order their layout decides; it is tried
        # C-ordered and as the transposed view compute_temperature gives
        *lead, h, n = shape
        n += 8
        pre = inputs((*lead, h, n, n), 44, edges=FINITE_PRODUCTS)
        field = Rng(45).uniform((*lead, n, h), 0.01, 0.99)
        field.reshape(-1)[:3] = [0.0, -0.0, 5e-324]
        for f in (field.swapaxes(-1, -2), field.swapaxes(-1, -2).copy()):
            for upstream in (None, tiny_upstream):
                assert_same(run_both(
                    lambda a, b: _modulated(a, b, outer),
                    ref_modulated(outer), [pre, f], 46, upstream))

    @pytest.mark.parametrize("eps_min", [0.01, 0.2])
    def test_compute_temperature(self, shape, eps_min):
        # shape is the activations' (..., n, d); three heads
        d = shape[-1]
        rng = Rng(47)
        arrays = [inputs(shape, 48, edges=FINITE_PRODUCTS),
                  rng.normal((3, d)), rng.normal((3,))]

        def kernel(a, W_t, b_t):
            return compute_temperature(a, TemperatureHeadParams(
                W_t=W_t, b_t=b_t, eps_min=eps_min))

        for upstream in (None, tiny_upstream):
            assert_same(run_both(kernel, ref_compute_temperature(eps_min),
                                 arrays, 49, upstream))

    def test_linear(self, shape):
        d = shape[-1]
        rng = Rng(20)
        arrays = [inputs(shape, 21, edges=FINITE_PRODUCTS),
                  rng.normal((d, 7)), rng.normal((7,))]
        assert_same(run_both(linear, ref_linear, arrays, 22, tiny_upstream))

    @pytest.mark.parametrize("eps_min", [0.01, 0.2])
    def test_squash(self, shape, eps_min):
        assert_same(run_both(lambda t: squash(t, eps_min), ref_squash(eps_min),
                             [inputs(shape, 23)], 24, tiny_upstream))

    def test_collapse_penalty(self, shape):
        field = inputs(shape, 25, edges=np.append(FINITE_PRODUCTS, 0.5))
        for upstream in (None, tiny_upstream):
            assert_same(run_both(collapse_penalty, ref_collapse_penalty,
                                 [field], 26, upstream))

    def test_cross_entropy(self, shape):
        *lead, vocab = shape
        rng = Rng(27)
        targets = rng.integers(0, vocab, size=tuple(lead))
        mask = rng.uniform(tuple(lead)) < 0.6
        mask[..., 0] = True
        for upstream in (None, tiny_upstream):
            assert_same(run_both(
                lambda t: cross_entropy(t, targets, mask),
                ref_cross_entropy(targets, mask), [inputs(shape, 28)], 29,
                upstream))

    def test_attention_baseline(self, shape):
        # q, k and v are strided views of one stacked projection here
        *lead, n, _ = shape
        lead = lead[:1]
        h, d, d_k = 2, 6, 3
        rng = Rng(11)
        arrays = [rng.normal((*lead, n, d)), rng.normal((h, 3, d, d_k)),
                  rng.normal((h * d_k, d))]

        def kernel(x, W_qkv, W_o):
            out = attention_baseline(x, AttentionParams(W_qkv=W_qkv, W_o=W_o))
            return out.values + out.weights.sum() + out.pre_softmax.sum()

        def reference(x, W_qkv, W_o):
            return ref_attention_baseline(
                x, AttentionParams(W_qkv=W_qkv, W_o=W_o))

        assert_same(run_both(kernel, reference, arrays, 12))

    @pytest.mark.parametrize("h", [1, 2, 4])
    def test_baseline_values(self, shape, h):
        # the off-tape path against the Tensor path it stands in for
        *lead, n, _ = shape
        d, d_k = 8, 2
        rng = Rng(13 + h)
        x = Tensor(rng.normal((*lead[:1], n, d)))
        params = AttentionParams(W_qkv=Tensor(rng.normal((h, 3, d, d_k))),
                                 W_o=Tensor(rng.normal((h * d_k, d))))
        assert_bits_equal(_baseline_values(x, params),
                          attention_baseline(x, params).values.values)


def arith_params(variant="broadcast"):
    """A model of test_10's arithmetic config."""
    return ModelParams(ModelConfig(
        d_model=32, heads=2, layers=2, d_ff=64, vocab_size=ARITH_VOCAB, d_c=4,
        seed=10, max_seq_len=8, attention_variant=variant))


def arith_data():
    return make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64,
                              seed=10))


def arith_step():
    """One training step of test_10's arithmetic config: its logged row, and
    each parameter's values and gradient after the step."""
    params = arith_params()
    history = train(params, arith_data(),
                    TrainConfig(steps=1, batch=8, seed=10))
    return history.rows, [(t.values, t.grad)
                          for _, t in params.named_tensors()]


def toy_pipeline():
    params = ModelParams(ModelConfig(d_model=8, heads=2, layers=1, d_ff=16,
                                     vocab_size=12, d_c=4, max_seq_len=32))
    universe = build_universe(params, 4, Rng(0))
    probs, trace = gsot_pipeline([1, 2, 3, 4], universe, params, GsotConfig())
    return probs.values, trace.to_jsonl()


def stack_walk_order(root):
    """Tensor.backward's walk before it kept an iterator per stack entry: a
    stack of (node, expanded) pairs, each node's unseen parents pushed in
    order and popped last first; a node is appended once all its parents
    are. The order fixes which contribution a node sums first."""
    order, seen, stack = [], set(), [(root, False)]
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
    return order


class TestBackwardOrder:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_accumulates_in_the_stack_walk_order(self, variant,
                                                      monkeypatch):
        params = arith_params(variant)
        batch = arith_data()[:8]
        logits, fields = model_forward(np.array([ex.inputs for ex in batch]),
                                       params)
        loss = cross_entropy(logits, np.array([ex.targets for ex in batch]),
                             np.array([ex.mask for ex in batch])) \
            + collapse_penalty(fields[-1]) * 0.0125
        want = [id(p) for node in reversed(stack_walk_order(loss))
                for p, _ in node._parents if p.requires_grad]
        calls = []
        accumulate = Tensor._accumulate

        def recording(self, g):
            calls.append(id(self))
            accumulate(self, g)

        monkeypatch.setattr(Tensor, "_accumulate", recording)
        loss.backward()
        assert want and calls == want


class TestGradientSharing:
    def test_training_step_keeps_every_leaf_bit(self):
        rows, tensors = under(read_only_accumulate, arith_step)
        want_rows, want_tensors = under(copying_accumulate, arith_step)
        assert len(rows) == 1 and rows == want_rows
        for (values, grad), (want_values, want_grad) in zip(tensors,
                                                            want_tensors):
            assert (grad is None) == (want_grad is None)
            if grad is not None:
                assert_bits_equal(grad, want_grad)
            assert_bits_equal(values, want_values)

    def test_add_layer_norm_hands_both_operands_one_array(self):
        # the sum's gradient is computed once per backward: both interior
        # operands hold that one array, as both parents of a + node did
        rng = Rng(35)
        a, b = (Tensor(rng.normal((3, 4, 6)), requires_grad=True)
                for _ in range(2))
        gain, bias = (Tensor(rng.normal((6,)), requires_grad=True)
                      for _ in range(2))
        x, y = a * 2.0, b * 0.5
        out = _add_layer_norm(x, y, gain, bias)
        under(read_only_accumulate,
              (out * Tensor(rng.normal(out.shape))).sum().backward)
        assert x.grad is y.grad
        assert_bits_equal(a.grad, x.grad * 2.0)
        assert_bits_equal(b.grad, y.grad * 0.5)

    def test_gsot_pipeline_under_read_only_gradients(self):
        probs, trace = under(read_only_accumulate, toy_pipeline)
        want_probs, want_trace = under(copying_accumulate, toy_pipeline)
        assert_bits_equal(probs, want_probs)
        assert trace == want_trace


# -- softmax over short rows in the column layout ----------------------------


def ref_softmax(v, out=None):
    """numerics._softmax before the column layout: every reduction and
    broadcast along the last axis, written into out or a new array."""
    out = np.subtract(v, v.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


@pytest.fixture
def column_calls(monkeypatch):
    """The (k, rows) shape of every softmax that takes the column layout
    from now on."""
    calls = []
    column_sums = numerics._column_sums

    def recording(cols):
        calls.append(cols.shape)
        return column_sums(cols)

    monkeypatch.setattr(numerics, "_column_sums", recording)
    return calls


def takes_columns(k, rows):
    lo, hi = numerics._COLUMN_KEYS
    return (lo <= k <= hi and rows >= numerics._COLUMN_MIN_ROWS
            and rows * k <= numerics._COLUMN_MAX_SIZE)


# signed zeros, subnormals, the extremes a score can reach, and -inf: a
# weight of 0, or NaN in a row of -infs alone
SOFTMAX_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                          1e300, -1e300, -np.inf, 1.0, -3.5])


class TestSoftmaxColumns:
    """_softmax's column layout gives every entry the bits of the row
    layout, and is taken exactly where its rule says."""

    @pytest.mark.parametrize("k", range(1, 18))
    def test_every_row_length_on_both_sides_of_the_rule(self, k,
                                                        column_calls):
        most = numerics._COLUMN_MAX_SIZE // k
        lo = numerics._COLUMN_MIN_ROWS
        for rows in (1, 7, lo - 1, lo, lo + 1, 1025, most, most + 1):
            for scale in (3.0, 700.0):
                v = inputs((rows, k), k, edges=SOFTMAX_EDGES[:rows * k],
                           scale=scale)
                if rows > 3:
                    v[3] = -np.inf
                before = len(column_calls)
                with np.errstate(invalid="ignore"):
                    got, want = numerics._softmax(v), ref_softmax(v)
                assert_bits_equal(got, want)
                assert got.flags.c_contiguous
                assert (len(column_calls) > before) == takes_columns(k, rows)

    @pytest.mark.parametrize("shape", [(64, 2, 8, 8), (48, 2, 6, 6),
                                       (257, 3), (5, 7, 9, 9)])
    def test_column_shapes(self, shape, column_calls):
        # (64, 2, 8, 8) is a 64-example evaluation pass's attention
        v = inputs(shape, 5, edges=SOFTMAX_EDGES)
        with np.errstate(invalid="ignore"):
            assert_bits_equal(numerics._softmax(v), ref_softmax(v))
        assert column_calls == [(shape[-1], math.prod(shape[:-1]))]

    @pytest.mark.parametrize("shape", [(8, 2, 8, 8), (1, 2, 512, 512),
                                       (64, 32), (512, 1)])
    def test_row_shapes(self, shape, column_calls):
        # a train step's attention, gsot's n x n, and rows too few or too
        # short to gain
        v = inputs(shape, 6)
        assert_bits_equal(numerics._softmax(v), ref_softmax(v))
        assert column_calls == []

    def test_out_is_the_input(self, column_calls):
        v = inputs((64, 2, 8, 8), 7, edges=SOFTMAX_EDGES[:-3])
        want = ref_softmax(v)
        assert numerics._softmax(v, out=v) is v
        assert_bits_equal(v, want)
        assert column_calls == [(8, 1024)]

    def test_a_given_out(self, column_calls):
        v = inputs((64, 2, 8, 8), 8)
        out = np.full(v.shape, np.nan)
        assert numerics._softmax(v, out=out) is out
        assert_bits_equal(out, ref_softmax(v))
        assert_bits_equal(numerics._softmax(v), out)
        assert column_calls == [(8, 1024)] * 2

    def test_strided_input_takes_the_row_path(self, column_calls):
        # the row path computes in C order, so a strided input gives the
        # bits of the same values in C order
        wide = inputs((64, 2, 8, 16), 9)
        for v in (wide[..., ::2], wide[..., :8],
                  inputs((64, 2, 8, 8), 9).swapaxes(-1, -2)):
            assert not v.flags.c_contiguous
            got = numerics._softmax(v)
            assert got.flags.c_contiguous
            assert_bits_equal(got, ref_softmax(np.ascontiguousarray(v)))
        assert column_calls == []

    def test_strided_out_takes_the_row_path(self, column_calls):
        # numpy sums a strided row in another order than a contiguous one;
        # the row path computes in C order and copies into out
        v = inputs((1024, 8), 10)
        out = np.empty((8, 1024)).T
        assert numerics._softmax(v, out=out) is out
        assert_bits_equal(out, ref_softmax(v))
        assert column_calls == []

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_row_raises_as_on_the_row_path(self, bad,
                                                       column_calls):
        x = inputs((64, 2, 8, 8), 11)
        x[40, 1, 3, 5] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError) as info:
            softmax_rows(Tensor(x, check=False))
        assert str(info.value) == ("softmax_rows produced non-finite values "
                                   "of shape (64, 2, 8, 8)")
        assert column_calls == [(8, 1024)]

    @pytest.mark.parametrize("k", range(1, 129))
    def test_column_sums_replay_numpys_row_order(self, k):
        # _column_sums assumes numpy's pairwise summation order for a
        # contiguous row; a numpy whose order differs fails here, before
        # the two layouts can round a sum differently
        # entries spread over 17 decades, so the order shows in the rounding
        rows = 37
        x = inputs((rows, k), 100 + k, edges=SOFTMAX_EDGES[:-3])
        x[1:] *= 10.0 ** Rng(k).integers(-8, 9, size=(rows - 1, k))
        x[Rng(200 + k).uniform((rows, k)) < 0.1] = -0.0
        x[5] = -0.0
        x[6] = 0.0
        got = numerics._column_sums(np.ascontiguousarray(x.T))
        assert_bits_equal(got, np.add.reduce(x, axis=-1))

    def test_column_sums_round_unlike_a_plain_column_sum(self):
        # the replayed order matters: summing down the columns in order
        # rounds some 8-entry rows differently
        x = Rng(12).normal((4096, 8))
        cols = np.ascontiguousarray(x.T)
        assert_bits_equal(numerics._column_sums(cols),
                          np.add.reduce(x, axis=-1))
        assert not np.array_equal(np.add.reduce(cols, axis=0),
                                  np.add.reduce(x, axis=-1))

    def test_softmax_rows_values_and_vjp(self, column_calls):
        assert_same(run_both(softmax_rows, ref_softmax_rows,
                             [inputs((64, 2, 8, 8), 2)], 3))
        assert (8, 1024) in column_calls


# -- long rows with a small ufunc buffer -------------------------------------


@pytest.fixture
def small_buffer_calls(monkeypatch):
    """numpy's buffer size inside each small-buffer block _softmax enters
    from now on: two blocks, the subtract's and the divide's, per softmax
    that takes it."""
    calls = []
    small_buffer = numerics._small_buffer

    @contextlib.contextmanager
    def recording():
        with small_buffer():
            calls.append(np.getbufsize())
            yield

    monkeypatch.setattr(numerics, "_small_buffer", recording)
    return calls


def long_rows(rows, k, seed):
    """A (rows, k) softmax input holding +-0.0, subnormals, +-1e300 and
    -inf, a row of -0.0, a row of 0.0, a row of -inf (a NaN row) and a row
    with -inf in every third entry."""
    v = inputs((rows, k), seed, edges=SOFTMAX_EDGES[:rows * k], scale=30.0)
    for i, row in enumerate((-0.0, 0.0, -np.inf)):
        if rows > i + 1:
            v[i + 1] = row
    if rows > 4:
        v[4, ::3] = -np.inf
    return v


class TestSoftmaxSmallBuffer:
    """_softmax's row path gives every entry the bits of ref_softmax, the
    row path as it was with numpy's default buffer, and enters the
    small-buffer block exactly where its rule says."""

    @pytest.mark.parametrize("k", [191, 192, 193, 256, 512, 1024, 4097])
    def test_long_rows_on_both_sides_of_the_rule(self, k,
                                                 small_buffer_calls):
        for rows in (1, 2, 7, 128, 1024):
            if rows * k > 1 << 20:
                continue
            v = long_rows(rows, k, k + rows)
            before = len(small_buffer_calls)
            with np.errstate(invalid="ignore"):
                want = ref_softmax(v)
                got = numerics._softmax(v)
                assert numerics._softmax(v, out=v) is v
            assert_bits_equal(got, want)
            assert_bits_equal(v, want)
            taken = len(small_buffer_calls) - before
            assert taken == (4 if k >= numerics._SMALL_BUFFER_MIN_KEYS
                             else 0)
        assert set(small_buffer_calls) <= {numerics._SMALL_BUFFER}

    @pytest.mark.parametrize("n", [512, 455, 398, 341, 284, 227, 192, 191,
                                   170, 113, 64])
    def test_gsot_schedule_sizes(self, n, small_buffer_calls):
        # gsot_long's extraction schedule: (1, h, n, n) scores, in place
        for h in (1, 2):
            v = inputs((1, h, n, n), n + h, edges=SOFTMAX_EDGES[:-3])
            want = ref_softmax(v)
            before = len(small_buffer_calls)
            assert numerics._softmax(v, out=v) is v
            assert_bits_equal(v, want)
            assert (len(small_buffer_calls) > before) == (n >= 192)

    def test_strided_long_rows_give_the_c_order_bits(self,
                                                     small_buffer_calls):
        v = inputs((512, 512), 14, edges=SOFTMAX_EDGES[:-3])
        want = ref_softmax(np.ascontiguousarray(v.T))
        assert_bits_equal(numerics._softmax(v.T), want)
        out = np.empty((512, 512)).T
        assert numerics._softmax(np.ascontiguousarray(v.T), out=out) is out
        assert_bits_equal(out, want)
        w = v.copy().T
        assert numerics._softmax(w, out=w) is w
        assert_bits_equal(w, want)
        assert_bits_equal(softmax_rows(Tensor(v).T).values, want)
        assert small_buffer_calls == [numerics._SMALL_BUFFER] * 8

    def test_baseline_values_take_the_block(self, small_buffer_calls):
        n, d = 256, 16
        rng = Rng(15)
        x = Tensor(rng.normal((n, d)))
        params = AttentionParams(W_qkv=Tensor(rng.normal((1, 3, d, d))),
                                 W_o=Tensor(rng.normal((d, d))))
        assert_bits_equal(_baseline_values(x, params),
                          attention_baseline(x, params).values.values)
        assert small_buffer_calls == [numerics._SMALL_BUFFER] * 4


def long_pipeline():
    """gsot_pipeline over 256 tokens with one head: its extraction passes
    take softmaxes of 256 x 256 and 128 x 128 scores."""
    params = ModelParams(ModelConfig(d_model=8, heads=1, layers=1, d_ff=16,
                                     vocab_size=12, d_c=4, max_seq_len=256))
    universe = build_universe(params, 4, Rng(0))
    X = Rng(1).integers(0, 12, size=256)
    return gsot_pipeline(X, universe, params, GsotConfig(K=2))


def numpy_state():
    return np.getbufsize(), np.geterr()


class TestNumpyState:
    """numpy's buffer size and error state after a library call are what
    they were before it, also when the call raises inside the small-buffer
    block. The calls run under a state of their own, not numpy's default."""

    @pytest.mark.parametrize("call, long", [
        (long_pipeline, True), (arith_step, False),
        (lambda: evaluate(arith_params(), arith_data()), False),
        (lambda: numerics._softmax(inputs((512, 512), 16)), True),
        (lambda: softmax_rows(Tensor(inputs((1, 2, 256, 256), 17))), True)],
        ids=["gsot_pipeline", "train", "evaluate", "_softmax",
             "softmax_rows"])
    def test_calls_leave_numpys_state(self, call, long, small_buffer_calls):
        # train and evaluate softmax rows of 8 keys, below the block
        with np.errstate(divide="ignore", over="ignore"):
            np.setbufsize(2048)
            before = numpy_state()
            call()
            assert numpy_state() == before
        assert bool(small_buffer_calls) == long

    def test_a_raise_inside_the_block_leaves_numpys_state(
            self, small_buffer_calls):
        v = inputs((512, 512), 18)
        with np.errstate(over="ignore"):
            np.setbufsize(4096)
            before = numpy_state()
            with pytest.raises(ValueError, match="broadcast"):
                numerics._softmax(v, out=np.empty((512, 511)))
            assert numpy_state() == before
        assert small_buffer_calls == [numerics._SMALL_BUFFER]


# -- evaluation at the positions a mask reads ---------------------------------


def full_forward_eval(params, data, m):
    """evaluate's loss and accuracy at multiplier m, each EVAL_SLICE
    examples' loss taken from a full forward of those examples alone."""
    loss, hits = 0.0, 0
    for lo in range(0, len(data), EVAL_SLICE):
        part = data[lo:lo + EVAL_SLICE]
        targets = np.stack([ex.targets for ex in part])
        mask = np.stack([ex.mask for ex in part])
        logits, _ = model_forward(np.stack([ex.inputs for ex in part]),
                                  params, m)
        loss += float(cross_entropy(logits, targets, mask).values) * len(part)
        pred = logits.values.argmax(axis=-1)
        hits += int(((pred == targets) | ~mask).all(axis=-1).sum())
    return loss / len(data), hits / len(data)


def middle_masked(columns):
    """40 arithmetic inputs whose loss reads the given columns, each with a
    column of its own: example i reads columns[i % len(columns)]."""
    rng = Rng(44)
    data = []
    for i, ex in enumerate(arith_data()[:40]):
        mask = np.zeros(8, dtype=bool)
        mask[columns[i % len(columns)]] = True
        data.append(Example(inputs=ex.inputs, mask=mask,
                            targets=rng.integers(0, ARITH_VOCAB, size=8)))
    return data


class TestPositions:
    @pytest.mark.parametrize("m", [1.0, 0.7])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_logits_are_the_full_forwards_rows(self, variant, m):
        # at B = 1 a product of the kept rows alone would go to gemv
        params = arith_params(variant)
        ids = np.stack([ex.inputs for ex in arith_data()])
        for B in (1, 2, 64):
            full, fields = model_forward(ids[:B], params, m)
            for s in (slice(0, 1), slice(3, 4), slice(7, 8), slice(2, 6)):
                got, got_fields = model_forward(ids[:B], params, m,
                                                positions=s)
                assert_bits_equal(got.values, full.values[:, s])
                for f, want in zip(got_fields, fields):
                    assert_bits_equal(f.values, want.values)

    @pytest.mark.parametrize("columns", [(4,), (4, 2, 4)])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evaluation_matches_the_full_forward(self, variant, columns):
        params = arith_params(variant)
        data = middle_masked(columns)
        assert evaluate(params, data) == full_forward_eval(params, data, 1.0)
        for m in (1.0, 0.7, 0.3):
            assert dataset_loss(params, data, m) \
                == full_forward_eval(params, data, m)[0]

    def test_last_block_gelu_runs_at_the_read_position(self, monkeypatch):
        # the arithmetic loss reads the last of 8 positions
        shapes = []

        def recording(x):
            shapes.append(x.shape)
            return gelu(x)

        monkeypatch.setattr(model_mod, "gelu", recording)
        dataset_loss(arith_params(), arith_data())
        assert shapes == [(64, 8, 64), (64, 1, 64)]


# -- allocation guards -------------------------------------------------------


def peak_bytes(fn, *args):
    """Peak traced bytes allocated during fn(*args), and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


class TestAllocation:
    def test_softmax_builds_one_array(self):
        x = Tensor(Rng(0).normal((256, 256)), requires_grad=True)
        peak, out = peak_bytes(softmax_rows, x)
        assert peak <= 1.25 * out.values.nbytes

    def test_softmax_columns_hold_one_buffer_beside_the_output(
            self, column_calls):
        # the (k, rows) buffer, then the output it is copied back into
        x = Tensor(Rng(0).normal((64, 2, 8, 8)), requires_grad=True)
        peak, out = peak_bytes(softmax_rows, x)
        assert column_calls == [(8, 1024)]
        assert peak <= 2.25 * out.values.nbytes

    def test_layer_norm_builds_two_arrays(self):
        rng = Rng(1)
        x = Tensor(rng.normal((256, 256)), requires_grad=True)
        gain = Tensor(rng.normal((256,)), requires_grad=True)
        bias = Tensor(rng.normal((256,)), requires_grad=True)
        peak, out = peak_bytes(layer_norm, x, gain, bias)
        assert peak <= 2.25 * out.values.nbytes

    def test_attention_holds_scores_and_weights_only(self):
        n, d = 256, 16
        rng = Rng(2)
        params = AttentionParams(
            W_qkv=Tensor(rng.normal((1, 3, d, d)), requires_grad=True),
            W_o=Tensor(rng.normal((d, d)), requires_grad=True))
        x = Tensor(rng.normal((n, d)))
        peak, _ = peak_bytes(attention_baseline, x, params)
        assert peak <= 2.5 * n * n * 8

    def test_baseline_values_hold_one_array(self):
        # attention_baseline holds 2.33 n x n arrays at this size
        n, d = 256, 16
        rng = Rng(2)
        params = AttentionParams(W_qkv=Tensor(rng.normal((1, 3, d, d))),
                                 W_o=Tensor(rng.normal((d, d))))
        x = Tensor(rng.normal((n, d)))
        peak, _ = peak_bytes(_baseline_values, x, params)
        assert peak <= 1.5 * n * n * 8

    def test_evaluation_pass_tape_under_6_mb(self):
        # live bytes after one 64-example forward at m = 0.7, its tape held
        # by the logits: 5.80 MB, and 6.85 MB while each residual sum and
        # each merge_heads' merged heads were kept on the tape
        params = arith_params()
        ids = np.stack([ex.inputs for ex in arith_data()])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits, _ = model_forward(ids, params, temp_multiplier=0.7)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert logits.shape == (64, 8, ARITH_VOCAB)
        assert live <= 6.0e6

    def test_positions_pass_holds_less_than_the_full_pass(self):
        # the pass above, full and cut to the position the arithmetic loss
        # reads: 5.81 and 4.39 MB live
        params = arith_params()
        ids = np.stack([ex.inputs for ex in arith_data()])

        def live_bytes(**kw):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                logits, _ = model_forward(ids, params, 0.7, **kw)
                return tracemalloc.get_traced_memory()[0] - base, logits
            finally:
                tracemalloc.stop()

        full, _ = live_bytes()
        cut, logits = live_bytes(positions=slice(7, 8))
        assert logits.shape == (64, 1, ARITH_VOCAB)
        assert cut < full


def record_scans(monkeypatch):
    """The shape of every array a finiteness scan reads from now on."""
    scans = []
    all_finite = numerics._all_finite

    def recording(v):
        scans.append(v.shape)
        return all_finite(v)

    monkeypatch.setattr(numerics, "_all_finite", recording)
    return scans


def near_bound_input():
    """x and params whose projection's largest magnitude M puts d_k * M**2
    just above 1e300, with every score, weight and value finite. x is the
    first rows of the identity, so the projection is W_qkv's first rows
    exactly."""
    n, d, h, d_k = 5, 6, 2, 3
    m = math.sqrt(1e300 / d_k) * (1.0 + 2.0 ** -40)
    rng = Rng(21)
    w_qkv = rng.uniform((h, 3, d, d_k), -m, m)
    w_qkv[0, 0, 0, 0] = m
    params = AttentionParams(W_qkv=Tensor(w_qkv),
                             W_o=Tensor(rng.normal((h * d_k, d))))
    return Tensor(np.eye(n, d)), params


# leading entries of the score rows below: the float extremes, signed zeros
# and subnormals
SCORE_EDGES = [1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
               5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]


@st.composite
def score_rows(draw):
    """Rows of finite float64 scores, each led by a few drawn SCORE_EDGES."""
    width = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.lists(st.sampled_from(SCORE_EDGES), max_size=width))
        rest = draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=width - len(lead), max_size=width - len(lead)))
        rows.append(lead + rest)
    return np.array(rows, dtype=np.float64)


class TestBaselineValuesScans:
    """_baseline_values scans an array only where it can hold a non-finite
    value: the scores and the weighted values when the projection allows an
    overflow, the weights never, the output always."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("h", [1, 2])
    def test_ordinary_inputs_scan_no_n_by_n_array(self, monkeypatch, lead,
                                                  h):
        # the output alone, nothing n x n
        n, d, d_k = 7, 6, 3
        rng = Rng(20 + h)
        x = Tensor(rng.normal((*lead, n, d)))
        params = AttentionParams(W_qkv=Tensor(rng.normal((h, 3, d, d_k))),
                                 W_o=Tensor(rng.normal((h * d_k, d))))
        scans = record_scans(monkeypatch)
        _baseline_values(x, params)
        assert scans == [(*lead, n, d)]

    def test_overflow_allowing_input_scans_the_scores_once(self,
                                                           monkeypatch):
        x, params = near_bound_input()
        scans = record_scans(monkeypatch)
        _baseline_values(x, params)
        # the scores and the weighted values once each, then the output
        assert scans == [(2, 5, 5), (2, 5, 3), (5, 6)]

    def test_near_bound_values_keep_their_bits(self):
        x, params = near_bound_input()
        qkv = x.values @ params.W_qkv.values
        m = float(np.abs(qkv).max())
        assert 1e300 < params.d_k * m * m < 1.0001e300
        assert_bits_equal(_baseline_values(x, params),
                          attention_baseline(x, params).values.values)

    def test_scores_overflowing_only_to_minus_inf_raise(self):
        # q rows [1e200] and [1], k rows [-1e200] and [1]: score [0, 0] is
        # -inf but each row's max is finite, so the softmax alone would
        # turn it into a weight of 0 and hide it
        w_qkv = np.ones((1, 3, 2, 1))
        w_qkv[0, 0, :, 0] = [1e200, 1.0]
        w_qkv[0, 1, :, 0] = [-1e200, 1.0]
        params = AttentionParams(W_qkv=Tensor(w_qkv),
                                 W_o=Tensor(np.ones((1, 2))))
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match=r"^attention scores produced non-finite "
                                    r"values of shape \(1, 2, 2\)"):
            _baseline_values(Tensor(np.eye(2)), params)

    @settings(max_examples=300, deadline=None)
    @given(score_rows())
    def test_finite_scores_give_weights_in_the_unit_interval(self, scores):
        with np.errstate(over="ignore"):
            w = numerics._softmax(scores, out=scores)
        assert np.all((w >= 0.0) & (w <= 1.0))


class TestBaselineValuesChecks:
    @pytest.mark.parametrize("grad_on", ["x", "W_qkv", "W_o"])
    def test_refuses_what_requires_a_gradient(self, grad_on):
        rng = Rng(3)
        arrays = {"x": rng.normal((5, 6)), "W_qkv": rng.normal((2, 3, 6, 3)),
                  "W_o": rng.normal((6, 6))}
        t = {k: Tensor(a, requires_grad=k == grad_on)
             for k, a in arrays.items()}
        params = AttentionParams(W_qkv=t["W_qkv"], W_o=t["W_o"])
        with pytest.raises(ValueError, match="records no tape"):
            _baseline_values(t["x"], params)

    @pytest.mark.parametrize("w_qkv, w_o, op", [
        (1e308, 1.0, "attention projection"),
        (1e160, 1.0, "attention scores"),
        (1.0, 1e308, "attention output")])
    def test_overflow_names_the_array(self, w_qkv, w_o, op):
        # constant positive fills, so every sum adds up to the overflow
        params = AttentionParams(W_qkv=Tensor(np.full((2, 3, 6, 3), w_qkv)),
                                 W_o=Tensor(np.full((6, 6), w_o)))
        x = Tensor(np.full((5, 6), 10.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=f"^{op} produced"):
            _baseline_values(x, params)


class TestFusedNodeChecks:
    """A non-finite value inside a fused node raises NumericError naming it,
    as the node of the chain it replaced would have. squash is bounded, so
    no finite input makes it non-finite; compute_temperature checks the
    logits it squashes."""

    @pytest.mark.parametrize("node, run", [
        ("linear", lambda: linear(Tensor(np.full((2, 3), 1e300)),
                                  Tensor(np.full((3, 2), 1e300)),
                                  Tensor(np.zeros(2)))),
        ("_project", lambda: _project(Tensor(np.full((4, 3), 1e200)),
                                      Tensor(np.full((2, 3, 3, 2), 1e200)))),
        ("_scaled_scores", lambda: _scaled_scores(
            Tensor(np.full((2, 3, 4, 2), 1e200)), 0.5)),
        ("merge_heads", lambda: merge_heads(Tensor(np.full((2, 4, 4), 0.25)),
                                            Tensor(np.full((2, 4, 3), 1e200)),
                                            Tensor(np.full((6, 5), 1e200)))),
        ("_modulated", lambda: _modulated(Tensor(np.full((2, 3, 3), 1e200)),
                                          Tensor(np.full((2, 3), 1e200)),
                                          False)),
        ("_modulated", lambda: _modulated(Tensor(np.full((2, 3, 3), 1e200)),
                                          Tensor(np.full((2, 3), 1e100)),
                                          True)),
        ("_linear_add_layer_norm", lambda: _linear_add_layer_norm(
            Tensor(np.ones((2, 3))), Tensor(np.full((2, 3), 1e300)),
            Tensor(np.full((3, 3), 1e300)), Tensor(np.zeros(3)),
            Tensor(np.ones(3)), Tensor(np.zeros(3)))),
        ("_scaled_by_mean", lambda: _scaled_by_mean(
            Tensor(np.full((3, 4), 1e300)), Tensor(np.full((2, 3), 1e10)))),
        ("compute_temperature", lambda: compute_temperature(
            Tensor(np.full((4, 3), 1e200)), TemperatureHeadParams(
                W_t=Tensor(np.full((2, 3), 1e200)), b_t=Tensor(np.zeros(2))))),
        ("_linear_rows", lambda: _linear_rows(
            Tensor(np.full((1, 3), 1e300)), Tensor(np.full((3, 2), 1e300)),
            Tensor(np.zeros(2)), slice(1, 2), 2)),
        ("_add_layer_norm", lambda: _add_layer_norm(
            Tensor(np.full((2, 3), 1e308)), Tensor(np.full((2, 3), 1e308)),
            Tensor(np.ones(3)), Tensor(np.zeros(3)))),
        ("collapse_penalty", lambda: collapse_penalty(
            Tensor(np.full((2, 4), 1e200)))),
        ("cross_entropy", lambda: cross_entropy(
            Tensor([[1e308, -1e308, 0.0]]), np.array([1]), np.array([True])))])
    def test_overflow_names_the_node(self, node, run):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=f"^{node} produced"):
            run()

