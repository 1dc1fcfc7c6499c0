"""The in-place kernels and the fused nodes against the expressions they
replaced, gradient sharing against the copying tape it replaced, and the
kernels' allocation bounds.

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

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab import numerics
from ttm_lab.attention import (AttentionParams, _baseline_values, _project,
                               _scaled_scores, attention_baseline,
                               merge_heads)
from ttm_lab.gsot import GsotConfig, build_universe, gsot_pipeline
from ttm_lab.model import ModelConfig, ModelParams, model_forward
from ttm_lab.numerics import (NumericError, Rng, Tensor, _add_layer_norm,
                              _erf, _sigmoid, _unbroadcast, gelu, layer_norm,
                              linear, softmax_rows)
from ttm_lab.temperature import collapse_penalty, squash
from ttm_lab.training import (ARITH_VOCAB, TaskSpec, TrainConfig,
                              cross_entropy, make_task, train)

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


def ref_sigmoid(x):
    """The logistic sigmoid as a node of its own."""
    s = _sigmoid(x.values)
    return Tensor(s, _parents=((x, lambda g: g * s * (1.0 - s)),))


def ref_squash(eps_min):
    return lambda logits: ref_sigmoid(logits) * (1.0 - 2.0 * eps_min) + eps_min


def ref_collapse_penalty(lam):
    return lambda field: ((field - 0.5) ** 2).sum() * lam


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
        # (h, n, d_k) are the last three axes of (2, *shape)
        *_, h, n, d_k = stacked = (2, *shape)
        heads = inputs(stacked, 17, edges=FINITE_PRODUCTS)
        w = Rng(18).normal((h * d_k, 7))
        assert_same(run_both(merge_heads, ref_merge_heads, [heads, w], 19,
                             tiny_upstream))

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

    @pytest.mark.parametrize("lam", [1.0, 0.3])
    def test_collapse_penalty(self, shape, lam):
        field = inputs(shape, 25, edges=np.append(FINITE_PRODUCTS, 0.5))
        for upstream in (None, tiny_upstream):
            assert_same(run_both(lambda t: collapse_penalty(t, lam),
                                 ref_collapse_penalty(lam), [field], 26,
                                 upstream))

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


def arith_params():
    """A model of test_10's arithmetic config."""
    return ModelParams(ModelConfig(
        d_model=32, heads=2, layers=2, d_ff=64, vocab_size=ARITH_VOCAB, d_c=4,
        seed=10, max_seq_len=8, attention_variant="broadcast"))


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
    no finite input makes it non-finite."""

    @pytest.mark.parametrize("node, run", [
        ("linear", lambda: linear(Tensor(np.full((2, 3), 1e300)),
                                  Tensor(np.full((3, 2), 1e300)),
                                  Tensor(np.zeros(2)))),
        ("_project", lambda: _project(Tensor(np.full((4, 3), 1e200)),
                                      Tensor(np.full((2, 3, 3, 2), 1e200)))),
        ("_scaled_scores", lambda: _scaled_scores(
            Tensor(np.full((2, 3, 4, 2), 1e200)), 0.5)),
        ("merge_heads", lambda: merge_heads(Tensor(np.full((2, 4, 3), 1e200)),
                                            Tensor(np.full((6, 5), 1e200)))),
        ("_add_layer_norm", lambda: _add_layer_norm(
            Tensor(np.full((2, 3), 1e308)), Tensor(np.full((2, 3), 1e308)),
            Tensor(np.ones(3)), Tensor(np.zeros(3)))),
        ("collapse_penalty", lambda: collapse_penalty(
            Tensor(np.full((2, 4), 1e200)), 1.0)),
        ("cross_entropy", lambda: cross_entropy(
            Tensor([[1e308, -1e308, 0.0]]), np.array([1]), np.array([True])))])
    def test_overflow_names_the_node(self, node, run):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match=f"^{node} produced"):
            run()

