import gc
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ttm_lab
from ttm_lab import gsot, numerics, training
from ttm_lab.attention import _modulated, merge_heads
from ttm_lab.model import ModelConfig, ModelParams, _scaled_by_mean
from ttm_lab.numerics import (DimensionError, NumericError, Rng, Tensor,
                              _erf, _linear_add_layer_norm, concat, gelu,
                              grad_check, layer_norm, matmul, softmax_rows)
from ttm_lab.temperature import (TemperatureHeadParams, compute_temperature,
                                 squash)


def operands():
    """Two (3, 3) tensors that require gradients, valid for every op below
    (positive, so `log` and `/` are defined)."""
    x = Tensor([[0.3, 1.2, 0.7], [0.9, 0.4, 1.5], [1.4, 0.8, 0.1]],
               requires_grad=True)
    y = Tensor([[1.1, 0.6, 0.8], [0.5, 1.3, 0.2], [0.7, 0.9, 1.6]],
               requires_grad=True)
    return x, y


BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "@": lambda a, b: a @ b,
    "concat": lambda a, b: concat([a, b], axis=-1),
}

EVERY_OP = dict(BINARY_OPS, **{
    "**": lambda x, y: x ** 3,
    "sum(axis=)": lambda x, y: x.sum(axis=0),
    "mean": lambda x, y: x.mean(axis=-1),
    "reshape": lambda x, y: x.reshape(9),
    "transpose": lambda x, y: x.transpose(),
    "indexing": lambda x, y: x[np.array([1, 0, 1])],
    "clip": lambda x, y: x.clip(0.5, 1.0),
    "exp": lambda x, y: x.exp(),
    "log": lambda x, y: x.log(),
    "softmax_rows": lambda x, y: softmax_rows(x),
    "squash": lambda x, y: squash(x),
    "layer_norm": lambda x, y: layer_norm(x, y[0], y[1]),
    "gelu": lambda x, y: gelu(x),
})


# Tensor-constant operands for every binary op, on either side; a float or an
# ndarray operand for the ops that take one (`@` and concat need operands of
# rank 1 or more)
CONSTANTS = {
    "tensor": lambda const: const,
    "float": lambda const: 0.75,
    "ndarray": lambda const: const.values,
}
CONSTANT_CASES = [
    pytest.param(name, kind, const_first, id=f"{name}-{const_first}"
                 if kind == "tensor" else f"{name}-{kind}-{const_first}")
    for name in BINARY_OPS for kind in CONSTANTS
    for const_first in (False, True)
    if kind == "tensor" or kind == "ndarray" or name in ("+", "-", "*", "/")]


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal((eye @ m).values, m.values)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.values.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = Rng(7)
        a = rng.normal((4, 3))
        b = rng.normal((3, 5))
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for t in range(3):
                    expected[i, j] += a[i, t] * b[t, j]
        got = matmul(Tensor(a), Tensor(b)).values
        assert np.abs(got - expected).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_associativity(self):
        rng = Rng(11)
        a, b, c = (Tensor(rng.normal(s)) for s in ((3, 4), (4, 5), (5, 2)))
        left = ((a @ b) @ c).values
        right = (a @ (b @ c)).values
        rel = np.linalg.norm(left - right) / np.linalg.norm(right)
        assert rel < 1e-9


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_rows(Tensor([0.0, 0.0, 0.0]))
        assert np.abs(out.values - 1 / 3).max() < 1e-15

    def test_analytic_two_entries(self):
        out = softmax_rows(Tensor([0.0, math.log(2.0)]))
        assert np.abs(out.values - [1 / 3, 2 / 3]).max() < 1e-15

    def test_against_naive_formula(self):
        rng = Rng(3)
        x = rng.normal((7,))
        naive = np.exp(x) / np.exp(x).sum()
        assert np.abs(softmax_rows(Tensor(x)).values - naive).max() < 1e-12

    def test_empty_last_axis_rejected(self):
        with pytest.raises(DimensionError):
            softmax_rows(Tensor(np.zeros((3, 0))))

    @given(arrays(np.float64, (4, 6), elements=st.floats(-100, 100)))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        sums = softmax_rows(Tensor(x)).values.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-9


class TestSigmoid:
    """squash with eps_min = 0 is the logistic sigmoid itself."""

    def test_zero(self):
        assert squash(Tensor([0.0]), 0.0).values[0] == 0.5

    def test_saturation_stays_finite(self):
        v = squash(Tensor([-50.0]), 0.0).values[0]
        assert 0.0 < v <= 1e-20 and math.isfinite(v)

    def test_reference_value(self):
        assert abs(squash(Tensor([1.0]), 0.0).values[0]
                   - 0.7310585786300049) < 1e-12


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
        assert np.abs(out.values).max() < 1e-6

    def test_direct_formula(self):
        out = layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
        # the row's variance is 2/3; layer_norm adds 1e-5 to it
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0 + 1e-5)
        assert np.abs(out.values[0] - expected).max() < 1e-6

    def test_zero_gain_yields_bias(self):
        bias = np.array([1.0, -2.0, 0.5])
        out = layer_norm(Tensor([[4.0, 9.0, -1.0]]), Tensor(np.zeros(3)),
                         Tensor(bias))
        assert np.array_equal(out.values[0], bias)

    def test_standardizes_rows(self):
        rng = Rng(5)
        x = Tensor(rng.normal((6, 8)))
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        var = x.values.var(axis=-1)
        assert np.abs(out.values.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.values.var(axis=-1) - var / (var + 1e-5)).max() < 1e-9

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)),
                       Tensor(np.zeros(4)))


class TestGradCheck:
    def test_quadratic(self):
        err = grad_check(lambda x: (x ** 2).sum(), Tensor([1.0, 2.0]))
        assert err < 1e-8

    def test_softmax_sum_is_constant(self):
        x = Tensor(Rng(1).normal((3, 4)))
        probe = Tensor(x.values.copy(), requires_grad=True)
        softmax_rows(probe).sum().backward()
        assert np.abs(probe.grad).max() < 1e-7

    def test_every_op_under_tolerance(self):
        rng = Rng(9)
        x = Tensor(rng.normal((3, 4)))
        gain = Tensor(rng.normal((4,)))
        bias = Tensor(rng.normal((4,)))
        w = Tensor(rng.normal((4, 2)))
        fns = [
            lambda t: softmax_rows(t).sum(axis=-1).mean() + (softmax_rows(t) ** 2).sum(),
            lambda t: squash(t).sum(),
            lambda t: gelu(t).sum(),
            lambda t: layer_norm(t, gain, bias).sum(),
            lambda t: (t @ w).sum(),
            lambda t: (t.exp() * 0.01).sum(),
            lambda t: ((t ** 2) + 1.0).log().sum(),
            lambda t: concat([t, t * 2.0], axis=0).sum(),
            lambda t: t[1:, ::2].sum(),
            lambda t: t.clip(-0.5, 0.5).sum(),
            lambda t: t.T.mean(axis=0).sum(),
            lambda t: (2.0 - t / 3.0).sum(),
            lambda t: (t - 0.5).sum(),
        ]
        for fn in fns:
            assert grad_check(fn, x) < 1e-5

    def test_fused_nodes_under_tolerance(self):
        # each operand of each node, under a random weighting of its output
        rng = Rng(10)
        h, n, d_k, d = 2, 3, 2, 5
        nodes = [
            (merge_heads, [rng.uniform((h, n, n)), rng.normal((h, n, d_k)),
                           rng.normal((h * d_k, d))]),
            (lambda pre, f: _modulated(pre, f, False),
             [rng.normal((h, n, n)), rng.uniform((h, n), 0.1, 0.9)]),
            (lambda pre, f: _modulated(pre, f, True),
             [rng.normal((h, n, n)), rng.uniform((h, n), 0.1, 0.9)]),
            (lambda a, W_t, b_t: compute_temperature(
                a, TemperatureHeadParams(W_t=W_t, b_t=b_t)),
             [rng.normal((n, d)), rng.normal((h, d)), rng.normal((h,))]),
            (_scaled_by_mean, [rng.normal((2, n, d)),
                               rng.uniform((2, h, n), 0.1, 0.9)]),
            (_linear_add_layer_norm,
             [rng.normal((n, d)), rng.normal((n, 4)), rng.normal((4, d)),
              rng.normal((d,)), rng.normal((d,)), rng.normal((d,))]),
        ]
        for node, arrays in nodes:
            weight = rng.normal(node(*map(Tensor, arrays)).shape)
            for i in range(len(arrays)):
                def loss(t, node=node, arrays=arrays, i=i, weight=weight):
                    args = [t if j == i else Tensor(a)
                            for j, a in enumerate(arrays)]
                    return (node(*args) * weight).sum()
                assert grad_check(loss, Tensor(arrays[i])) < 1e-5

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: t.sum(), Tensor([1.0]), eps=1e-2)


def _erf_errors(x):
    """(max absolute error, max error in units of the last place) of _erf
    against math.erf at the points x."""
    got = _erf(x)
    ref = np.array([math.erf(v) for v in x])
    err = np.abs(got - ref)
    return err.max(), (err / np.spacing(np.abs(ref))).max()


class TestErf:
    def test_dense_grid_matches_math_erf(self):
        x = np.linspace(-8.0, 8.0, 400_001)
        abs_err, ulps = _erf_errors(x)
        assert abs_err <= 2.3e-16
        assert ulps <= 4.0

    def test_branch_edges(self):
        # 0.5 and 4 split Cody's three ranges; past 6 erf rounds to +-1
        edges = [0.0, 0.5, 4.0, 6.0, 30.0]
        x = np.array([s * e for e in edges for s in (1.0, -1.0)]
                     + [np.nextafter(e, t) for e in (0.5, 4.0)
                        for t in (0.0, 10.0)])
        x = np.concatenate([x, -x])
        abs_err, ulps = _erf_errors(x)
        assert abs_err <= 2.3e-16 and ulps <= 4.0
        assert np.array_equal(_erf(np.array([6.0, -30.0])), [1.0, -1.0])

    def test_sign_of_zero_kept(self):
        out = _erf(np.array([0.0, -0.0]))
        assert out.tolist() == [0.0, 0.0]
        assert np.signbit(out).tolist() == [False, True]

    def test_huge_input_is_one_without_overflow(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            assert _erf(np.array([1e300, -1e300])).tolist() == [1.0, -1.0]

    def test_nan_stays_nan(self):
        assert np.isnan(_erf(np.array([np.nan, 1.0]))).tolist() == [True, False]

    def test_gelu_of_zero_is_exactly_zero(self):
        assert gelu(Tensor([0.0])).values.tolist() == [0.0]

    def test_keeps_shape(self):
        x = Rng(3).normal((2, 3, 4), 0.0, 3.0)
        assert _erf(x).shape == (2, 3, 4)
        assert np.array_equal(_erf(x).ravel(), _erf(x.ravel()))


class TestTensorBasics:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            Tensor([float("nan")])

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(DimensionError):
            (t * 2.0).backward()

    def test_non_finite_leaf_gradient_raises(self):
        # 1/x is finite at x = 1e-200, but its gradient -1/x^2 overflows
        x = Tensor([1e-200], requires_grad=True)
        with np.errstate(all="ignore"), pytest.raises(NumericError):
            (Tensor([1.0]) / x).sum().backward()

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert np.array_equal(b.grad, np.full(4, 3.0))

    def test_getitem_gradient_scatters(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        t[np.array([0, 0, 5])].sum().backward()
        assert t.grad.tolist() == [2.0, 0, 0, 0, 0, 1.0]

    def test_tape_freed_without_cycle_collector(self):
        # a tape must be freed as soon as its last reference goes; a node
        # caught in a reference cycle would hold every node upstream of it
        gc.collect()
        gc.disable()
        try:
            for name, op in EVERY_OP.items():
                x, y = operands()
                loss = op(x, y).sum()
                loss.backward()
                del loss
                assert gc.collect() == 0, name
        finally:
            gc.enable()

    @pytest.mark.parametrize("name,kind,const_first", CONSTANT_CASES)
    def test_constant_operand_gets_no_gradient(self, name, kind, const_first):
        # a float or ndarray operand must give the bits its Tensor form gives
        results = []
        for wrapped in (True,) if kind == "tensor" else (True, False):
            var, const = operands()
            const.requires_grad = False
            c = CONSTANTS[kind](const)
            if wrapped and kind != "tensor":
                c = Tensor(c)
            args = (c, var) if const_first else (var, c)
            out = BINARY_OPS[name](*args)
            out.sum().backward()
            if isinstance(c, Tensor):
                assert c.grad is None
            assert var.grad is not None and var.grad.any()
            results.append((out.values, var.grad))
        for values, grad in results[1:]:
            assert np.array_equal(values, results[0][0])
            assert np.array_equal(grad, results[0][1])

    def test_gradient_buffers_are_owned(self):
        # both parents receive the same broadcast view of the node's
        # gradient; each must keep its own writeable copy
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable

    def test_interior_gradient_is_shared_and_never_written(self):
        # + hands its gradient on as it is, so y shares z's array; y's
        # second contribution must go into a fresh array, not into z's
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Rng(4).normal((2, 3))
        y = x * 2.0
        z = y + 1.0
        (z * w).sum().backward()
        assert y.grad is z.grad
        y = x * 2.0
        z = y + y
        (z * w).sum().backward()
        assert np.array_equal(z.grad, w)
        assert np.array_equal(y.grad, w + w)
        assert not np.shares_memory(x.grad, y.grad)

    def test_basic_index_gradient_is_placed(self):
        t = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ((t[1:, ::2] * 2.0).sum() + t[..., 3].sum() + t[0].sum()).backward()
        want = np.zeros((3, 4))
        want[1:, ::2] += 2.0
        want[:, 3] += 1.0
        want[0] += 1.0
        assert np.array_equal(t.grad, want)

    @pytest.mark.parametrize("op,fn", [
        ("matmul", lambda: Tensor([[1e200]]) @ Tensor([[1e200]])),
        ("__mul__", lambda: Tensor([1e300], requires_grad=True) * 1e300),
        ("softmax_rows", lambda: softmax_rows(np.array([[np.inf, 0.0]]))),
    ], ids=["matmul", "__mul__", "softmax_rows"])
    def test_non_finite_error_names_the_op(self, op, fn):
        with np.errstate(all="ignore"), \
                pytest.raises(NumericError, match=op) as info:
            fn()
        assert "shape" in str(info.value)

    def test_non_finite_error_looks_past_an_init_wrapper(self, monkeypatch):
        # the benchmark's tracer wraps Tensor.__init__ to count nodes
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        with np.errstate(all="ignore"), \
                pytest.raises(NumericError, match="^matmul "):
            Tensor([[1e200]]) @ Tensor([[1e200]])

    @pytest.mark.parametrize("constant", ["x", "gain_and_bias"])
    def test_layer_norm_constant_operands_get_no_gradient(self, constant):
        x, _ = operands()
        gain = Tensor([1.5, 0.5, 2.0], requires_grad=True)
        bias = Tensor([0.1, -0.2, 0.3], requires_grad=True)
        consts = [x] if constant == "x" else [gain, bias]
        for t in consts:
            t.requires_grad = False
        (layer_norm(x, gain, bias) * Tensor([1.0, 2.0, 3.0])).sum().backward()
        for t in (x, gain, bias):
            assert (t.grad is None) == (t in consts)


def _layouts(flat):
    """The entries of `flat` as a C-ordered array, a strided view and a
    transposed (2, n) view, each holding them in that order."""
    n = flat.size
    strided = np.zeros(2 * n)
    strided[::2] = flat
    transposed = np.zeros((n, 2))
    transposed[:, 0] = flat
    transposed[:, 1] = flat
    return {"contiguous": flat.copy(), "strided": strided[::2],
            "transposed": transposed.T}


class TestAllFinite:
    """`numerics._all_finite` reads a C-ordered array by a dot with itself
    first; its answer must be the elementwise scan's in every case."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_one_non_finite_entry_anywhere(self, bad):
        rng = Rng(41)
        for n in range(1, 71):
            flat = rng.normal((n,))
            for layout, v in _layouts(flat).items():
                assert numerics._all_finite(v), (n, layout)
            for i in range(n):
                hit = flat.copy()
                hit[i] = bad
                for layout, v in _layouts(hit).items():
                    # a one-entry view is contiguous whatever its stride
                    assert v.flags.c_contiguous == (
                        n == 1 or layout == "contiguous")
                    assert not numerics._all_finite(v), (n, i, layout)

    @pytest.mark.parametrize("big", [1e200, 1.3e154, -1e308])
    def test_sum_of_squares_overflow_is_still_finite(self, big):
        # 1.3e154 squared is finite, so it needs a second entry to overflow
        for n in (2, 7, 64):
            flat = np.full(n, big)
            flat[::2] *= -1.0
            with np.errstate(over="ignore"):
                assert not math.isfinite(np.vdot(flat, flat))
            for layout, v in _layouts(flat).items():
                assert numerics._all_finite(v), (n, layout)
                v = v.copy()
                v.reshape(-1)[-1] = math.nan
                assert not numerics._all_finite(v), (n, layout)

    def test_empty_and_zero_dimensional_arrays(self):
        for v in (np.empty(0), np.empty((3, 0)), np.empty((0, 4)).T):
            assert numerics._all_finite(v)
        assert numerics._all_finite(np.array(2.5))
        for bad in (math.nan, math.inf, -math.inf):
            assert not numerics._all_finite(np.array(bad))

    def test_error_messages_are_unchanged(self):
        with pytest.raises(NumericError) as info:
            numerics.check_finite(np.array([[1.0, math.inf]]),
                                  "attention scores")
        assert str(info.value) == ("attention scores produced non-finite "
                                   "values of shape (1, 2)")
        with pytest.raises(NumericError) as info:
            Tensor(np.full((2, 3), math.nan))
        assert str(info.value) == ("test_error_messages_are_unchanged "
                                   "produced non-finite values of shape "
                                   "(2, 3)")
        x = Tensor(np.full((4, 2), 1e-300), requires_grad=True)
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            (1.0 / x).sum().backward()
        assert str(info.value) == ("non-finite gradient at a leaf tensor of "
                                   "shape (4, 2)")


class TestRng:
    def test_reproducible(self):
        assert np.array_equal(Rng(42).normal((5,)), Rng(42).normal((5,)))

    def test_known_stream(self):
        # PCG64 output is platform-independent; freeze one draw
        v = Rng(0).uniform((2,))
        assert np.allclose(v, [0.6369616873214543, 0.2697867137638703])

    def test_spawn_is_deterministic_and_distinct(self):
        r = Rng(7)
        assert np.array_equal(r.spawn(1).normal((3,)), Rng(7).spawn(1).normal((3,)))
        assert not np.array_equal(r.spawn(1).normal((3,)), r.spawn(2).normal((3,)))


def minor_faults_per_call(fn, calls, warmup=2):
    """The process's minor page faults per fn() call, after warm-up calls."""
    import resource
    for _ in range(warmup):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


@pytest.mark.skipif(not numerics._HEAP_KEPT,
                    reason="the allocator's thresholds were not set")
class TestFreedMemoryStaysInHeap:
    """Importing numerics keeps freed numpy buffers under 32 MiB in the heap,
    so a repeated call reuses memory instead of faulting it in again."""

    def test_dataset_loss_reuses_each_slice_tape(self):
        # test_10's arithmetic config: 4 slices of 16 examples, each slice's
        # tape about 1 MB; under glibc's defaults a call faults 600 to 1,400
        # times, as each freed tape goes back to the OS
        params = ModelParams(ModelConfig(
            d_model=32, heads=2, layers=2, d_ff=64,
            vocab_size=training.ARITH_VOCAB, d_c=4, seed=10, max_seq_len=8))
        data = training.make_task(training.TaskSpec(
            kind="arithmetic_chain", length=8, count=64, seed=10))
        assert minor_faults_per_call(
            lambda: training.dataset_loss(params, data, 0.5), 20) < 50

    def test_gsot_pipeline_reuses_its_n_by_n_arrays(self):
        # the bench model at n = 512: each n×n array is 2 MB, past glibc's
        # default 128 KiB mmap threshold, which a trim threshold alone
        # would freeze there
        n = 512
        params = ModelParams(ModelConfig(
            d_model=16, heads=1, layers=1, d_ff=512, vocab_size=32, d_c=4,
            seed=3, max_seq_len=n + 1))
        rng = Rng(3)
        universe = gsot.build_universe(params, 4, rng)
        cfg = gsot.GsotConfig(K=9)
        seqs = iter(rng.integers(0, 32, size=(5, n)))
        assert minor_faults_per_call(
            lambda: gsot.gsot_pipeline(next(seqs), universe, params, cfg),
            3) < 50

    @pytest.mark.parametrize("env", [
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}],
        ids=["MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"])
    def test_user_malloc_settings_are_left_alone(self, env):
        src = pathlib.Path(ttm_lab.__file__).parent.parent
        done = subprocess.run(
            [sys.executable, "-c",
             "from ttm_lab import numerics; print(numerics._HEAP_KEPT)"],
            env=dict(os.environ, PYTHONPATH=str(src), **env),
            capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == "False"
