import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttm_lab.numerics import (DimensionError, NumericError, Rng, Tensor,
                              concat, gelu, grad_check, layer_norm, matmul,
                              sigmoid_map, softmax_rows)


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
    def test_zero(self):
        assert sigmoid_map(Tensor([0.0])).values[0] == 0.5

    def test_saturation_stays_finite(self):
        v = sigmoid_map(Tensor([-50.0])).values[0]
        assert 0.0 < v <= 1e-20 and math.isfinite(v)

    def test_reference_value(self):
        assert abs(sigmoid_map(Tensor([1.0])).values[0] - 0.7310585786300049) < 1e-12


class TestLayerNorm:
    def test_constant_row_is_zero(self):
        out = layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))
        assert np.abs(out.values).max() < 1e-6

    def test_direct_formula(self):
        out = layer_norm(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)), eps=1e-12)
        expected = np.array([-1.2247448713915887, 0.0, 1.2247448713915887])
        assert np.abs(out.values[0] - expected).max() < 1e-6

    def test_zero_gain_yields_bias(self):
        bias = np.array([1.0, -2.0, 0.5])
        out = layer_norm(Tensor([[4.0, 9.0, -1.0]]), Tensor(np.zeros(3)),
                         Tensor(bias))
        assert np.array_equal(out.values[0], bias)

    def test_standardizes_rows(self):
        rng = Rng(5)
        x = Tensor(rng.normal((6, 8)))
        out = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=1e-12)
        assert np.abs(out.values.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.values.var(axis=-1) - 1.0).max() < 1e-9

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
            lambda t: sigmoid_map(t).sum(),
            lambda t: gelu(t).sum(),
            lambda t: layer_norm(t, gain, bias).sum(),
            lambda t: (t @ w).sum(),
            lambda t: (t.exp() * 0.01).sum(),
            lambda t: ((t ** 2) + 1.0).log().sum(),
            lambda t: t.tanh().sum(),
            lambda t: concat([t, t * 2.0], axis=0).sum(),
            lambda t: t[1:, ::2].sum(),
            lambda t: t.clip(-0.5, 0.5).sum(),
            lambda t: t.T.mean(axis=0).sum(),
        ]
        for fn in fns:
            assert grad_check(fn, x) < 1e-5

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: t.sum(), Tensor([1.0]), eps=1e-2)


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
        x = Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            loss = (x.exp() + x.tanh()).sum()
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


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
