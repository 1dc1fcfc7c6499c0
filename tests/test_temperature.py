import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab.model import ModelConfig, ModelParams
from ttm_lab.numerics import Rng, Tensor
from ttm_lab.temperature import (TemperatureHeadParams, collapse_penalty,
                                 compute_temperature, detect_collapse, squash)


def head_params(h, d, seed=0, std=1.0):
    rng = Rng(seed)
    return TemperatureHeadParams(W_t=Tensor(rng.normal((h, d), 0.0, std)),
                                 b_t=Tensor(rng.normal((h,), 0.0, std)))


class TestComputeTemperature:
    def test_zero_params_neutral(self):
        p = TemperatureHeadParams(W_t=Tensor(np.zeros((2, 4))),
                                  b_t=Tensor(np.zeros(2)))
        f = compute_temperature(Tensor(Rng(0).normal((3, 4))), p)
        assert np.array_equal(f.values, np.full((2, 3), 0.5))

    def test_scalar_formula(self):
        # near-zero squash margin: value approaches sigmoid(2)
        p = TemperatureHeadParams(W_t=Tensor([[2.0, 0.0]]), b_t=Tensor([0.0]),
                                  eps_min=1e-9)
        f = compute_temperature(Tensor([[1.0, 0.0]]), p)
        assert abs(f.values[0, 0] - 0.8807970779778823) < 1e-8

    def test_bounds_hold_for_extreme_params(self):
        for seed in range(20):
            p = head_params(2, 8, seed=seed, std=50.0)
            f = compute_temperature(Tensor(Rng(seed + 100).normal((5, 8), 0, 10)), p)
            assert f.values.min() >= 0.01 and f.values.max() <= 0.99

    def test_width_mismatch(self):
        with pytest.raises(Exception, match="width"):
            compute_temperature(Tensor(np.zeros((3, 5))), head_params(1, 4))


class TestCollapse:
    def test_penalty_zero_at_center(self):
        f = Tensor(np.full((2, 3), 0.5))
        assert float(collapse_penalty(f).values) == 0.0

    def test_penalty_single_offset(self):
        f = Tensor(np.array([[0.7]]))
        assert abs(float(collapse_penalty(f).values) - 0.04) < 1e-15

    def test_penalty_matches_sum_oracle(self):
        v = Rng(4).uniform((2, 3), 0.1, 0.9)
        got = float(collapse_penalty(Tensor(v)).values)
        assert abs(got - ((v - 0.5) ** 2).sum()) < 1e-12

    def test_penalty_gradient_points_to_center(self):
        v = Rng(6).uniform((2, 4), 0.1, 0.9)
        t = Tensor(v, requires_grad=True)
        collapse_penalty(t).backward()
        # descending the gradient moves every entry toward 0.5
        assert np.all(np.sign(t.grad) == np.sign(v - 0.5))

    def test_detect_clean_field(self):
        rep = detect_collapse(Tensor(np.full((2, 5), 0.5)), 0.01)
        assert rep.fraction == 0.0

    def test_detect_counts_offenders(self):
        v = np.full((1, 10), 0.5)
        v[0, 0] = 0.005
        rep = detect_collapse(Tensor(v), 0.01)
        assert rep.fraction == 0.1

    def test_boundary_is_not_collapse(self):
        rep = detect_collapse(Tensor(np.full((1, 4), 0.01)), 0.01)
        assert rep.fraction == 0.0

    def test_batch_reports_worst_example(self):
        # example 1 has 3 of its 8 entries collapsed, the others none; the
        # batch reports that example's fraction, not the batch-wide 3/32
        v = np.full((4, 2, 4), 0.5)
        v[0, 0, 0] = 0.3
        v[1, 0, :2] = 0.005
        v[1, 1, 3] = 0.996
        v[3, 1, 2] = 0.7
        rep = detect_collapse(Tensor(v), 0.01)
        assert rep.fraction == 3 / 8
        assert rep.min_value == 0.005 and rep.max_value == 0.996
        clean = np.delete(v, 1, axis=0)
        rep = detect_collapse(Tensor(clean), 0.01)
        assert rep.fraction == 0.0
        assert rep.min_value == 0.3 and rep.max_value == 0.7

    def test_batch_matches_per_example_reports(self):
        v = Rng(8).uniform((5, 2, 6), 0.001, 0.999)
        rep = detect_collapse(Tensor(v), 0.05)
        each = [detect_collapse(Tensor(e), 0.05)
                for e in v]
        assert rep.fraction == max(r.fraction for r in each)
        assert rep.min_value == min(r.min_value for r in each)
        assert rep.max_value == max(r.max_value for r in each)


class TestGradClip:
    """ModelParams.update clips a temperature gradient to +-1/sqrt(d_k)."""

    @staticmethod
    def bias_after_update(grad, lr_temp=0.5):
        # d_k = 64; the bias starts at 0 and is the one tensor given a
        # gradient, so it ends at -lr_temp times the clipped gradient
        params = ModelParams(ModelConfig(d_model=128, heads=2, layers=1,
                                         d_ff=4, vocab_size=4, max_seq_len=4))
        bias = params.tensors["block0.temp.bt"]
        bias.values[...] = 0.0
        bias.grad = np.array(grad)
        params.update(0.1, lr_temp, 0.01)
        return bias.values.tolist()

    def test_inside_range_untouched(self):
        assert self.bias_after_update([0.1, -0.03]) == [-0.5 * 0.1, 0.5 * 0.03]

    def test_clamps_to_head_dimension_threshold(self):
        assert self.bias_after_update([5.0, -5.0]) == [-0.5 / 8, 0.5 / 8]

    def test_zeros(self):
        assert self.bias_after_update([0.0, 0.0]) == [0.0, 0.0]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_field_bounds_under_random_draws(seed):
    p = head_params(2, 6, seed=seed, std=30.0)
    f = compute_temperature(Tensor(Rng(seed + 1).normal((4, 6), 0, 5)), p)
    assert f.values.min() >= 0.01 and f.values.max() <= 0.99


def test_squash_rejects_bad_eps():
    with pytest.raises(ValueError, match="eps_min 0.6 outside"):
        squash(Tensor([0.0]), eps_min=0.6)

