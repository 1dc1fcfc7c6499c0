import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab.numerics import Rng, Tensor
from ttm_lab.temperature import (ConfigurationError, NgramTransform,
                                 TemperatureField, TemperatureHeadParams,
                                 clip_temperature_grad, collapse_penalty,
                                 compute_temperature, compute_temperature_ctx,
                                 coupled_temperature, default_grad_clip_tau,
                                 detect_collapse, invariance_diagnostic,
                                 ngram_temperature, normalize_temperature,
                                 squash)


def head_params(h, d, seed=0, std=1.0, d_c=None):
    rng = Rng(seed)
    W_c = Tensor(rng.normal((h, d_c), 0.0, std)) if d_c else None
    return TemperatureHeadParams(W_t=Tensor(rng.normal((h, d), 0.0, std)),
                                 b_t=Tensor(rng.normal((h,), 0.0, std)),
                                 W_c=W_c)


class TestComputeTemperature:
    def test_zero_params_neutral(self):
        p = TemperatureHeadParams(W_t=Tensor(np.zeros((2, 4))),
                                  b_t=Tensor(np.zeros(2)))
        f = compute_temperature(Tensor(Rng(0).normal((3, 4))), p)
        assert np.array_equal(f.array(), np.full((2, 3), 0.5))

    def test_scalar_formula(self):
        # near-zero squash margin: value approaches sigmoid(2)
        p = TemperatureHeadParams(W_t=Tensor([[2.0, 0.0]]), b_t=Tensor([0.0]),
                                  eps_min=1e-9)
        f = compute_temperature(Tensor([[1.0, 0.0]]), p)
        assert abs(f.array()[0, 0] - 0.8807970779778823) < 1e-8

    def test_bounds_hold_for_extreme_params(self):
        for seed in range(20):
            p = head_params(2, 8, seed=seed, std=50.0)
            f = compute_temperature(Tensor(Rng(seed + 100).normal((5, 8), 0, 10)), p)
            assert f.array().min() >= 0.01 and f.array().max() <= 0.99

    def test_width_mismatch(self):
        with pytest.raises(Exception, match="width"):
            compute_temperature(Tensor(np.zeros((3, 5))), head_params(1, 4))


class TestContextTemperature:
    def test_zero_context_reduces_to_plain(self):
        p = head_params(2, 6, seed=3, d_c=4)
        acts = Tensor(Rng(5).normal((5, 6)))
        with_ctx = compute_temperature_ctx(acts, Tensor(np.zeros(4)), p)
        plain = compute_temperature(acts, p)
        assert np.array_equal(with_ctx.array(), plain.array())

    def test_zero_params_neutral(self):
        p = TemperatureHeadParams(W_t=Tensor(np.zeros((1, 2))),
                                  b_t=Tensor(np.zeros(1)),
                                  W_c=Tensor([[1.0]]))
        f = compute_temperature_ctx(Tensor(np.zeros((3, 2))), Tensor([0.0]), p)
        assert np.array_equal(f.array(), np.full((1, 3), 0.5))

    def test_hand_case_matches_scalar_oracle(self):
        p = TemperatureHeadParams(W_t=Tensor([[1.0, -1.0]]), b_t=Tensor([0.2]),
                                  W_c=Tensor([[0.5]]))
        acts = np.array([[0.3, 0.1], [-0.2, 0.4]])
        c = np.array([0.8])
        f = compute_temperature_ctx(Tensor(acts), Tensor(c), p)
        for i in range(2):
            logit = acts[i, 0] - acts[i, 1] + 0.2 + 0.5 * 0.8
            want = 0.01 + 0.98 / (1.0 + np.exp(-logit))
            assert abs(f.array()[0, i] - want) < 1e-12

    def test_broadcast_mode_is_token_independent(self):
        p = head_params(2, 6, seed=9, d_c=3)
        acts = Tensor(Rng(2).normal((4, 6)))
        f = compute_temperature_ctx(acts, Tensor(Rng(3).normal((3,))), p,
                                    broadcast_only=True)
        assert np.ptp(f.array(), axis=1).max() == 0.0

    def test_missing_context_weights(self):
        p = head_params(1, 4)
        with pytest.raises(ConfigurationError):
            compute_temperature_ctx(Tensor(np.zeros((2, 4))), Tensor([0.0]), p)


class TestCollapse:
    def test_penalty_zero_at_center(self):
        f = TemperatureField(np.full((2, 3), 0.5))
        assert float(collapse_penalty(f, 1.0).values) == 0.0

    def test_penalty_single_offset(self):
        f = TemperatureField(np.array([[0.7]]))
        assert abs(float(collapse_penalty(f, 1.0).values) - 0.04) < 1e-15

    def test_penalty_matches_sum_oracle(self):
        v = Rng(4).uniform((2, 3), 0.1, 0.9)
        got = float(collapse_penalty(TemperatureField(v), 0.5).values)
        assert abs(got - 0.5 * ((v - 0.5) ** 2).sum()) < 1e-12

    def test_penalty_gradient_points_to_center(self):
        v = Rng(6).uniform((2, 4), 0.1, 0.9)
        t = Tensor(v, requires_grad=True)
        f = TemperatureField(t)
        collapse_penalty(f, 1.0).backward()
        # descending the gradient moves every entry toward 0.5
        assert np.all(np.sign(t.grad) == np.sign(v - 0.5))

    def test_detect_clean_field(self):
        rep = detect_collapse(TemperatureField(np.full((2, 5), 0.5)), 0.01)
        assert not rep.collapsed and rep.fraction == 0.0

    def test_detect_counts_offenders(self):
        v = np.full((1, 10), 0.5)
        v[0, 0] = 0.005
        rep = detect_collapse(TemperatureField(v, eps_min=0.001), 0.01)
        assert rep.collapsed and rep.fraction == 0.1

    def test_boundary_is_not_collapse(self):
        rep = detect_collapse(TemperatureField(np.full((1, 4), 0.01)), 0.01)
        assert not rep.collapsed

    def test_batch_reports_worst_example(self):
        # example 1 has 3 of its 8 entries collapsed, the others none; the
        # batch reports that example's fraction, not the batch-wide 3/32
        v = np.full((4, 2, 4), 0.5)
        v[0, 0, 0] = 0.3
        v[1, 0, :2] = 0.005
        v[1, 1, 3] = 0.996
        v[3, 1, 2] = 0.7
        rep = detect_collapse(TemperatureField(v, eps_min=0.001), 0.01)
        assert rep.collapsed
        assert rep.fraction == 3 / 8
        assert rep.min_value == 0.005 and rep.max_value == 0.996
        clean = np.delete(v, 1, axis=0)
        rep = detect_collapse(TemperatureField(clean, eps_min=0.001), 0.01)
        assert not rep.collapsed and rep.fraction == 0.0
        assert rep.min_value == 0.3 and rep.max_value == 0.7

    def test_batch_matches_per_example_reports(self):
        v = Rng(8).uniform((5, 2, 6), 0.001, 0.999)
        rep = detect_collapse(TemperatureField(v, eps_min=0.001), 0.05)
        each = [detect_collapse(TemperatureField(e, eps_min=0.001), 0.05)
                for e in v]
        assert rep.fraction == max(r.fraction for r in each)
        assert rep.min_value == min(r.min_value for r in each)
        assert rep.max_value == max(r.max_value for r in each)
        assert rep.collapsed == any(r.collapsed for r in each)


class TestGradClip:
    def test_inside_range_untouched(self):
        assert clip_temperature_grad(np.array([0.1]), 1.0).tolist() == [0.1]

    def test_clamps_to_head_dimension_threshold(self):
        tau = default_grad_clip_tau(64)
        assert tau == 0.125
        out = clip_temperature_grad(np.array([5.0, -5.0]), tau)
        assert out.tolist() == [0.125, -0.125]

    def test_zeros(self):
        assert clip_temperature_grad(np.zeros(3), 0.5).tolist() == [0, 0, 0]


class TestNormalize:
    def test_constant_field_centers(self):
        f = normalize_temperature(TemperatureField(np.full((2, 4), 0.8)))
        assert np.abs(f.array() - 0.5).max() < 1e-6

    def test_symmetric_pair(self):
        f = normalize_temperature(TemperatureField(np.array([[0.2, 0.8]])))
        a, b = f.array()[0]
        assert abs((a - 0.5) + (b - 0.5)) < 1e-12

    def test_pre_squash_moments(self):
        v = Rng(8).uniform((3, 16), 0.05, 0.95)
        mu = v.mean(axis=-1, keepdims=True)
        z = (v - mu) / np.sqrt(((v - mu) ** 2).mean(axis=-1, keepdims=True) + 1e-12)
        assert np.abs(z.mean(axis=-1)).max() < 1e-9
        assert np.abs(z.var(axis=-1) - 1.0).max() < 1e-9
        got = normalize_temperature(TemperatureField(v))
        want = 0.01 + 0.98 / (1.0 + np.exp(-z))
        assert np.abs(got.array() - want).max() < 1e-12

    def test_single_token_warns_and_passes_through(self):
        f = TemperatureField(np.array([[0.7]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = normalize_temperature(f)
        assert out is f and len(caught) == 1


class TestCoupled:
    def test_empty_adjacency(self):
        base = TemperatureField(np.full((1, 3), 0.5))
        out = coupled_temperature(base, Rng(0).normal((3, 4)), [[], [], []], 0.3)
        assert np.array_equal(out.array(), base.array())

    def test_zero_alpha(self):
        base = TemperatureField(np.full((1, 2), 0.4))
        out = coupled_temperature(base, Rng(1).normal((2, 4)), [[1], [0]], 0.0)
        assert np.array_equal(out.array(), base.array())

    def test_identical_embeddings_one_term(self):
        base = TemperatureField(np.full((1, 2), 0.5))
        emb = np.vstack([np.ones(4), np.ones(4)])
        out = coupled_temperature(base, emb, {0: [1]}, 0.2)
        assert abs(out.array()[0, 0] - 0.7) < 1e-12
        assert out.array()[0, 1] == 0.5

    def test_clamped_into_bounds(self):
        base = TemperatureField(np.full((1, 2), 0.9))
        emb = np.ones((2, 3))
        out = coupled_temperature(base, emb, {0: [1], 1: [0]}, 5.0)
        assert out.array().max() <= 0.99


class TestNgram:
    def test_single_token_window_preserves_order(self):
        base = TemperatureField(np.array([[0.2, 0.5, 0.8]]))
        out = ngram_temperature(base, 1, [1.0])
        assert out.array().shape == (1, 3)
        assert np.all(np.diff(out.array()[0]) > 0)

    def test_uniform_base_gives_constant_windows(self):
        base = TemperatureField(np.full((2, 5), 0.5))
        out = ngram_temperature(base, 3, [0.3, -1.0, 2.0])
        assert np.ptp(out.array()) == 0.0

    def test_window_sum_oracle(self):
        base = TemperatureField(np.array([[0.2, 0.5, 0.8]]))
        out = ngram_temperature(base, 2, [1.0, 1.0],
                                NgramTransform(scale=2.0, shift=-1.0))
        for i, s in enumerate([0.7, 1.3]):
            want = 0.01 + 0.98 / (1.0 + np.exp(-(2.0 * s - 1.0)))
            assert abs(out.array()[0, i] - want) < 1e-12

    def test_window_longer_than_sequence(self):
        with pytest.raises(Exception):
            ngram_temperature(TemperatureField(np.full((1, 2), 0.5)), 3,
                              [1.0, 1.0, 1.0])


class TestInvariance:
    def test_identical_layers_zero_drift(self):
        f = TemperatureField(np.full((1, 4), 0.5))
        rep = invariance_diagnostic([f, f, f])
        assert rep.max_drift == 0.0

    def test_drift_arithmetic(self):
        a = TemperatureField(np.full((2, 8), 0.5))       # sum 8.0
        b = TemperatureField(np.full((2, 8), 0.525))     # sum 8.4
        rep = invariance_diagnostic([a, b])
        assert abs(rep.max_drift - 0.4) < 1e-12

    def test_enforce_equalizes_sums(self):
        a = TemperatureField(Rng(2).uniform((2, 5), 0.3, 0.7))
        b = TemperatureField(Rng(3).uniform((2, 5), 0.3, 0.7))
        rep = invariance_diagnostic([a, b], enforce=True)
        target = rep.layer_sums[0]
        for f in rep.renormalized:
            assert abs(f.array().sum() - target) < 1e-9
        assert not rep.clamp_adjusted

    def test_needs_two_layers(self):
        with pytest.raises(ConfigurationError):
            invariance_diagnostic([TemperatureField(np.full((1, 2), 0.5))])


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_field_bounds_under_random_draws(seed):
    p = head_params(2, 6, seed=seed, std=30.0)
    f = compute_temperature(Tensor(Rng(seed + 1).normal((4, 6), 0, 5)), p)
    assert f.array().min() >= 0.01 and f.array().max() <= 0.99


def test_squash_rejects_bad_eps():
    with pytest.raises(ConfigurationError):
        squash(Tensor([0.0]), eps_min=0.6)

