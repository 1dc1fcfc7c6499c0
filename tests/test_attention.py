import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab.attention import (AttentionConfigError, AttentionParams,
                               attention_baseline, attention_temp_broadcast,
                               attention_temp_outer, interference_ratio,
                               residual_blend)
from ttm_lab.numerics import NumericError, Rng, Tensor, grad_check
from ttm_lab.temperature import TemperatureField


def make_params(h, d_model, d_k, seed=0):
    rng = Rng(seed)
    return AttentionParams(
        W_qkv=Tensor(rng.normal((h, 3, d_model, d_k))),
        W_o=Tensor(rng.normal((h * d_k, d_model))))


def random_field(h, n, seed=0, lo=0.05, hi=0.95):
    return TemperatureField(Rng(seed).uniform((h, n), lo, hi))


def unit_field(h, n):
    return TemperatureField(np.ones((h, n)), eps_min=0.0, validate=False)


class TestBaseline:
    def test_single_token_weight_one(self):
        p = make_params(3, 6, 2)
        out = attention_baseline(Tensor(Rng(1).normal((1, 6))), p)
        assert np.array_equal(out.weights.values, np.ones((3, 1, 1)))

    def test_uniform_logits_average_values(self):
        # zero input rows -> zero logits -> uniform attention -> mean of V rows
        d = 4
        p = make_params(1, d, 2, seed=2)
        x = Tensor(np.zeros((3, d)))
        out = attention_baseline(x, p)
        assert np.abs(out.weights.values - 1 / 3).max() < 1e-15

    def test_hand_case_matches_stepwise_oracle(self):
        p = make_params(1, 4, 2, seed=3)
        x = Rng(4).normal((3, 4))
        q = x @ p.W_qkv.values[0, 0]
        k = x @ p.W_qkv.values[0, 1]
        v = x @ p.W_qkv.values[0, 2]
        logits = q @ k.T / np.sqrt(2.0)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        want = (w @ v) @ p.W_o.values
        got = attention_baseline(Tensor(x), p).values.values
        assert np.abs(got - want).max() < 1e-12

    def test_zero_head_width_rejected(self):
        with pytest.raises(AttentionConfigError):
            make_params(1, 4, 0)


class TestModulatedVariants:
    def test_unit_field_equals_baseline(self):
        p = make_params(2, 8, 4, seed=5)
        x = Tensor(Rng(6).normal((5, 8)))
        base = attention_baseline(x, p)
        for variant in (attention_temp_broadcast, attention_temp_outer):
            got = variant(base, p, unit_field(2, 5)).values.values
            assert np.abs(got - base.values.values).max() < 1e-12

    def test_broadcast_zero_logits_stay_uniform(self):
        p = make_params(1, 4, 2, seed=7)
        x = Tensor(np.zeros((4, 4)))
        f = TemperatureField(np.full((1, 4), 0.7))
        out = attention_temp_broadcast(attention_baseline(x, p), p, f)
        assert np.abs(out.weights.values - 0.25).max() < 1e-15

    def test_broadcast_two_token_closed_form(self):
        p = make_params(1, 4, 2, seed=8)
        x = Rng(9).normal((2, 4))
        t = np.array([[0.9, 0.1]])
        W = p.W_qkv.values[0]
        logits = (x @ W[0]) @ (x @ W[1]).T / np.sqrt(2.0)
        mod = logits * t  # column j scaled by t[j]
        e = np.exp(mod - mod.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        out = attention_temp_broadcast(attention_baseline(Tensor(x), p), p,
                                       TemperatureField(t))
        assert np.abs(out.weights.values[0] - w).max() < 1e-12

    def test_outer_constant_field_scales_logits(self):
        p = make_params(1, 4, 2, seed=10)
        x = Tensor(Rng(11).normal((3, 4)))
        c = 0.6
        base = attention_baseline(x, p)
        scaled = base.pre_softmax.values * c * c
        e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        out = attention_temp_outer(base, p, TemperatureField(np.full((1, 3), c)))
        assert np.abs(out.weights.values - want).max() < 1e-12

    def test_outer_hand_case(self):
        p = make_params(1, 4, 2, seed=12)
        x = Rng(13).normal((2, 4))
        t = np.array([[0.8, 0.3]])
        W = p.W_qkv.values[0]
        logits = (x @ W[0]) @ (x @ W[1]).T / np.sqrt(2.0)
        mod = logits * np.outer(t[0], t[0])
        e = np.exp(mod - mod.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        out = attention_temp_outer(attention_baseline(Tensor(x), p), p,
                                   TemperatureField(t))
        assert np.abs(out.weights.values[0] - want).max() < 1e-12

    def test_field_length_mismatch(self):
        p = make_params(1, 4, 2)
        with pytest.raises(Exception, match="match"):
            attention_temp_broadcast(
                attention_baseline(Tensor(np.zeros((3, 4))), p), p,
                random_field(1, 5))


def reference_attention(x, p, mult=None):
    """Per-head numpy reference: logits times mult[i] for head i, softmax,
    head outputs side by side in head order, then W_o."""
    W = p.W_qkv.values
    outs, weights = [], []
    for i in range(p.head_count):
        q, k, v = (x @ W[i, j] for j in range(3))
        logits = q @ k.T / np.sqrt(p.d_k)
        if mult is not None:
            logits = logits * mult[i]
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        outs.append(w @ v)
        weights.append(w)
    return np.concatenate(outs, axis=1) @ p.W_o.values, np.stack(weights)


class TestMultiHeadOracle:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_all_variants_match_per_head_reference(self, h):
        d_k, n = 3, 5
        p = make_params(h, h * d_k + 1, d_k, seed=40 + h)
        x = Rng(50 + h).normal((n, h * d_k + 1))
        t = Rng(60 + h).uniform((h, n), 0.1, 0.9)
        f = TemperatureField(t)
        base = attention_baseline(Tensor(x), p)
        cases = [(base, None),
                 (attention_temp_broadcast(base, p, f), t[:, None, :]),
                 (attention_temp_outer(base, p, f),
                  t[:, :, None] * t[:, None, :])]
        for out, mult in cases:
            values, weights = reference_attention(x, p, mult)
            assert np.abs(out.values.values - values).max() < 1e-12
            assert np.abs(out.weights.values - weights).max() < 1e-12


class TestRowStochastic:
    @given(st.integers(0, 5000), st.integers(2, 16), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_all_variants(self, seed, n, h):
        d_k = 2
        p = make_params(h, h * d_k + 1, d_k, seed=seed)
        x = Tensor(Rng(seed + 1).normal((n, h * d_k + 1)))
        f = random_field(h, n, seed=seed + 2)
        base = attention_baseline(x, p)
        for out in (base,
                    attention_temp_broadcast(base, p, f),
                    attention_temp_outer(base, p, f)):
            sums = out.weights.values.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-9


class TestStructuralProperties:
    def test_monotone_suppression_on_positive_logits(self):
        # with all-positive logits, cooling token j never raises weight on j
        p = make_params(1, 4, 2, seed=20)
        rng = Rng(21)
        found = 0
        while found < 20:
            x = rng.normal((3, 4))
            logits = (x @ p.W_qkv.values[0, 0]) @ (x @ p.W_qkv.values[0, 1]).T
            if logits.min() <= 0:
                continue
            found += 1
            t = rng.uniform((1, 3), 0.3, 0.9)
            lo = t.copy()
            lo[0, 1] *= 0.5
            base = attention_baseline(Tensor(x), p)
            w_hi = attention_temp_broadcast(base, p, TemperatureField(t))
            w_lo = attention_temp_broadcast(base, p, TemperatureField(lo))
            assert np.all(w_lo.weights.values[0][:, 1]
                          <= w_hi.weights.values[0][:, 1] + 1e-12)

    def test_permutation_equivariance(self):
        p = make_params(2, 6, 3, seed=22)
        x = Rng(23).normal((5, 6))
        f = Rng(24).uniform((2, 5), 0.1, 0.9)
        perm = Rng(25).permutation(5)
        direct = attention_temp_broadcast(attention_baseline(Tensor(x[perm]), p),
                                          p, TemperatureField(f[:, perm]))
        original = attention_temp_broadcast(attention_baseline(Tensor(x), p), p,
                                            TemperatureField(f))
        assert np.abs(direct.values.values
                      - original.values.values[perm]).max() < 1e-12

    def test_gradients_both_variants(self):
        p = make_params(2, 6, 3, seed=26)
        x = Tensor(Rng(27).normal((4, 6)))
        f = random_field(2, 4, seed=28)
        for variant in (attention_temp_broadcast, attention_temp_outer):
            err = grad_check(
                lambda t: (variant(attention_baseline(t, p), p, f).values ** 2).sum(),
                x)
            assert err < 1e-5

    def test_causal_mask_zeroes_future(self):
        p = make_params(1, 4, 2, seed=29)
        out = attention_baseline(Tensor(Rng(30).normal((4, 4))), p, causal=True)
        w = out.weights.values[0]
        assert np.abs(np.triu(w, k=1)).max() < 1e-12


class TestResidualBlend:
    def rows(self, seed):
        a = Rng(seed).uniform((1, 2, 2))
        return Tensor(a / a.sum(axis=-1, keepdims=True))

    def test_alpha_one_is_base(self):
        base, mod = self.rows(1), self.rows(2)
        out = residual_blend(base, mod, 1.0)
        assert np.abs(out.values - base.values).max() < 1e-15

    def test_alpha_zero_is_modulated(self):
        base, mod = self.rows(3), self.rows(4)
        out = residual_blend(base, mod, 0.0)
        assert np.abs(out.values - mod.values).max() < 1e-15

    def test_midpoint_matches_oracle(self):
        base, mod = self.rows(5), self.rows(6)
        mix = 0.5 * base.values + 0.5 * mod.values
        want = mix / mix.sum(axis=-1, keepdims=True)
        out = residual_blend(base, mod, 0.5)
        assert np.abs(out.values - want).max() < 1e-12

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            residual_blend(self.rows(7), self.rows(8), 1.5)


class TestInterference:
    def test_unit_field_ratio_one(self):
        w = Rng(1).uniform((2, 3, 3))
        assert abs(interference_ratio(w, unit_field(2, 3)) - 1.0) < 1e-12

    def test_half_field_ratio_half(self):
        w = Rng(2).uniform((1, 3, 3))
        f = TemperatureField(np.full((1, 3), 0.5))
        assert abs(interference_ratio(w, f) - 0.5) < 1e-12

    def test_matches_norm_quotient(self):
        w = Rng(3).uniform((2, 4, 4))
        f = random_field(2, 4, seed=4)
        want = np.linalg.norm(w * f.array()[:, None, :]) / np.linalg.norm(w)
        assert abs(interference_ratio(w, f) - want) < 1e-12

    def test_zero_weights_rejected(self):
        with pytest.raises(NumericError):
            interference_ratio(np.zeros((1, 2, 2)), random_field(1, 2))
