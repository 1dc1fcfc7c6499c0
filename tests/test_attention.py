import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab.attention import (AttentionParams, attention_baseline,
                               attention_temp_broadcast, attention_temp_outer)
from ttm_lab.numerics import DimensionError, Rng, Tensor, grad_check


def make_params(h, d_model, d_k, seed=0):
    rng = Rng(seed)
    return AttentionParams(
        W_qkv=Tensor(rng.normal((h, 3, d_model, d_k))),
        W_o=Tensor(rng.normal((h * d_k, d_model))))


def random_field(h, n, seed=0, lo=0.05, hi=0.95):
    return Tensor(Rng(seed).uniform((h, n), lo, hi))


def unit_field(h, n):
    return Tensor(np.ones((h, n)))


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
        with pytest.raises(ValueError, match="W_qkv must have shape"):
            make_params(1, 4, 0)

    @pytest.mark.parametrize("w_o", [(8,), (8, 5), (5, 8)])
    def test_misshapen_output_projection_rejected(self, w_o):
        # without the check a 1-D W_o gave an (n,) output, an (8, 5) one an
        # (n, 5) output, and a (5, 8) one failed inside numpy's matmul
        W_qkv = Tensor(Rng(0).normal((2, 3, 8, 4)))
        with pytest.raises(ValueError, match=(
                r"^W_o must have shape \(h \* d_k, d_model\) = \(8, 8\) for "
                rf"W_qkv \(2, 3, 8, 4\), got {re.escape(str(w_o))}$")):
            AttentionParams(W_qkv=W_qkv, W_o=Tensor(np.ones(w_o)))


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
        f = Tensor(np.full((1, 4), 0.7))
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
                                       Tensor(t))
        assert np.abs(out.weights.values[0] - w).max() < 1e-12

    def test_outer_constant_field_scales_logits(self):
        p = make_params(1, 4, 2, seed=10)
        x = Tensor(Rng(11).normal((3, 4)))
        c = 0.6
        base = attention_baseline(x, p)
        scaled = base.pre_softmax.values * c * c
        e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        out = attention_temp_outer(base, p, Tensor(np.full((1, 3), c)))
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
                                   Tensor(t))
        assert np.abs(out.weights.values[0] - want).max() < 1e-12

    def test_field_length_mismatch(self):
        p = make_params(1, 4, 2)
        with pytest.raises(Exception, match="match"):
            attention_temp_broadcast(
                attention_baseline(Tensor(np.zeros((3, 4))), p), p,
                random_field(1, 5))

    @pytest.mark.parametrize("variant", [attention_temp_broadcast,
                                         attention_temp_outer])
    @pytest.mark.parametrize("shape", [(2, 4), (3, 2, 3)],
                             ids=["one-token-too-many", "batched-field"])
    def test_wrong_field_shape_rejected(self, variant, shape):
        # h = 2, n = 3: a batched field would broadcast against unbatched
        # logits without the shape check
        p = make_params(2, 4, 2)
        base = attention_baseline(Tensor(Rng(3).normal((3, 4))), p)
        with pytest.raises(DimensionError, match=r"field shape \("):
            variant(base, p, Tensor(np.full(shape, 0.5)))


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
        f = Tensor(t)
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
            w_hi = attention_temp_broadcast(base, p, Tensor(t))
            w_lo = attention_temp_broadcast(base, p, Tensor(lo))
            assert np.all(w_lo.weights.values[0][:, 1]
                          <= w_hi.weights.values[0][:, 1] + 1e-12)

    def test_permutation_equivariance(self):
        p = make_params(2, 6, 3, seed=22)
        x = Rng(23).normal((5, 6))
        f = Rng(24).uniform((2, 5), 0.1, 0.9)
        perm = np.random.Generator(np.random.PCG64(25)).permutation(5)
        direct = attention_temp_broadcast(attention_baseline(Tensor(x[perm]), p),
                                          p, Tensor(f[:, perm]))
        original = attention_temp_broadcast(attention_baseline(Tensor(x), p), p,
                                            Tensor(f))
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

