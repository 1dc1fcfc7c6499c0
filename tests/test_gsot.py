import json
import math

import numpy as np
import pytest

from ttm_lab.gsot import (BACKTRACK, CONTINUE, EmptyPathError, GsotConfig,
                          ReasoningPath, ReasoningTrace, TokenUniverse,
                          active_set_schedule_check, build_universe,
                          complexity_fit, forward_macs, gsot_pipeline,
                          hidden_temperature, hidden_token_probs,
                          hidden_tokens, integrated_token_processing,
                          recovery_step, schedule_target, select_path)
from ttm_lab.model import (ModelConfig, ModelParams, embed_tokens,
                           forward_embedded, reasoning_head)
from ttm_lab.numerics import Rng, Tensor


def toy_model(seed=0, **kw):
    base = dict(d_model=8, heads=2, layers=1, d_ff=16, vocab_size=12, d_c=4,
                seed=seed, max_seq_len=32)
    base.update(kw)
    return ModelParams(ModelConfig(**base))


def toy_universe(params, hidden_count=4, seed=0):
    return build_universe(params, hidden_count, Rng(seed))


class TestHiddenTokens:
    def test_threshold_above_mass_empty(self):
        params = toy_model()
        uni = toy_universe(params)
        probs = hidden_token_probs(1, np.zeros(4), uni)
        theta = float(probs.max())
        assert hidden_tokens(1, np.zeros(4), uni, theta + 1e-12) == set()

    def test_single_hidden_always_included(self):
        params = toy_model()
        uni = toy_universe(params, hidden_count=1)
        assert hidden_tokens(3, np.zeros(4), uni, 0.99) == {uni.vocab_size}

    def test_matches_softmax_threshold_oracle(self):
        params = toy_model(seed=2)
        uni = toy_universe(params, hidden_count=4, seed=3)
        ctx = Rng(4).normal((4,))
        joint = np.concatenate([uni.primary[5], ctx])
        scores = uni.hidden @ (uni.W_h @ joint)
        e = np.exp(scores - scores.max())
        probs = e / e.sum()
        theta = 0.2
        want = {uni.vocab_size + i for i, p in enumerate(probs) if p > theta}
        assert hidden_tokens(5, ctx, uni, theta) == want
        assert np.abs(hidden_token_probs(5, ctx, uni) - probs).max() < 1e-12

    def test_exact_threshold_excluded(self):
        params = toy_model()
        uni = toy_universe(params)
        probs = hidden_token_probs(0, np.zeros(4), uni)
        theta = float(probs[0])
        assert uni.vocab_size + 0 not in hidden_tokens(0, np.zeros(4), uni, theta)

    def test_unknown_primary_token(self):
        uni = toy_universe(toy_model())
        with pytest.raises(ValueError):
            hidden_token_probs(99, np.zeros(4), uni)


class TestIntegratedProcessing:
    def test_ceiling_threshold_empties_both_sets(self):
        params = toy_model(seed=5)
        cfg = GsotConfig(tau_p=0.99)
        v, h, _ = integrated_token_processing([1, 2, 3], np.zeros(4),
                                              toy_universe(params), params, cfg)
        assert v == [] and h == []

    def test_floor_threshold_keeps_everything(self):
        params = toy_model(seed=6)
        cfg = GsotConfig(tau_p=0.01, theta=0.999)
        v, h, _ = integrated_token_processing([1, 2, 3, 4], np.zeros(4),
                                              toy_universe(params), params, cfg)
        assert v == [0, 1, 2, 3]

    def test_matches_reference_walk(self):
        params = toy_model(seed=7)
        uni = toy_universe(params, seed=8)
        cfg = GsotConfig(theta=0.2, tau_p=0.45, tau_h=0.2)
        X = [2, 9, 4, 7]
        ctx = Rng(9).normal((4,))
        v, h, trace = integrated_token_processing(X, ctx, uni, params, cfg)
        # independent straight-line reimplementation
        emb = Tensor(uni.primary[X])
        _, fields, _ = forward_embedded(emb, params)
        temps = fields[-1].array().mean(axis=0)
        want_v, want_h = [], []
        for i, x in enumerate(X):
            if temps[i] > cfg.tau_p:
                want_v.append(i)
                probs = hidden_token_probs(x, ctx, uni)
                for j, p in enumerate(probs):
                    hid = uni.vocab_size + j
                    if p > cfg.theta and hidden_temperature(hid, p, uni) > cfg.tau_h:
                        want_h.append(hid)
        assert v == want_v and h == want_h
        assert len(trace.steps) == len(X)

    def test_raising_threshold_shrinks_active_set(self):
        for seed in range(20):
            params = toy_model(seed=seed)
            uni = toy_universe(params, seed=seed)
            X = [int(t) for t in Rng(seed + 50).integers(0, 12, size=6)]
            lo_cfg = GsotConfig(tau_p=0.3)
            hi_cfg = GsotConfig(tau_p=0.6)
            v_lo, _, _ = integrated_token_processing(X, np.zeros(4), uni, params, lo_cfg)
            v_hi, _, _ = integrated_token_processing(X, np.zeros(4), uni, params, hi_cfg)
            assert set(v_hi) <= set(v_lo)


class TestSelectPath:
    def test_single_path(self):
        path = ReasoningPath(id=0, steps=[], fn=lambda x: x)
        best, losses = select_path([path], [(1.0, 1.0)], lambda p, y: (p - y) ** 2)
        assert best is path and losses == [0.0]

    def test_exact_path_dominates(self):
        exact = ReasoningPath(id=0, steps=[], fn=lambda x: x)
        off = ReasoningPath(id=1, steps=[], fn=lambda x: x + 1.0)
        data = [(float(i), float(i)) for i in range(5)]
        best, losses = select_path([off, exact], data, lambda p, y: (p - y) ** 2)
        assert best is exact and losses[1] == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = Rng(10)
        table = rng.uniform((5, 20))
        paths = [ReasoningPath(id=i, steps=[],
                               fn=(lambda i: lambda x: table[i, int(x)])(i))
                 for i in range(5)]
        data = [(float(j), 0.0) for j in range(20)]
        loss_fn = lambda p, y: abs(p - y)
        best, losses = select_path(paths, data, loss_fn)
        means = table.mean(axis=1)
        assert np.abs(np.asarray(losses) - means).max() < 1e-12
        assert best.id == int(means.argmin())

    def test_tie_breaks_by_lowest_id(self):
        a = ReasoningPath(id=3, steps=[], fn=lambda x: 0.0)
        b = ReasoningPath(id=1, steps=[], fn=lambda x: 0.0)
        best, _ = select_path([a, b], [(0.0, 0.0)], lambda p, y: 0.0)
        assert best.id == 1

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            select_path([], [(0, 0)], lambda p, y: 0.0)
        with pytest.raises(ValueError):
            select_path([ReasoningPath(0, [], lambda x: x)], [], lambda p, y: 0.0)


class TestPipeline:
    def test_pass_through_equals_plain_forward(self):
        # floor threshold, no hidden candidates: stage 3 sees exactly X
        params = toy_model(seed=11)
        uni = toy_universe(params, seed=12)
        cfg = GsotConfig(tau_p=0.01, theta=0.999)
        X = [1, 2, 3, 4, 5]
        probs, trace = gsot_pipeline(X, uni, params, cfg)
        _, fields, hidden = forward_embedded(Tensor(uni.primary[X]), params)
        want = reasoning_head(hidden, fields[-1], params.W_reason)
        assert np.abs(probs.values - want.values).max() < 1e-12
        assert trace.steps[0].active_primary == [0, 1, 2, 3, 4]

    def test_all_filtered_raises_empty_path(self):
        params = toy_model(seed=13)
        with pytest.raises(EmptyPathError):
            gsot_pipeline([1, 2], toy_universe(params), params,
                          GsotConfig(tau_p=0.99))

    def test_trace_deterministic(self):
        def run():
            params = toy_model(seed=14)
            uni = toy_universe(params, seed=15)
            _, trace = gsot_pipeline([3, 1, 4, 1, 5, 9], uni, params,
                                     GsotConfig(tau_p=0.4, K=3))
            return trace.to_jsonl()
        assert run() == run()

    def test_scheduled_shrinkage_respects_bound(self):
        params = toy_model(seed=16, max_seq_len=32)
        uni = toy_universe(params, seed=17)
        n, K = 12, 4
        X = [int(t) for t in Rng(18).integers(0, 12, size=n)]
        _, trace = gsot_pipeline(X, uni, params, GsotConfig(K=K))
        extraction = ReasoningTrace(steps=trace.steps[:-1])
        report = active_set_schedule_check(extraction, n, K)
        assert report.satisfied

    def test_jsonl_fields(self):
        params = toy_model(seed=19)
        uni = toy_universe(params, seed=20)
        _, trace = gsot_pipeline([1, 2, 3], uni, params, GsotConfig(tau_p=0.1))
        for line in trace.to_jsonl().strip().split("\n"):
            rec = json.loads(line)
            assert set(rec) == {"step", "active_primary", "active_hidden",
                                "mean_temperature", "decision", "op_count"}

    def test_op_counts_cumulative(self):
        params = toy_model(seed=21)
        uni = toy_universe(params, seed=22)
        _, trace = gsot_pipeline([5] * 8, uni, params, GsotConfig(K=3))
        ops = [s.op_count for s in trace.steps]
        assert all(a <= b for a, b in zip(ops, ops[1:]))


class TestRecovery:
    def test_continue_above_threshold(self):
        assert recovery_step(0.9, GsotConfig(tau_backtrack=0.5)) == CONTINUE

    def test_backtrack_below_threshold(self):
        assert recovery_step(0.3, GsotConfig(tau_backtrack=0.5)) == BACKTRACK

    def test_out_of_range_summary(self):
        with pytest.raises(ValueError):
            recovery_step(1.5, GsotConfig())

    def test_forced_low_temperature_records_one_backtrack(self):
        # drive the mean temperature below the recovery threshold so the
        # scheduler burns its single alternate branch, then flags the trace
        params = toy_model(seed=23)
        for block in params.blocks:
            block.temp.b_t.values[:] = -10.0  # near-floor temperatures
        uni = toy_universe(params, seed=24)
        cfg = GsotConfig(K=3, tau_backtrack=0.5)
        _, trace = gsot_pipeline([1, 2, 3, 4, 5, 6], uni, params, cfg)
        assert trace.failed
        assert trace.steps[0].decision == BACKTRACK


class TestScheduleCheck:
    def test_constant_set_violates(self):
        trace = ReasoningTrace()
        trace.add(step=1, active_primary=list(range(8)), active_hidden=[],
                  mean_temperature=0.5, decision=CONTINUE, op_count=1)
        report = active_set_schedule_check(trace, 8, 2)
        assert not report.satisfied

    def test_exact_linear_shrinkage_zero_margin(self):
        n, K = 8, 4
        trace = ReasoningTrace()
        ops = 0
        for k in range(1, K):
            ops += 1
            trace.add(step=k, active_primary=list(range(n - k * n // K)),
                      active_hidden=[], mean_temperature=0.5,
                      decision=CONTINUE, op_count=ops)
        report = active_set_schedule_check(trace, n, K)
        assert report.satisfied
        assert all(m == 0 for _, m in report.margins)

    def test_schedule_target_formula(self):
        from fractions import Fraction
        for n in range(1, 30):
            for K in range(1, 8):
                for k in range(1, K):
                    t = schedule_target(n, K, k)
                    exact = (1 - Fraction(k, K)) * n
                    assert t <= exact
                    assert t == math.floor(exact)

    def test_budget_overflow_rejected(self):
        trace = ReasoningTrace()
        trace.add(step=1, active_primary=[], active_hidden=[],
                  mean_temperature=0.5, decision=CONTINUE, op_count=0)
        trace.add(step=2, active_primary=[], active_hidden=[],
                  mean_temperature=0.5, decision=CONTINUE, op_count=0)
        with pytest.raises(ValueError):
            active_set_schedule_check(trace, 4, 1)


class TestComplexityFit:
    def test_exact_model_recovered(self):
        pts = [(n, 2.0 * n * math.log2(n)) for n in (8, 16, 32, 64, 128)]
        c, r2 = complexity_fit(pts)
        assert abs(c - 2.0) < 1e-12 and abs(r2 - 1.0) < 1e-12

    def test_quadratic_data_fits_worse(self):
        ns = (8, 16, 32, 64, 128, 256)
        _, r2_matched = complexity_fit([(n, 3.0 * n * math.log2(n)) for n in ns])
        _, r2_quadratic = complexity_fit([(n, float(n) ** 2) for n in ns])
        assert r2_quadratic < r2_matched

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            complexity_fit([(8, 1.0), (16, 2.0), (16, 2.0)])


def test_forward_macs_monotone_in_tokens():
    cfg = ModelConfig(d_model=8, heads=2, layers=2, d_ff=16, vocab_size=12)
    counts = [forward_macs(n, cfg) for n in (1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_universe_disjoint_id_ranges():
    params = toy_model()
    uni = toy_universe(params, hidden_count=5)
    assert set(range(uni.vocab_size)).isdisjoint(uni.hidden_ids())
    assert uni.hidden_embedding(uni.vocab_size + 2).shape == (8,)
