import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from ttm_lab import gsot
from ttm_lab.gsot import (BACKTRACK, CONTINUE, EmptyPathError, GsotConfig,
                          ReasoningTrace, TokenUniverse, _admit_hidden,
                          active_set_schedule_check, build_universe,
                          complexity_fit, forward_macs, gsot_pipeline,
                          hidden_temperature, hidden_token_probs,
                          recovery_step, schedule_target)
from ttm_lab.model import (VARIANTS, ModelConfig, ModelParams, final_field,
                           forward_embedded, reasoning_head)
from ttm_lab.numerics import NumericError, Rng, Tensor


def toy_model(seed=0, **kw):
    base = dict(d_model=8, heads=2, layers=1, d_ff=16, vocab_size=12, d_c=4,
                seed=seed, max_seq_len=32)
    base.update(kw)
    return ModelParams(ModelConfig(**base))


def toy_universe(params, hidden_count=4, seed=0):
    return build_universe(params, hidden_count, Rng(seed))


def spread_universe(params, seed):
    """Universe with larger weights than `build_universe` draws, so hidden
    probabilities and temperatures differ enough for both admission
    thresholds to bind."""
    rng = Rng(seed)
    d = params.cfg.d_model
    return TokenUniverse(params.tok_emb.values * 25.0, rng.normal((5, d)),
                         rng.normal((d, d + params.cfg.d_c), 0.0, 0.3),
                         rng.normal((d,), 0.0, 1.5), 0.0)


def admitted(x, context, universe, **cfg):
    return _admit_hidden([x], context, universe, GsotConfig(**cfg))[0]


def step1_active(X, universe, params, tau_p):
    """Stage-1 survivors of a K = 1 pipeline run ([] when none survive)."""
    try:
        _, trace = gsot_pipeline(X, universe, params, GsotConfig(tau_p=tau_p))
    except EmptyPathError:
        return []
    return trace.steps[0].active_primary


class TestHiddenTokens:
    def test_threshold_above_mass_empty(self):
        params = toy_model()
        uni = toy_universe(params)
        probs = hidden_token_probs(1, np.zeros(4), uni)
        theta = float(probs.max())
        assert admitted(1, np.zeros(4), uni, theta=theta + 1e-12,
                        tau_h=1e-9) == []

    def test_single_hidden_always_included(self):
        params = toy_model()
        uni = toy_universe(params, hidden_count=1)
        assert admitted(3, np.zeros(4), uni, theta=0.99,
                        tau_h=1e-9) == [uni.vocab_size]

    def test_matches_softmax_threshold_oracle(self):
        params = toy_model(seed=2)
        uni = toy_universe(params, hidden_count=4, seed=3)
        ctx = Rng(4).normal((4,))
        joint = np.concatenate([uni.primary[5], ctx])
        scores = uni.hidden @ (uni.W_h @ joint)
        e = np.exp(scores - scores.max())
        probs = e / e.sum()
        theta = 0.2
        want = [uni.vocab_size + i for i, p in enumerate(probs) if p > theta]
        assert admitted(5, ctx, uni, theta=theta, tau_h=1e-9) == want
        assert np.abs(hidden_token_probs(5, ctx, uni) - probs).max() < 1e-12

    def test_exact_threshold_excluded(self):
        params = toy_model()
        uni = toy_universe(params)
        probs = hidden_token_probs(0, np.zeros(4), uni)
        theta = float(probs[0])
        assert uni.vocab_size + 0 not in admitted(0, np.zeros(4), uni,
                                                  theta=theta, tau_h=1e-9)

    def test_exact_tau_h_excluded(self):
        params = toy_model()
        uni = toy_universe(params)
        probs = hidden_token_probs(0, np.zeros(4), uni)
        hid = uni.vocab_size + 0
        tau_h = hidden_temperature(hid, probs[0], uni)
        got = admitted(0, np.zeros(4), uni, theta=1e-9, tau_h=tau_h)
        assert hid not in got
        assert got == [h for h in uni.hidden_ids()
                       if hidden_temperature(h, probs[h - uni.vocab_size], uni)
                       > tau_h]

    def test_admission_macs_count_scored_candidates(self):
        params = toy_model()
        uni = toy_universe(params, hidden_count=5)
        _, macs = _admit_hidden([1], np.zeros(4), uni, GsotConfig())
        assert macs == 5 * ((8 + 4) + 8)
        # a repeated id is scored once but charged per token
        _, macs = _admit_hidden([1, 3, 1], np.zeros(4), uni, GsotConfig())
        assert macs == 3 * 5 * ((8 + 4) + 8)

    def test_unknown_primary_token(self):
        uni = toy_universe(toy_model())
        with pytest.raises(ValueError):
            hidden_token_probs(99, np.zeros(4), uni)


class TestIntegratedProcessing:
    """Stages 1 and 2 of a K = 1 `gsot_pipeline` run: a primary token stays
    active iff its mean final-layer temperature exceeds tau_p, and only
    active tokens admit hidden candidates."""

    def test_ceiling_threshold_empties_both_sets(self):
        # no temperature exceeds 1 - eps_min, so stage 1 keeps nothing and
        # stage 2 never runs
        params = toy_model(seed=5)
        uni = toy_universe(params)
        assert step1_active([1, 2, 3], uni, params, tau_p=0.99) == []
        with pytest.raises(EmptyPathError):
            gsot_pipeline([1, 2, 3], uni, params, GsotConfig(tau_p=0.99))

    def test_floor_threshold_keeps_everything(self):
        params = toy_model(seed=6)
        _, trace = gsot_pipeline([1, 2, 3, 4], toy_universe(params), params,
                                 GsotConfig(tau_p=0.01, theta=0.999))
        assert trace.steps[0].active_primary == [0, 1, 2, 3]
        assert trace.steps[-1].active_hidden == []

    def test_matches_reference_walk(self):
        # independent straight-line walk: a primary token survives stage 1
        # iff its mean temperature exceeds tau_p; each survivor's candidate
        # enters iff p > theta and its relevance-scaled temperature > tau_h
        params = toy_model(seed=7, temp_init_std=0.2)
        uni = spread_universe(params, seed=8)
        cfg = GsotConfig(theta=0.2, tau_p=0.666, tau_h=0.1)
        X = [2, 9, 4, 7, 1, 5]
        ctx = Rng(9).normal((4,))
        _, trace = gsot_pipeline(X, uni, params, cfg, context=ctx)
        _, fields, _ = forward_embedded(Tensor(uni.primary[X]), params)
        temps = fields[-1].values.mean(axis=0)
        want_v = [i for i in range(len(X)) if temps[i] > cfg.tau_p]
        want_h, theta_only, tau_h_only = [], [], []
        for i in want_v:
            probs = hidden_token_probs(X[i], ctx, uni)
            for j, p in enumerate(probs):
                hid = uni.vocab_size + j
                hot = hidden_temperature(hid, p, uni) > cfg.tau_h
                if p > cfg.theta and hot:
                    want_h.append(hid)
                elif p > cfg.theta:
                    theta_only.append(hid)
                elif hot:
                    tau_h_only.append(hid)
        # every branch of the rule is exercised
        assert 0 < len(want_v) < len(X)
        assert want_h and theta_only and tau_h_only
        assert trace.steps[0].active_primary == want_v
        assert trace.steps[-1].active_primary == want_v
        assert trace.steps[-1].active_hidden == want_h

    def test_raising_threshold_shrinks_active_set(self):
        taus = np.linspace(0.3, 0.8, 21)
        shrank = False
        for seed in range(10):
            params = toy_model(seed=seed, temp_init_std=0.2)
            uni = spread_universe(params, seed=seed)
            X = [int(t) for t in Rng(seed + 50).integers(0, 12, size=6)]
            sets = [step1_active(X, uni, params, float(t)) for t in taus]
            for lo, hi in zip(sets, sets[1:]):
                assert set(hi) <= set(lo)
            shrank = shrank or len(sets[0]) > len(sets[-1])
        assert shrank


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

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("bad", [12, -1], ids=["past-vocab", "negative"])
    def test_out_of_vocab_id_rejected_before_forward(self, monkeypatch, bad, K):
        # -1 would index the last vocabulary row and run as a valid token
        params = toy_model(seed=14)
        uni = toy_universe(params)
        calls = []
        for name in ("final_field", "forward_embedded"):
            monkeypatch.setattr(gsot, name, lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=r"outside \[0, 12\)"):
            gsot_pipeline([1, 2, bad, 3], uni, params, GsotConfig(K=K))
        assert calls == []

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("X, context, match", [
        ([1, 2, 2.5, 3], None, "token ids must be integers"),
        ([1, 2, 3], np.zeros(3), r"finite \(d_c,\) = \(4,\) vector"),
        ([1, 2, 3], np.zeros((2, 2)), r"finite \(d_c,\) = \(4,\) vector"),
        ([1, 2, 3], np.array([0.0, np.nan, 0.0, 0.0]),
         r"finite \(d_c,\) = \(4,\) vector"),
        ([], None, r"non-empty \(n,\) list .* shape \(0,\)"),
        ([[1, 2], [3, 4]], None, r"non-empty \(n,\) list .* shape \(2, 2\)"),
    ], ids=["fractional-id", "short-context", "matrix-context",
            "nan-context", "empty-sequence", "nested-sequence"])
    def test_bad_input_rejected_before_forward(self, monkeypatch, X, context,
                                               match, K):
        params = toy_model(seed=14)
        uni = toy_universe(params)
        calls = []
        for name in ("final_field", "forward_embedded"):
            monkeypatch.setattr(gsot, name, lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError, match=match):
            gsot_pipeline(X, uni, params, GsotConfig(K=K), context=context)
        assert calls == []

    def test_scores_each_distinct_survivor_once_through_one_view(
            self, monkeypatch):
        # 9 tokens of 2 distinct ids, K = 3: two extraction passes leave 3
        # survivors, so at least one id repeats among them
        params = toy_model(seed=7, temp_init_std=0.2)
        uni = spread_universe(params, seed=8)
        X = [4, 9, 4, 4, 9, 4, 9, 9, 4]
        cfg = GsotConfig(theta=0.05, tau_h=0.05, tau_backtrack=0.01, K=3)
        probs_calls, temp_calls, views = [], [], []

        def probs_spy(x, context, universe):
            probs_calls.append(x)
            return hidden_token_probs(x, context, universe)

        def temp_spy(hidden_id, relevance, universe):
            temp_calls.append((hidden_id, relevance))
            return hidden_temperature(hidden_id, relevance, universe)

        detached = ModelParams.detached

        def detached_spy(self):
            views.append((self, detached(self)))
            return views[-1][1]

        monkeypatch.setattr(gsot, "hidden_token_probs", probs_spy)
        monkeypatch.setattr(gsot, "hidden_temperature", temp_spy)
        monkeypatch.setattr(ModelParams, "detached", detached_spy)
        _, trace = gsot_pipeline(X, uni, params, cfg)
        survivors = [X[i] for i in trace.steps[-1].active_primary]
        assert len(survivors) == 3 and trace.steps[-1].active_hidden
        assert probs_calls == list(dict.fromkeys(survivors))
        assert temp_calls == [(h, 1.0) for h in uni.hidden_ids()]
        # one view is built; each extraction pass's final_field gets it back
        view = views[0][1]
        assert view is not params
        assert views == [(params, view), (view, view), (view, view)]

    @pytest.mark.parametrize("K", [1, 3])
    def test_overflowing_scores_raise_naming_the_op(self, K):
        # q and k stay finite at this scale, their products do not
        params = toy_model(seed=3)
        params.blocks[0].attn.W_qkv.values[...] *= 1e160
        universe = toy_universe(params)
        X = [1, 2, 3, 4, 5, 6]
        x = Tensor(universe.primary[X])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError,
                               match="^_scaled_scores produced"):
                forward_embedded(x, params)
            with pytest.raises(NumericError,
                               match=r"^attention scores produced non-finite "
                                     r"values of shape \(2, 6, 6\)"):
                gsot_pipeline(X, universe, params, GsotConfig(K=K))

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


# `random_pipelines_digest()` first recorded at commit e5ae6c9, whose
# pipeline walked the active set and the admission rule token by token in
# Python, and re-recorded at 9caad82 once its models stopped setting a blend
# weight (the same 54 draws): a change to any computed value, or to the order
# of the trace, changes it
PIPELINE_PARITY_SHA256 = (
    "7ae43879cc778698876651a598075bc0a1e3058f78b3fad31f85e39237aa85d8")


def random_pipelines_digest():
    """sha256 over 54 random pipelines (layers 1-3 x heads 1/2/4 x every
    variant, twice each; K 1-6, n 2-23 over 6 ids, random context)
    of each run's probabilities and trace, or its EmptyPathError message;
    also a tally of the paths the runs took."""
    digest = hashlib.sha256()
    rng = Rng(1414)
    tally = {"empty": 0, "backtrack": 0, "repeated_admitting": 0}

    def u(lo, hi):
        return float(rng.uniform((), lo, hi))

    for layers, heads, variant, _ in itertools.product(
            (1, 2, 3), (1, 2, 4), VARIANTS, range(2)):
        params = ModelParams(ModelConfig(
            d_model=8, heads=heads, layers=layers, d_ff=16, vocab_size=6,
            d_c=4, attention_variant=variant,
            temp_init_std=u(0.05, 1.0), seed=int(rng.integers(0, 1 << 30)),
            max_seq_len=24))
        universe = spread_universe(params, seed=int(rng.integers(0, 1 << 30)))
        cfg = GsotConfig(theta=u(0.05, 0.4), tau_p=u(0.3, 0.7),
                         tau_h=u(0.05, 0.5), tau_backtrack=u(0.05, 0.6),
                         K=int(rng.integers(1, 7)))
        X = rng.integers(0, 6, size=int(rng.integers(2, 24))).tolist()
        context = rng.normal((4,))
        try:
            probs, trace = gsot_pipeline(X, universe, params, cfg,
                                         context=context)
        except EmptyPathError as exc:
            digest.update(str(exc).encode())
            tally["empty"] += 1
            continue
        digest.update(probs.values.tobytes())
        digest.update(trace.to_jsonl().encode())
        tally["backtrack"] += trace.failed
        last = trace.steps[-1]
        ids = [X[i] for i in last.active_primary]
        if last.active_hidden and len(set(ids)) < len(ids):
            tally["repeated_admitting"] += 1
    return digest.hexdigest(), tally


def test_random_pipelines_match_recorded_digest():
    got, tally = random_pipelines_digest()
    assert min(tally.values()) > 0, tally
    assert got == PIPELINE_PARITY_SHA256


class TestRecovery:
    def test_continue_above_threshold(self):
        assert recovery_step(0.9, GsotConfig(tau_backtrack=0.5)) == CONTINUE

    def test_backtrack_below_threshold(self):
        assert recovery_step(0.3, GsotConfig(tau_backtrack=0.5)) == BACKTRACK

    def test_out_of_range_summary(self):
        with pytest.raises(ValueError):
            recovery_step(1.5, GsotConfig())

    def test_forced_low_temperature_records_one_backtrack(self, monkeypatch):
        # drive the mean temperature below the recovery threshold so the
        # scheduler burns its single alternate branch, then flags the trace;
        # the alternate reuses the step's temperatures, so step 1 computes
        # one field and the final integrated pass runs one full forward
        params = toy_model(seed=23)
        for block in params.blocks:
            block.temp.b_t.values[:] = -10.0  # near-floor temperatures
        uni = toy_universe(params, seed=24)
        cfg = GsotConfig(K=3, tau_backtrack=0.5)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gsot, "final_field", counting(final_field))
        monkeypatch.setattr(gsot, "forward_embedded", counting(forward_embedded))
        _, trace = gsot_pipeline([1, 2, 3, 4, 5, 6], uni, params, cfg)
        assert trace.failed
        assert trace.steps[0].decision == BACKTRACK
        assert calls == ["final_field", "forward_embedded"]
        assert trace.steps[0].op_count == forward_macs(6, params.cfg)


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
