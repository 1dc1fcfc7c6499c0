import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab.model import ModelConfig, ModelParams, model_forward
from ttm_lab.numerics import Rng, Tensor
from ttm_lab.temperature import TemperatureField, collapse_penalty
from ttm_lab.training import (METRIC_COLUMNS, PUBLISHED_MEMORY_CLAIM_BYTES,
                              TOK_ADD, TOK_HALVE, TOK_INIT,
                              TOK_SUB, TaskSpec, TrainConfig,
                              confidence_interval, cross_entropy,
                              dataset_loss, eval_arith_program, evaluate,
                              lr_schedule, make_task, memory_estimate,
                              significance_label, t_quantile, total_loss,
                              train)


def toy_params(seed=0, **kw):
    base = dict(d_model=16, heads=2, layers=1, d_ff=32, vocab_size=16, d_c=4,
                seed=seed, max_seq_len=8)
    base.update(kw)
    return ModelParams(ModelConfig(**base))


def arith_params():
    return ModelParams(ModelConfig(d_model=32, heads=2, layers=2, d_ff=64,
                                   vocab_size=20, d_c=4, max_seq_len=8))


class TestLosses:
    def test_total_loss_reduces_to_task(self):
        cfg = TrainConfig(lambda_T=0.0, lambda_S=0.0)
        field = TemperatureField(np.full((1, 2), 0.7))
        out = total_loss(Tensor([1.5]), field, 0.3, cfg)
        assert float(out.values[0]) == 1.5

    def test_centered_field_adds_nothing(self):
        cfg = TrainConfig(lambda_T=0.5, lambda_S=0.5)
        field = TemperatureField(np.full((2, 3), 0.5))
        out = total_loss(Tensor([2.0]), field, 0.0, cfg)
        assert float(out.values[0]) == 2.0

    def test_penalty_composition(self):
        cfg = TrainConfig(lambda_T=2.0, lambda_S=0.0)
        field = TemperatureField(np.array([[0.7]]))
        out = total_loss(Tensor([1.0]), field, 0.0, cfg)
        assert abs(float(out.values[0]) - (1.0 + 2.0 * 0.04)) < 1e-12

    def test_total_never_below_task(self):
        cfg = TrainConfig(lambda_T=0.3, lambda_S=0.2)
        field = TemperatureField(np.array([[0.25, 0.8]]))
        out = total_loss(Tensor([0.7]), field, 1.3, cfg)
        assert float(out.values[0]) >= 0.7

    def test_cross_entropy_matches_log_softmax(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.1, -0.3, 0.9]])
        targets = np.array([1, 2])
        mask = np.ones(2, dtype=bool)
        got = float(cross_entropy(Tensor(logits), targets, mask).values)
        p = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        want = -np.log(p[[0, 1], targets]).mean()
        assert abs(got - want) < 1e-12

    def test_cross_entropy_respects_mask(self):
        logits = Tensor(np.array([[5.0, 0.0], [0.0, 5.0]]))
        got = float(cross_entropy(logits, np.array([0, 0]),
                                  np.array([True, False])).values)
        want = -math.log(math.exp(5.0) / (math.exp(5.0) + 1.0))
        assert abs(got - want) < 1e-12


class TestLrSchedule:
    def test_warm_phase_is_flat(self):
        cfg = TrainConfig(eta0=0.1, t0=100)
        assert lr_schedule(50, 1.0, cfg) == 0.1

    def test_sqrt_decay(self):
        cfg = TrainConfig(eta0=0.1, t0=100)
        assert abs(lr_schedule(400, 1.0, cfg) - 0.05) < 1e-15

    def test_norm_clamp(self):
        cfg = TrainConfig(eta0=0.1, t0=100, clip_lo=1.0, clip_hi=2.0)
        warm = min(1.0, math.sqrt(100 / 300))
        assert abs(lr_schedule(300, 10.0, cfg) - 0.1 * warm * 2.0) < 1e-15

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 1.0, TrainConfig())

    @given(st.integers(1, 10_000), st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_and_clamped(self, t, g):
        cfg = TrainConfig(eta0=0.1, t0=50, clip_lo=0.5, clip_hi=3.0)
        eta_t = lr_schedule(t, g, cfg)
        eta_next = lr_schedule(t + 1, g, cfg)
        assert eta_next <= eta_t + 1e-18
        factor = eta_t / (0.1 * min(1.0, math.sqrt(50 / t)))
        assert 0.5 - 1e-12 <= factor <= 3.0 + 1e-12


class TestTasks:
    def test_copy_targets_equal_inputs(self):
        data = make_task(TaskSpec(kind="copy", length=3, count=10, seed=1))
        for ex in data:
            assert np.array_equal(ex.inputs, ex.targets)

    def test_reverse_targets(self):
        data = make_task(TaskSpec(kind="reverse", length=4, count=5, seed=2))
        for ex in data:
            assert np.array_equal(ex.targets, ex.inputs[::-1])

    def test_deterministic_generation(self):
        spec = TaskSpec(kind="arithmetic_chain", length=8, count=20, seed=3)
        a, b = make_task(spec), make_task(spec)
        assert all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, b))

    def test_arith_reference_evaluator(self):
        assert eval_arith_program([TOK_INIT, 5, TOK_ADD, 3, TOK_HALVE]) == 4
        assert eval_arith_program([TOK_INIT, 8, TOK_SUB, 8]) == 0

    def test_arith_targets_in_value_range(self):
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=40,
                                  seed=4))
        for ex in data:
            assert ex.mask.sum() == 1 and ex.mask[-1]
            answer = ex.targets[-1]
            assert 0 <= answer <= 15
            toks = [int(t) for t in ex.inputs]
            # strip the zero padding after the program body
            while toks and toks[-1] == 0 and len(toks) > 2:
                if toks[-2] in (TOK_ADD, TOK_SUB, TOK_INIT):
                    break
                toks.pop()
            assert eval_arith_program(toks) == answer

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="sorting")


class TestTrainLoop:
    def test_zero_steps_changes_nothing(self):
        params = toy_params()
        before = {n: t.values.copy() for n, t in params.named_tensors()}
        data = make_task(TaskSpec(kind="copy", length=4, count=8))
        history = train(params, data, TrainConfig(steps=0))
        assert history.rows == []
        for n, t in params.named_tensors():
            assert np.array_equal(t.values, before[n])

    def test_fixed_seed_identical_history(self):
        def run():
            params = toy_params(seed=5)
            data = make_task(TaskSpec(kind="copy", length=4, count=8, seed=5))
            return train(params, data, TrainConfig(steps=15, batch=4, seed=5))
        a, b = run(), run()
        assert a.rows == b.rows

    def test_scripted_spike_triggers_one_event(self):
        params = toy_params(seed=6)
        data = make_task(TaskSpec(kind="copy", length=4, count=8, seed=6))

        def inject(step, loss):
            return loss * 100.0 if step == 50 else loss

        history = train(params, data, TrainConfig(steps=60, batch=4, seed=6),
                        loss_injection=inject)
        events = [r["step"] for r in history.rows if r["event"] == "lr_halved"]
        assert events == [50]
        before = next(r for r in history.rows if r["step"] == 49)
        after = next(r for r in history.rows if r["step"] == 51)
        # halving sticks after the event (modulo schedule decay)
        assert after["lr_main"] < before["lr_main"] * 0.6

    def test_non_finite_loss_aborts_and_restores(self):
        params = toy_params(seed=7)
        data = make_task(TaskSpec(kind="copy", length=4, count=8, seed=7))

        def inject(step, loss):
            return float("nan") if step == 5 else loss

        snap = None

        history = train(params, data, TrainConfig(steps=20, batch=4, seed=7),
                        loss_injection=inject)
        assert history.aborted
        assert len(history.rows) == 4  # steps after the abort are not logged
        assert all(math.isfinite(float(t.values.sum()))
                   for _, t in params.named_tensors())

    @pytest.mark.parametrize("scale, rows", [(1e305, 0), (1e150, 1)])
    def test_real_overflow_aborts_and_restores(self, scale, rows):
        # a huge output projection overflows the temperature gradient at
        # step 1 (1e305) or the forward pass at step 2 (1e150)
        def scaled_params():
            params = arith_params()
            params.W_out.values = params.W_out.values * scale
            return params

        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        cfg = TrainConfig(steps=5, batch=4)
        want = scaled_params()
        if rows:
            train(want, data, dataclasses.replace(cfg, steps=rows))
        params = scaled_params()
        with np.errstate(all="ignore"):
            history = train(params, data, cfg)
        assert history.aborted
        assert len(history.rows) == rows
        for (name, t), (_, w) in zip(params.named_tensors(), want.named_tensors()):
            assert np.all(np.isfinite(t.values)), name
            assert np.array_equal(t.values, w.values), name

    def test_logged_total_is_optimized_loss(self):
        # lambda_S > 0 and an event at step 3: the logged total must still be
        # task + lambda_T * penalty with the lambda_T that step optimized
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        cfg = TrainConfig(steps=4, batch=4, lambda_S=1.0)
        idx = Rng(cfg.seed).integers(0, len(data), size=cfg.batch)
        task, pen = 0.0, 0.0
        for i in idx:
            ex = data[int(i)]
            logits, fields = model_forward(ex.inputs, params)
            task += float(cross_entropy(logits, ex.targets, ex.mask).values)
            pen += float(collapse_penalty(fields[-1], 1.0).values)
        step1 = (task + cfg.lambda_T * pen) / cfg.batch

        def inject(step, loss):
            return loss * 100.0 if step == 3 else loss

        history = train(params, data, cfg, loss_injection=inject)
        assert [r["event"] for r in history.rows] == ["", "", "lr_halved", ""]
        assert history.rows[0]["stability_penalty"] > 0.0
        assert abs(history.rows[0]["total_loss"] - step1) < 1e-12
        for row, lam in zip(history.rows, (0.1, 0.1, 0.1, 0.2)):
            assert row["total_loss"] == row["task_loss"] + lam * row["temp_penalty"]

    def test_metrics_csv_columns(self):
        params = toy_params(seed=8)
        data = make_task(TaskSpec(kind="copy", length=4, count=8, seed=8))
        history = train(params, data, TrainConfig(steps=3, batch=2, seed=8))
        buf = io.StringIO()
        history.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ("step,task_loss,temp_penalty,stability_penalty,"
                            "total_loss,lr_main,lr_temp,temp_min,temp_max,"
                            "collapse_fraction,grad_norm_temp,event")
        assert len(lines) == 4
        assert METRIC_COLUMNS[0] == "step" and METRIC_COLUMNS[-1] == "event"

    def test_metrics_csv_cells_are_plain_floats(self):
        # grad_norm_temp exceeds tau = 1 / sqrt(d_k) here, which switches on
        # the stability term; every logged number must still print as a float
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        history = train(params, data, TrainConfig(steps=2, batch=8))
        assert history.rows[0]["grad_norm_temp"] > 0.25
        buf = io.StringIO()
        history.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        for line in lines[1:]:
            for col, cell in zip(METRIC_COLUMNS, line.split(",")):
                if col != "event":
                    float(cell)

    def test_loss_decreases_on_copy(self):
        params = toy_params(seed=9)
        data = make_task(TaskSpec(kind="copy", length=4, count=16, seed=9))
        initial = dataset_loss(params, data)
        train(params, data, TrainConfig(steps=100, batch=4, seed=9))
        final, acc = evaluate(params, data)
        assert final < initial

    def test_temperature_multiplier_changes_dataset_loss(self):
        params = toy_params(seed=10)
        data = make_task(TaskSpec(kind="copy", length=4, count=4, seed=10))
        assert dataset_loss(params, data, 1.0) != dataset_loss(params, data, 0.3)


class TestStatistics:
    def test_zero_width_for_equal_samples(self):
        lo, hi = confidence_interval([2.0, 2.0, 2.0], 0.95)
        assert lo == hi == 2.0

    def test_reference_five_sample_case(self):
        lo, hi = confidence_interval([1, 2, 3, 4, 5], 0.95)
        assert abs(lo - 1.0368) < 1e-3
        assert abs(hi - 4.9632) < 1e-3

    def test_wider_at_higher_level(self):
        samples = [1.0, 2.0, 4.0, 4.5]
        lo95, hi95 = confidence_interval(samples, 0.95)
        lo99, hi99 = confidence_interval(samples, 0.99)
        assert lo99 < lo95 and hi99 > hi95

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])

    def test_quantiles_match_scipy_for_all_df(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for level in (0.90, 0.95, 0.99):
            for df in range(1, 121):
                want = scipy_stats.t.ppf(0.5 + level / 2.0, df)
                assert abs(t_quantile(level, df) - want) < 5e-6

    def test_interval_matches_scipy_within_width_tolerance(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 12, 40, 121):
            samples = rng.normal(size=n)
            lo, hi = confidence_interval(samples, 0.95)
            mu = samples.mean()
            se = samples.std(ddof=1) / math.sqrt(n)
            q = scipy_stats.t.ppf(0.975, n - 1)
            width = 2 * q * se
            assert abs(lo - (mu - q * se)) < 1e-3 * max(width, 1e-9) + 2e-5
            assert abs(hi - (mu + q * se)) < 1e-3 * max(width, 1e-9) + 2e-5

    def test_large_df_uses_normal_quantile(self):
        assert t_quantile(0.95, 121) == pytest.approx(1.959964)
        assert t_quantile(0.99, 500) == pytest.approx(2.575829)

    def test_significance_labels(self):
        assert significance_label(0.003) == "strong"
        assert significance_label(0.02) == "moderate"
        assert significance_label(0.05) == "insufficient"
        with pytest.raises(ValueError):
            significance_label(1.5)

    def test_memory_estimate(self):
        assert memory_estimate(2, 1, 1, 8) == 32
        assert memory_estimate(4, 1, 1, 8) == 4 * memory_estimate(2, 1, 1, 8)
        big = memory_estimate(2048, 12, 128, 4)
        assert big == 2048 * 2048 * 12 * 128 * 4  # exact integer arithmetic
        # the published figure is reported for context, not asserted: the two
        # numbers do not reconcile at any standard element size
        print(f"memory_estimate={big / 2 ** 30:.1f}GiB "
              f"(published claim {PUBLISHED_MEMORY_CLAIM_BYTES / 2 ** 30:.0f}GiB)")
        with pytest.raises(ValueError):
            memory_estimate(0, 1, 1, 1)
