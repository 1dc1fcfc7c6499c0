import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab import training
from ttm_lab.model import ModelConfig, ModelParams, model_forward
from ttm_lab.numerics import NumericError, Rng, Tensor
from ttm_lab.temperature import collapse_penalty
from ttm_lab.training import (ARITH_VOCAB, EVAL_PASS, EVAL_SLICE,
                              METRIC_COLUMNS,
                              TOK_ADD, TOK_HALVE, TOK_INIT,
                              TOK_SUB, TaskSpec, TrainConfig,
                              confidence_interval, cross_entropy,
                              dataset_loss, eval_arith_program, evaluate,
                              lr_schedule, make_task,
                              sample_mean, significance_label, t_quantile,
                              t_test_p, train)


def toy_params(seed=0, **kw):
    base = dict(d_model=16, heads=2, layers=1, d_ff=32, vocab_size=16, d_c=4,
                seed=seed, max_seq_len=8)
    base.update(kw)
    return ModelParams(ModelConfig(**base))


def arith_params():
    return ModelParams(ModelConfig(d_model=32, heads=2, layers=2, d_ff=64,
                                   vocab_size=20, d_c=4, max_seq_len=8))


class TargetsChangeAfter:
    """A dataset whose targets change once `draws` examples have been read:
    every later read returns the example with `change(targets)`. train reads
    `batch` examples per step, so draws = k * batch gives a model trained on
    the first targets for k steps a real loss spike at step k + 1."""

    def __init__(self, data, draws, change):
        self.data, self.left, self.change = data, draws, change

    def __len__(self):
        return len(self.data)

    def __getitem__(self, i):
        ex = self.data[i]
        if self.left:
            self.left -= 1
            return ex
        return dataclasses.replace(ex, targets=self.change(ex.targets))


class TestLosses:
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


    def test_batch_weighs_examples_equally(self):
        # example 0 has one masked row, example 1 three: the batch loss is
        # the mean of the two examples' means, not the mean of four rows
        logits = Rng(5).normal((2, 3, 4))
        targets = np.array([[1, 2, 3], [0, 1, 2]])
        mask = np.array([[False, True, False], [True, True, True]])
        got = float(cross_entropy(Tensor(logits), targets, mask).values)
        each = [float(cross_entropy(Tensor(logits[b]), targets[b],
                                    mask[b]).values) for b in range(2)]
        assert abs(got - (each[0] + each[1]) / 2.0) < 1e-12


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

    @pytest.mark.parametrize("length,capacity", [(3, 16), (4, 248), (5, 372)])
    def test_arith_count_beyond_capacity_fails_fast(self, length, capacity):
        # capacities counted by enumerating the generator's branches; lengths
        # 2 and 3 only fit [INIT v]. One more program than exists used to
        # make make_task loop forever.
        data = make_task(TaskSpec(kind="arithmetic_chain", length=length,
                                  count=capacity))
        assert len({tuple(ex.inputs) for ex in data}) == capacity
        with pytest.raises(ValueError, match=f"only {capacity} distinct"):
            TaskSpec(kind="arithmetic_chain", length=length,
                     count=capacity + 1)


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

    def test_gradients_are_contiguous_like_their_values(self):
        # a gradient buffer laid out like a transposed view would change the
        # order in which BLAS sums later gradients into it, and so the last
        # digits of every logged loss
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        train(params, data, TrainConfig(steps=1, batch=8))
        grads = {n: t for n, t in params.named_tensors() if t.grad is not None}
        # only the reasoning head, which GSoT alone uses, gets no gradient
        assert set(dict(params.named_tensors())) - set(grads) == {"head.w_reason"}
        for name, t in grads.items():
            assert t.grad.shape == t.values.shape, name
            assert t.grad.flags.c_contiguous, name

    def test_scripted_spike_triggers_one_event(self):
        # after 49 steps of copying, every target becomes the next symbol:
        # the task loss jumps 7.6x to 11.2x at step 50 (0.43 to 4.40 at seed 6)
        for seed in (6, 7, 8):
            data = TargetsChangeAfter(
                make_task(TaskSpec(kind="copy", length=4, count=8, seed=seed)),
                49 * 4, lambda t: (t + 1) % 16)
            history = train(toy_params(seed=seed), data, TrainConfig(
                steps=60, batch=4, seed=seed, spike_factor=5.0))
            events = [r["step"] for r in history.rows
                      if r["event"] == "lr_halved"]
            assert events == [50], seed
            before = next(r for r in history.rows if r["step"] == 49)
            after = next(r for r in history.rows if r["step"] == 51)
            # halving sticks after the event (modulo schedule decay)
            assert after["lr_main"] < before["lr_main"] * 0.6, seed

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

    @pytest.mark.parametrize("huge, node", [
        ("block0.attn.wqkv", "_project"), ("block0.attn.wo", "merge_heads"),
        ("block0.temp.wt", "linear"), ("block0.ffn.w1", "linear")])
    def test_overflow_in_a_fused_node_aborts_and_restores(self, huge, node):
        # constant parameters keep every sum one-signed, so the one set to
        # 1e308 overflows the first node that multiplies by it
        params = arith_params()
        for name, t in params.named_tensors():
            fill = {huge: 1e308, "embed.pos": 0.0}.get(name, 1.0)
            t.values = np.full_like(t.values, fill)
        before = {name: t.values for name, t in params.named_tensors()}
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=f"^{node} produced"):
                model_forward(data[0].inputs, params)
            history = train(params, data, TrainConfig(steps=3, batch=8))
        assert history.aborted and not history.rows
        for name, t in params.named_tensors():
            assert t.values is before[name], name

    def test_step_records_at_most_52_tape_nodes(self, monkeypatch):
        # one step of test_10's arithmetic config recorded 92 tape nodes
        # before the model's composite ops became single nodes, and 56
        # before each residual add joined its LayerNorm's node; per-node
        # overhead, not arithmetic, is a step's cost at these sizes
        nodes = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self._parents:
                nodes.append(self.shape)

        monkeypatch.setattr(Tensor, "__init__", counting)
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        history = train(arith_params(), data, TrainConfig(steps=1, batch=8))
        assert len(history.rows) == 1
        assert len(nodes) <= 52

    def test_logged_total_is_optimized_loss(self):
        # lambda_S > 0 and an event at step 4: the logged total must still be
        # task + lambda_T * penalty with the lambda_T that step optimized
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        cfg = TrainConfig(steps=5, batch=4, lambda_S=1.0, spike_factor=1.4)
        idx = Rng(cfg.seed).integers(0, len(data), size=cfg.batch)
        task, pen = 0.0, 0.0
        for i in idx:
            ex = data[int(i)]
            logits, fields = model_forward(ex.inputs, params)
            task += float(cross_entropy(logits, ex.targets, ex.mask).values)
            pen += float(collapse_penalty(fields[-1], 1.0).values)
        step1 = (task + cfg.lambda_T * pen) / cfg.batch

        # from step 4 on every answer is the HALVE token: the task loss rises
        # 1.53x after three falls of at least 14%
        spiking = TargetsChangeAfter(data, 3 * cfg.batch,
                                     lambda t: np.full_like(t, TOK_HALVE))
        history = train(params, spiking, cfg)
        assert [r["event"] for r in history.rows] == ["", "", "", "lr_halved",
                                                      ""]
        assert history.rows[0]["stability_penalty"] > 0.0
        assert abs(history.rows[0]["total_loss"] - step1) < 1e-12
        for row, lam in zip(history.rows, (0.1, 0.1, 0.1, 0.1, 0.2)):
            assert row["total_loss"] == row["task_loss"] + lam * row["temp_penalty"]

    def test_metrics_csv_columns(self, tmp_path):
        params = toy_params(seed=8)
        data = make_task(TaskSpec(kind="copy", length=4, count=8, seed=8))
        history = train(params, data, TrainConfig(steps=3, batch=2, seed=8))
        history.to_csv(tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == ("step,task_loss,temp_penalty,stability_penalty,"
                            "total_loss,lr_main,lr_temp,temp_min,temp_max,"
                            "collapse_fraction,grad_norm_temp,event")
        assert len(lines) == 4
        assert METRIC_COLUMNS[0] == "step" and METRIC_COLUMNS[-1] == "event"

    def test_metrics_csv_cells_are_plain_floats(self, tmp_path):
        # grad_norm_temp exceeds tau = 1 / sqrt(d_k) here, which switches on
        # the stability term; every logged number must still print as a float
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        history = train(params, data, TrainConfig(steps=2, batch=8))
        assert history.rows[0]["grad_norm_temp"] > 0.25
        history.to_csv(tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
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


BATCH_VARIANTS = [pytest.param("baseline", 0.0, id="baseline"),
                  pytest.param("broadcast", 0.0, id="broadcast"),
                  pytest.param("outer", 0.0, id="outer"),
                  pytest.param("outer", 0.3, id="outer-spread0.3")]
BATCH_TASKS = {
    # copy: every position is masked; arithmetic: the last position only
    "copy": (TaskSpec(kind="copy", length=6, count=64, alphabet=10, seed=4),
             10),
    "arith": (TaskSpec(kind="arithmetic_chain", length=8, count=64, seed=4),
              ARITH_VOCAB),
}


def _close(got, want, tol=1e-12):
    return np.abs(np.asarray(got) - np.asarray(want)).max() \
        <= tol * max(1.0, np.abs(np.asarray(want)).max())


class TestBatchedParity:
    """The stacked (B, n) forward against one-example-at-a-time references."""

    @pytest.mark.parametrize("task", sorted(BATCH_TASKS))
    @pytest.mark.parametrize("variant, spread", BATCH_VARIANTS)
    def test_stacked_equals_per_example(self, variant, spread, task):
        # spread widens the temperature head's init, so that each example's
        # field, and its field mean, sits far from the neutral 0.5
        spec, vocab = BATCH_TASKS[task]
        params = ModelParams(ModelConfig(
            d_model=16, heads=2, layers=2, d_ff=32, vocab_size=vocab, d_c=4,
            seed=3, max_seq_len=spec.length, attention_variant=variant,
            temp_init_std=ModelConfig.temp_init_std + spread))
        data = make_task(spec)
        one = [model_forward(ex.inputs, params) for ex in data]
        one_ce = [float(cross_entropy(lg, ex.targets, ex.mask).values)
                  for (lg, _), ex in zip(one, data)]
        one_hit = [bool((lg.values.argmax(axis=-1)[ex.mask]
                         == ex.targets[ex.mask]).all())
                   for (lg, _), ex in zip(one, data)]
        scaled = [float(cross_entropy(model_forward(ex.inputs, params, 0.7)[0],
                                      ex.targets, ex.mask).values)
                  for ex in data]
        for size in (1, 16, 17, 64):
            part = data[:size]
            logits, fields = model_forward(
                np.stack([ex.inputs for ex in part]), params)
            assert logits.shape == (size, spec.length, vocab)
            for b in range(size):
                assert _close(logits.values[b], one[b][0].values)
                for f, g in zip(fields, one[b][1]):
                    assert _close(f.values[b], g.values)
            ce = cross_entropy(logits, np.stack([ex.targets for ex in part]),
                               np.stack([ex.mask for ex in part]))
            assert _close(float(ce.values), np.mean(one_ce[:size]))
            loss, acc = evaluate(params, part)
            assert _close(loss, np.mean(one_ce[:size]))
            assert acc == np.mean(one_hit[:size])
            assert _close(dataset_loss(params, part), np.mean(one_ce[:size]))
            assert _close(dataset_loss(params, part, 0.7),
                          np.mean(scaled[:size]))

    @pytest.mark.parametrize("task", sorted(BATCH_TASKS))
    @pytest.mark.parametrize("variant, spread", BATCH_VARIANTS)
    def test_evaluation_equals_one_forward_per_16(self, variant, spread, task):
        # evaluate and dataset_loss forward EVAL_PASS examples at a time; a
        # reference loop with one forward per 16 examples must give the
        # same floats, so no golden moves
        spec, vocab = BATCH_TASKS[task]
        params = ModelParams(ModelConfig(
            d_model=16, heads=2, layers=2, d_ff=32, vocab_size=vocab, d_c=4,
            seed=3, max_seq_len=spec.length, attention_variant=variant,
            temp_init_std=ModelConfig.temp_init_std + spread))
        data = make_task(dataclasses.replace(spec, count=100))

        def per_16(part, m):
            total, hits = 0.0, 0
            for lo in range(0, len(part), 16):
                batch = training._stack(part[lo:lo + 16])
                logits, _ = model_forward(batch.inputs, params,
                                          temp_multiplier=m)
                loss = cross_entropy(logits, batch.targets, batch.mask)
                total += float(loss.values) * len(batch.inputs)
                pred = logits.values.argmax(axis=-1)
                hits += int(((pred == batch.targets) | ~batch.mask)
                            .all(axis=-1).sum())
            return total / len(part), hits / len(part)

        for size in (1, 15, 16, 17, 31, 32, 33, 48, 64, 65, 100):
            part = data[:size]
            assert evaluate(params, part) == per_16(part, 1.0)
            for m in (1.0, 0.7):
                assert dataset_loss(params, part, m) == per_16(part, m)[0]

    def test_each_example_scaled_by_its_own_field_mean(self):
        params = toy_params(seed=11)
        tokens = np.array([[1, 2, 3, 4], [5, 5, 6, 0], [9, 8, 7, 6]])
        logits, fields = model_forward(tokens, params)
        means = fields[-1].values.mean(axis=(-2, -1))
        assert len(set(means.tolist())) == 3
        for b in range(3):
            one, one_fields = model_forward(tokens[b], params)
            assert _close(one_fields[-1].values.mean(), means[b])
            assert _close(logits.values[b], one.values)

    def test_batch_gradient_is_sum_of_example_gradients(self):
        params = toy_params(seed=12)
        data = make_task(TaskSpec(kind="copy", length=5, count=4, seed=12))
        batch = training._stack(data)
        logits, _ = model_forward(batch.inputs, params)
        cross_entropy(logits, batch.targets, batch.mask).backward()
        stacked = {n: t.grad.copy() for n, t in params.named_tensors()
                   if t.grad is not None}
        params.zero_grad()
        total = None
        for ex in data:
            logits, _ = model_forward(ex.inputs, params)
            ce = cross_entropy(logits, ex.targets, ex.mask)
            total = ce if total is None else total + ce
        (total / float(len(data))).backward()
        assert sorted(stacked) == sorted(
            n for n, t in params.named_tensors() if t.grad is not None)
        for name, grad in stacked.items():
            assert _close(grad, params.tensors[name].grad), name

    def test_example_without_masked_position_rejected(self):
        logits = Tensor(np.zeros((2, 3, 4)))
        mask = np.array([[True, False, False], [False, False, False]])
        with pytest.raises(NumericError, match="masked position"):
            cross_entropy(logits, np.zeros((2, 3), dtype=int), mask)

    def test_unmasked_example_aborts_train_and_restores(self):
        # the step's NumericError aborts the run like any non-finite loss
        data = make_task(TaskSpec(kind="copy", length=4, count=4, seed=2))
        data[1] = dataclasses.replace(data[1], mask=np.zeros(4, dtype=bool))
        params = toy_params(seed=2)
        before = [t.values.copy() for _, t in params.named_tensors()]
        history = train(params, data, TrainConfig(steps=3, batch=4, seed=2))
        assert history.aborted and not history.rows
        for (name, t), want in zip(params.named_tensors(), before):
            assert np.array_equal(t.values, want), name


class TestEvaluationInputs:
    """evaluate and dataset_loss take a non-empty dataset of one length."""

    @staticmethod
    def copies(length, count, seed=2):
        return make_task(TaskSpec(kind="copy", length=length, count=count,
                                  seed=seed))

    def test_empty_dataset_rejected(self):
        params = toy_params(seed=2)
        with pytest.raises(ValueError, match="dataset is empty"):
            evaluate(params, [])
        with pytest.raises(ValueError, match="dataset is empty"):
            dataset_loss(params, [])

    @pytest.mark.parametrize("first", [8, 16, 32])
    def test_mixed_lengths_rejected_up_front(self, first, monkeypatch):
        # a length change at a multiple of the pass size would stack fine
        # pass by pass; the contract is one length, wherever it changes
        data = self.copies(4, first) + self.copies(6, 16)
        forwards = []
        monkeypatch.setattr(training, "model_forward",
                            lambda *a, **k: forwards.append(a))
        for call in (evaluate, dataset_loss):
            with pytest.raises(ValueError,
                               match=rf"example {first} has length 6, but "
                                     rf"example 0 has 4"):
                call(toy_params(seed=2), data)
        assert forwards == []

    def test_stack_names_the_lengths(self):
        data = self.copies(4, 2) + self.copies(6, 1) + self.copies(5, 1)
        with pytest.raises(ValueError, match=r"lengths \[4, 5, 6\]"):
            training._stack(data)
        # a train batch stacks through the same path
        with pytest.raises(ValueError, match=r"lengths \[4, 5, 6\]"):
            train(toy_params(seed=2), data,
                  TrainConfig(steps=1, batch=16, seed=2))


class TestBatchedCalls:
    """Each train step is one stacked forward; evaluate and dataset_loss run
    one forward per pass of at most EVAL_PASS examples, and one loss per
    slice of at most EVAL_SLICE."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {}
        for name in ("model_forward", "cross_entropy", "collapse_penalty",
                     "detect_collapse"):
            original = getattr(training, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(training, name, counting)
        return calls

    def test_one_forward_per_train_step(self, counted):
        data = make_task(TaskSpec(kind="copy", length=4, count=8, seed=2))
        train(toy_params(seed=2), data, TrainConfig(steps=3, batch=5, seed=2))
        assert counted == {"model_forward": 3, "cross_entropy": 3,
                           "collapse_penalty": 3, "detect_collapse": 3}

    @pytest.mark.parametrize("size", [1, 16, 17, 31, 32, 33, 63, 64, 65, 128])
    def test_one_forward_per_slice(self, counted, size):
        assert (EVAL_PASS, EVAL_SLICE) == (64, 16)
        data = make_task(TaskSpec(kind="copy", length=4, count=size, seed=2))
        params = toy_params(seed=2)
        evaluate(params, data)
        assert counted["model_forward"] == math.ceil(size / EVAL_PASS)
        assert counted["cross_entropy"] == math.ceil(size / EVAL_SLICE)
        dataset_loss(params, data, 0.5)
        assert counted["model_forward"] == 2 * math.ceil(size / EVAL_PASS)
        assert counted["cross_entropy"] == 2 * math.ceil(size / EVAL_SLICE)

    def test_evaluation_reads_params_without_backward(self, monkeypatch):
        # evaluation forwards the caller's parameters and leaves no gradient
        params = toy_params(seed=2)
        data = make_task(TaskSpec(kind="copy", length=4, count=3, seed=2))
        seen = []
        original = training.model_forward

        def spy(tokens, p, temp_multiplier=1.0):
            seen.append(p is params)
            return original(tokens, p, temp_multiplier)

        monkeypatch.setattr(training, "model_forward", spy)
        evaluate(params, data)
        dataset_loss(params, data)
        assert seen == [True, True]
        assert all(t.grad is None for _, t in params.named_tensors())


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
            for df in range(1, 201):
                want = scipy_stats.t.ppf(0.5 + level / 2.0, df)
                assert abs(t_quantile(level, df) - want) < 1e-8

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

    def test_large_df_quantiles_match_scipy(self):
        # no normal fallback: at df 121 the 95% quantile is 1.97976, not 1.96
        scipy_stats = pytest.importorskip("scipy.stats")
        for level in (0.90, 0.95, 0.99):
            for df in (121, 500, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
                want = scipy_stats.t.ppf(0.5 + level / 2.0, df)
                assert abs(t_quantile(level, df) - want) < 1e-8
        assert abs(t_quantile(0.95, 121) - 1.97976) < 1e-5

    def test_unlisted_level_rejected(self):
        for level in (0.5, 0.975, 1.0):
            with pytest.raises(ValueError, match="level"):
                t_quantile(level, 10)
        with pytest.raises(ValueError):
            t_quantile(0.95, 0)

    def test_p_value_matches_scipy_ttest(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(1)
        checked = 0
        for n in (2, 3, 5, 12, 40, 121, 500, 3000):
            for loc in (0.0, 0.1, 0.5, 2.0, -3.0):
                samples = rng.normal(loc=loc, size=n)
                want = scipy_stats.ttest_1samp(samples, 0.0).pvalue
                if want >= 1e-12:
                    assert t_test_p(samples) == pytest.approx(want, rel=1e-8)
                    checked += 1
        assert checked >= 30
        assert t_test_p([1, 2, 3, 4, 5]) == pytest.approx(0.0132356, abs=1e-7)

    def test_zero_spread_p_is_the_limit(self):
        # t is +-inf with zero spread and a nonzero mean: p -> 0 as the
        # spread shrinks, which scipy shows on nearly equal samples
        scipy_stats = pytest.importorskip("scipy.stats")
        assert scipy_stats.ttest_1samp([2.0, 2.0, 2.0 + 1e-9], 0.0).pvalue < 1e-6
        assert t_test_p([2.0, 2.0, 2.0]) == 0.0
        assert t_test_p([-0.5, -0.5]) == 0.0
        assert t_test_p([0.0, 0.0, 0.0]) == 1.0
        assert t_test_p([-1.0, 1.0]) == 1.0  # mean 0, nonzero spread

    @pytest.mark.parametrize("samples", [
        [1.0, float("nan")], [1.0, 2.0, float("inf")],
        [[1.0, 2.0], [3.0, 4.0]], [1.0]],
        ids=["nan", "inf", "nested", "one-sample"])
    def test_bad_samples_rejected(self, samples):
        with pytest.raises(ValueError):
            confidence_interval(samples)
        with pytest.raises(ValueError):
            t_test_p(samples)

    @pytest.mark.parametrize("samples, unit, p", [
        ([1e-200, 2e-200], [1.0, 2.0], 0.20483),
        ([3e-310, -1e-310, 2e-310], [3.0, -1.0, 2.0], 0.38279),
        ([1e308, 0.0], [1.0, 0.0], 0.5),
        ([1.7e308, 1.7e308], [1.0, 1.0], 0.0),
        ([1.7e308, -1.7e308], [1.0, -1.0], 1.0)],
        ids=["tiny", "subnormal", "std-near-max", "largest-equal",
             "largest-opposite"])
    def test_extreme_scales(self, samples, unit, p):
        # the statistics of c * x are those of x, scaled for the mean and
        # the interval: the std of tiny samples does not underflow to 0 and
        # a std up to the largest float is kept; an interval beyond the
        # largest float raises
        scale = samples[0] / unit[0]
        rel = 1e-12 if abs(scale) > 1e-300 else 1e-4
        assert t_test_p(samples) == pytest.approx(t_test_p(unit), rel=rel)
        assert t_test_p(samples) == pytest.approx(p, abs=1e-5)
        assert sample_mean(samples) == pytest.approx(
            scale * float(np.mean(unit)), rel=rel)
        want = [scale * v for v in confidence_interval(unit)]
        if all(math.isfinite(v) for v in want):
            assert confidence_interval(samples) == pytest.approx(want, rel=rel)
        else:
            with pytest.raises(ValueError, match="does not fit"):
                confidence_interval(samples)

    def test_ordinary_samples_keep_their_bits(self):
        # scaling by a power of two is exact: the unscaled arithmetic
        samples = np.random.default_rng(3).normal(loc=2.0, size=50)
        mu, s = samples.mean(), samples.std(ddof=1)
        half = t_quantile(0.95, 49) * s / math.sqrt(50)
        assert confidence_interval(samples) == (mu - half, mu + half)
        assert sample_mean(samples) == mu
        assert t_test_p(samples) == training._t_tail(
            mu * math.sqrt(50) / s, 49)

    def test_significance_labels(self):
        assert significance_label(0.003) == "strong"
        assert significance_label(0.02) == "moderate"
        assert significance_label(0.05) == "insufficient"
        with pytest.raises(ValueError):
            significance_label(1.5)
