import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttm_lab import model, numerics, training
from ttm_lab.gsot import GsotConfig, build_universe, gsot_pipeline
from ttm_lab.model import (ModelConfig, ModelParams, checkpoint_load,
                           checkpoint_save, model_forward)
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
        assert lr_schedule(50, cfg) == 0.1

    def test_sqrt_decay(self):
        cfg = TrainConfig(eta0=0.1, t0=100)
        assert abs(lr_schedule(400, cfg) - 0.05) < 1e-15

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            lr_schedule(0, TrainConfig())

    @given(st.integers(1, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_and_clamped(self, t):
        cfg = TrainConfig(eta0=0.1, t0=50)
        eta_t = lr_schedule(t, cfg)
        eta_next = lr_schedule(t + 1, cfg)
        assert eta_next <= eta_t + 1e-18
        assert 0.0 < eta_t <= 0.1


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

    def test_scripted_spike_triggers_one_event(self, monkeypatch):
        monkeypatch.setattr(training, "SPIKE_FACTOR", 5.0)
        # after 49 steps of copying, every target becomes the next symbol:
        # the task loss jumps 7.6x to 11.2x at step 50 (0.43 to 4.40 at seed 6)
        for seed in (6, 7, 8):
            data = TargetsChangeAfter(
                make_task(TaskSpec(kind="copy", length=4, count=8, seed=seed)),
                49 * 4, lambda t: (t + 1) % 16)
            history = train(toy_params(seed=seed), data, TrainConfig(
                steps=60, batch=4, seed=seed))
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

    def test_overflowing_update_aborts_and_restores(self):
        # at eta0 1e308 step 1's descent step overflows embed.tok and
        # embed.pos; the update raises before any tensor is rebound
        params = ModelParams(ModelConfig(d_model=8, heads=2, layers=1, d_ff=16,
                                         vocab_size=12, d_c=4, max_seq_len=8))
        before = {name: t.values.tobytes() for name, t in params.named_tensors()}
        data = make_task(TaskSpec(kind="copy", length=4, count=8, alphabet=10))
        with np.errstate(over="ignore", invalid="ignore"):
            history = train(params, data,
                            TrainConfig(steps=5, batch=4, eta0=1e308))
        assert history.aborted and not history.rows
        for name, t in params.named_tensors():
            assert t.values.tobytes() == before[name], name

    @pytest.mark.parametrize("eta0, rows", [(1e308, 0), (1e200, 1)])
    def test_diverging_run_aborts_without_numpy_warnings(self, eta0, rows):
        # the step overflows in the update (1e308) or, a step later, in an
        # attention matmul (1e200); either overflow is caught as a
        # non-finite value, so a warning from numpy would only repeat it
        params = ModelParams(ModelConfig(d_model=8, heads=2, layers=1, d_ff=16,
                                         vocab_size=12, d_c=4, max_seq_len=8))
        data = make_task(TaskSpec(kind="copy", length=4, count=8, alphabet=10))
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            history = train(params, data,
                            TrainConfig(steps=5, batch=4, eta0=eta0))
        assert history.aborted and len(history.rows) == rows

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

    def test_logged_total_is_optimized_loss(self, monkeypatch):
        # an event at step 4: the logged total must still be task +
        # lambda_T * penalty with the lambda_T that step optimized
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        monkeypatch.setattr(training, "SPIKE_FACTOR", 1.4)
        cfg = TrainConfig(steps=5, batch=4)
        idx = Rng(cfg.seed).integers(0, len(data), size=cfg.batch)
        task, pen = 0.0, 0.0
        for i in idx:
            ex = data[int(i)]
            logits, fields = model_forward(ex.inputs, params)
            task += float(cross_entropy(logits, ex.targets, ex.mask).values)
            pen += float(collapse_penalty(fields[-1]).values)
        step1 = (task + cfg.lambda_T * pen) / cfg.batch

        # from step 4 on every answer is the HALVE token: the task loss rises
        # 1.53x after three falls of at least 14%
        spiking = TargetsChangeAfter(data, 3 * cfg.batch,
                                     lambda t: np.full_like(t, TOK_HALVE))
        history = train(params, spiking, cfg)
        assert [r["event"] for r in history.rows] == ["", "", "", "lr_halved",
                                                      ""]
        assert abs(history.rows[0]["total_loss"] - step1) < 1e-12
        for row, lam in zip(history.rows, (0.1, 0.1, 0.1, 0.1, 0.2)):
            assert row["total_loss"] == row["task_loss"] + lam * row["temp_penalty"]

    def test_metrics_csv_columns(self, tmp_path):
        params = toy_params(seed=8)
        data = make_task(TaskSpec(kind="copy", length=4, count=8, seed=8))
        history = train(params, data, TrainConfig(steps=3, batch=2, seed=8))
        history.to_csv(tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == ("step,task_loss,temp_penalty,total_loss,lr_main,"
                            "lr_temp,temp_min,temp_max,collapse_fraction,"
                            "grad_norm_temp,event")
        assert len(lines) == 4
        assert METRIC_COLUMNS[0] == "step" and METRIC_COLUMNS[-1] == "event"

    def test_metrics_csv_cells_are_plain_floats(self, tmp_path):
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


def per_tensor_update(params, lr_main, lr_temp, weight_decay):
    """The update as a loop over tensors, each rebound to a fresh array: the
    reference for `ModelParams.update`, the step `train` takes."""
    tau = 1.0 / math.sqrt(params.cfg.d_k)
    for name, tensor in params.named_tensors():
        if tensor.grad is None:
            continue
        if ".temp." in name:
            g = np.clip(tensor.grad, -tau, tau)
            tensor.values = tensor.values - lr_temp * g
        else:
            g = tensor.grad + weight_decay * tensor.values
            tensor.values = tensor.values - lr_main * g


def buffer_of(params):
    """The one array every tensor's values are a view of; fails otherwise."""
    bases = {id(t.values.base): t.values.base
             for _, t in params.named_tensors()}
    assert len(bases) == 1
    (base,) = bases.values()
    assert base is not None and base.ndim == 1
    assert base.size == sum(t.size for _, t in params.named_tensors())
    return base


def assert_same_params(got, want):
    for (name, t), (want_name, w) in zip(got.named_tensors(),
                                         want.named_tensors()):
        assert name == want_name
        assert t.values.tobytes() == w.values.tobytes(), name


class TestFlatBuffers:
    def test_every_tensor_is_a_view_of_one_buffer(self, tmp_path):
        params = arith_params()
        buffer_of(params)
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        for step in range(3):
            before = buffer_of(params)
            history = train(params, data, TrainConfig(steps=1, batch=8,
                                                      seed=step))
            assert len(history.rows) == 1
            assert buffer_of(params) is not before
        path = str(tmp_path / "c.ckpt")
        checkpoint_save(params, path)
        loaded = checkpoint_load(path)
        buffer_of(loaded)
        assert_same_params(loaded, params)
        assert buffer_of(loaded) is not buffer_of(params)

    def test_a_loaded_checkpoint_trains_as_its_original(self, tmp_path):
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        train(params, data, TrainConfig(steps=3, batch=8, seed=1))
        path = str(tmp_path / "c.ckpt")
        checkpoint_save(params, path)
        loaded = checkpoint_load(path)
        cfg = TrainConfig(steps=5, batch=8, seed=2)
        history = train(params, data, cfg)
        loaded_history = train(loaded, data, cfg)
        assert not history.aborted and len(history.rows) == 5
        assert loaded_history.rows == history.rows
        assert_same_params(loaded, params)
        assert buffer_of(loaded) is not buffer_of(params)

    def test_gradients_are_views_of_a_second_buffer(self):
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        train(params, data, TrainConfig(steps=1, batch=8))
        grads = {id(t.grad.base) for _, t in params.named_tensors()
                 if t.grad is not None}
        assert len(grads) == 1 and grads != {id(buffer_of(params))}

    def test_detached_view_builds_no_buffer(self):
        params = arith_params()
        view = params.detached()
        for (_, t), (_, v) in zip(params.named_tensors(),
                                  view.named_tensors()):
            assert v.values is t.values and v._grad_view is None
        assert view._values is None and view._spans == ()

    def test_a_step_leaves_earlier_arrays_alone(self):
        # a detached view taken before a step keeps its values
        params = arith_params()
        view = params.detached()
        kept = {name: t.values.copy() for name, t in view.named_tensors()}
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        train(params, data, TrainConfig(steps=2, batch=8))
        for name, t in view.named_tensors():
            assert np.array_equal(t.values, kept[name]), name
        assert not np.array_equal(params.W_out.values, view.W_out.values)

    def test_reasoning_head_gets_no_gradient_and_keeps_its_values(self):
        params = arith_params()
        w_reason = params.W_reason.values.copy()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        train(params, data, TrainConfig(steps=3, batch=8))
        assert params.W_reason.grad is None
        assert params.W_reason.values.tobytes() == w_reason.tobytes()
        assert sum(t.grad is not None for _, t in params.named_tensors()) \
            == len(params.tensors) - 1

    @pytest.mark.parametrize("variant", ["baseline", "broadcast", "outer"])
    def test_150_steps_match_the_per_tensor_update(self, variant,
                                                   monkeypatch):
        def run():
            params = ModelParams(ModelConfig(
                d_model=32, heads=2, layers=2, d_ff=64, vocab_size=20,
                d_c=4, max_seq_len=8, seed=5, attention_variant=variant))
            data = make_task(TaskSpec(kind="arithmetic_chain", length=8,
                                      count=64, seed=5))
            history = train(params, data, TrainConfig(
                steps=150, batch=8, seed=5, weight_decay=0.01))
            return history, params

        history, params = run()
        monkeypatch.setattr(ModelParams, "update", per_tensor_update)
        want_history, want = run()
        assert not history.aborted and len(history.rows) == 150
        assert history.rows == want_history.rows
        assert_same_params(params, want)

    @pytest.mark.parametrize("graded", ["all", "every-other", "temp-only",
                                        "none-temp", "none"])
    def test_update_of_any_graded_subset_matches_per_tensor(self, graded):
        # train never grades head.w_reason, which sits between the two
        # groups; here every pattern of graded neighbours is taken
        names = list(arith_params().tensors)
        pick = {"all": names, "every-other": names[::2],
                "temp-only": [n for n in names if ".temp." in n],
                "none-temp": [n for n in names if ".temp." not in n],
                "none": []}[graded]
        got, want = arith_params(), arith_params()
        for params in (got, want):
            loss = sum(((params.tensors[n] * 0.5) ** 2.0).sum() for n in pick)
            if pick:
                loss.backward()
        got.update(0.1, 0.02, 0.01)
        per_tensor_update(want, 0.1, 0.02, 0.01)
        assert_same_params(got, want)
        for name, t in got.named_tensors():
            assert (t.grad is None) == (name not in pick), name
        buffer_of(got)

    def test_rebound_values_are_read_by_the_update(self):
        # a tensor whose values were replaced, not written, trains from them
        params, want = arith_params(), arith_params()
        for p in (params, want):
            p.W_out.values = p.W_out.values * 2.0
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        cfg = TrainConfig(steps=2, batch=8)
        history = train(params, data, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ModelParams, "update", per_tensor_update)
            want_history = train(want, data, cfg)
        assert history.rows == want_history.rows
        assert_same_params(params, want)
        buffer_of(params)


def poison_gradient_at(step):
    """A cross_entropy whose node hands NaN to its logits' gradient on the
    given call (one call per training step)."""
    calls = []

    def poisoned(logits, targets, mask):
        loss = cross_entropy(logits, targets, mask)
        calls.append(None)
        if len(calls) != step:
            return loss
        return Tensor(loss.values, _parents=((loss, lambda g: g * math.nan),))
    return poisoned


class TestLeafCheck:
    """backward scans a model's gradient buffer once, and every leaf on its
    own only when that scan fails."""

    @staticmethod
    def poison_reasoning_head(params):
        # 1 / 1e-300 is finite, but its gradient 1 / 1e-600 is not, and
        # times 0.0 it is NaN: W_reason alone gets a non-finite gradient
        loss = (1.0 / (params.W_reason * 0.0 + 1e-300)).sum() \
            + params.W_out.sum()
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            loss.backward()
        return str(info.value)

    def test_non_finite_gradient_names_its_leaf(self):
        params = arith_params()
        message = self.poison_reasoning_head(params)
        assert message == ("non-finite gradient at a leaf tensor of shape "
                           f"{params.W_reason.shape}")
        assert np.isfinite(params.W_out.grad).all()

    def test_train_aborts_with_every_parameter_unchanged(self, monkeypatch):
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        want = arith_params()
        train(want, data, TrainConfig(steps=1, batch=8))
        params = arith_params()
        monkeypatch.setattr(training, "cross_entropy", poison_gradient_at(2))
        with np.errstate(invalid="ignore"):
            history = train(params, data, TrainConfig(steps=3, batch=8))
        assert history.aborted and len(history.rows) == 1
        assert not np.isfinite(params.W_out.grad).all()
        assert_same_params(params, want)
        buffer_of(params)

    def test_stale_non_finite_region_does_not_raise(self):
        params = arith_params()
        # with the gradient buffer allocated, backward writes the NaNs into
        # the reasoning head's region of it
        params.zero_grad()
        self.poison_reasoning_head(params)
        # the reasoning head's region of the gradient buffer keeps its NaNs:
        # no training step writes it
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        history = train(params, data, TrainConfig(steps=2, batch=8))
        assert not history.aborted and len(history.rows) == 2
        assert not np.isfinite(params._grads).all()
        assert params.W_reason.grad is None
        want = arith_params()
        want_history = train(want, data, TrainConfig(steps=2, batch=8))
        assert history.rows == want_history.rows
        assert_same_params(params, want)


class TestLazyGradientBuffer:
    """A model allocates its gradient buffer at the first training step
    that needs it, so one that is only forwarded never holds it."""

    @staticmethod
    def assert_no_gradient_buffer(params):
        assert params._grads is None
        assert all(t._grad_view is None and t.grad is None
                   for _, t in params.named_tensors())

    def test_forward_only_use_leaves_no_gradient_buffer(self):
        params = arith_params()
        data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=64))
        self.assert_no_gradient_buffer(params)
        dataset_loss(params, data, 0.7)
        evaluate(params, data)
        universe = build_universe(params, 4, Rng(0))
        gsot_pipeline([1, 2, 3, 4, 5], universe, params, GsotConfig())
        self.assert_no_gradient_buffer(params)
        history = train(params, data, TrainConfig(steps=2, batch=8))
        want = arith_params()
        want_history = train(want, data, TrainConfig(steps=2, batch=8))
        assert history.rows == want_history.rows
        assert_same_params(params, want)
        grads = {id(t.grad.base) for _, t in params.named_tensors()
                 if t.grad is not None}
        assert grads == {id(params._grads)}

    def test_an_update_takes_over_earlier_fresh_gradients(self):
        # a backward before any zero_grad gives each leaf a fresh array;
        # the update allocates the buffer and copies them into it
        got, want = arith_params(), arith_params()
        for params in (got, want):
            (params.W_out * 0.5).sum().backward()
        assert got._grads is None and got.W_out.grad.base is None
        got.update(0.1, 0.02, 0.01)
        per_tensor_update(want, 0.1, 0.02, 0.01)
        assert_same_params(got, want)
        assert np.count_nonzero(got._grads) == got.W_out.size


BATCH_VARIANTS =[pytest.param("baseline", 0.0, id="baseline"),
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
    def test_stacked_equals_per_example(self, monkeypatch, variant, spread,
                                        task):
        # spread widens the temperature head's init, so that each example's
        # field, and its field mean, sits far from the neutral 0.5
        spec, vocab = BATCH_TASKS[task]
        monkeypatch.setattr(model, "TEMP_INIT_STD",
                            model.TEMP_INIT_STD + spread)
        params = ModelParams(ModelConfig(
            d_model=16, heads=2, layers=2, d_ff=32, vocab_size=vocab, d_c=4,
            seed=3, max_seq_len=spec.length, attention_variant=variant))
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
    def test_evaluation_equals_one_forward_per_16(self, monkeypatch, variant,
                                                  spread, task):
        # evaluate and dataset_loss forward EVAL_PASS examples at a time; a
        # reference loop with one forward per 16 examples must give the
        # same floats, so no golden moves
        spec, vocab = BATCH_TASKS[task]
        monkeypatch.setattr(model, "TEMP_INIT_STD",
                            model.TEMP_INIT_STD + spread)
        params = ModelParams(ModelConfig(
            d_model=16, heads=2, layers=2, d_ff=32, vocab_size=vocab, d_c=4,
            seed=3, max_seq_len=spec.length, attention_variant=variant))
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

    @pytest.mark.parametrize("task", sorted(BATCH_TASKS))
    @pytest.mark.parametrize("variant", ["baseline", "broadcast", "outer"])
    def test_column_softmax_pass_equals_one_forward_per_example(
            self, variant, task, monkeypatch):
        # a 64-example pass takes each attention softmax over 768 or 1,024
        # rows, in numerics._softmax's column layout; one example's forward
        # takes 12 or 16 rows, in the row layout. The losses and hits must
        # be the same floats.
        spec, vocab = BATCH_TASKS[task]
        params = ModelParams(ModelConfig(
            d_model=16, heads=2, layers=2, d_ff=32, vocab_size=vocab, d_c=4,
            seed=3, max_seq_len=spec.length, attention_variant=variant))
        data = make_task(spec)
        assert len(data) == EVAL_PASS
        batch = training._stack(data)
        columns = []
        column_sums = numerics._column_sums
        monkeypatch.setattr(numerics, "_column_sums",
                            lambda cols: columns.append(cols.shape)
                            or column_sums(cols))

        def one_at_a_time(m):
            logits = np.concatenate([
                model_forward(ex.inputs[None], params, temp_multiplier=m)[0]
                .values for ex in data])
            total, hits = 0.0, 0
            for lo in range(0, len(data), EVAL_SLICE):
                rows = slice(lo, lo + EVAL_SLICE)
                loss = cross_entropy(Tensor(logits[rows]),
                                     batch.targets[rows], batch.mask[rows])
                total += float(loss.values) * EVAL_SLICE
                pred = logits[rows].argmax(axis=-1)
                hits += int(((pred == batch.targets[rows])
                             | ~batch.mask[rows]).all(axis=-1).sum())
            return total / len(data), hits / len(data)

        for m in (0.1, 0.55, 1.0):
            want = one_at_a_time(m)
            assert columns == []
            assert dataset_loss(params, data, m) == want[0]
            if m == 1.0:
                assert evaluate(params, data) == want
            keys = spec.length
            assert columns and set(columns) == {(keys, EVAL_PASS * 2 * keys)}
            columns.clear()

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

        def spy(tokens, p, temp_multiplier=1.0, positions=None):
            seen.append(p is params)
            return original(tokens, p, temp_multiplier, positions=positions)

        monkeypatch.setattr(training, "model_forward", spy)
        evaluate(params, data)
        dataset_loss(params, data)
        assert seen == [True, True]
        assert all(t.grad is None for _, t in params.named_tensors())


# -- a 60-digit reference for Student's t tail ------------------------------

DEC_PI = decimal.Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459")
# B_2k / (2k (2k - 1)) for k = 1 .. 8: the terms of Stirling's series
STIRLING_TERMS = [(1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
                  (-691, 360360), (1, 156), (-3617, 122400)]


def dec_lgamma(z):
    """log Gamma(z) of a Decimal z > 0: Stirling's series at z + j >= 40,
    which then leaves out less than 1e-70, less log z (z + 1) ... ."""
    shift = decimal.Decimal(0)
    while z < 40:
        shift += z.ln()
        z += 1
    s = (z - decimal.Decimal("0.5")) * z.ln() - z + (2 * DEC_PI).ln() / 2
    for i, (p, q) in enumerate(STIRLING_TERMS):
        s += decimal.Decimal(p) / (q * z ** (2 * i + 1))
    return s - shift


def dec_incomplete_beta(x, y, a, b):
    """I_x(a, b) of Decimals, by the continued fraction the library uses,
    run to 1e-45."""
    if x > (a + 1) / (a + b + 2):
        return 1 - dec_incomplete_beta(y, x, b, a)
    tiny = decimal.Decimal("1e-300")
    f, c, d = decimal.Decimal(1), decimal.Decimal("1e400"), decimal.Decimal(1)
    for j in range(1, 100000):
        m = j // 2
        num = (m * (b - m) if j % 2 == 0 else -(a + m) * (a + b + m)) \
            * x / ((a + j - 1) * (a + j))
        d = 1 / ((1 + num * d) or tiny)
        c = (1 + num / c) or tiny
        f *= c * d
        if abs(c * d - 1) < decimal.Decimal("1e-45"):
            return f / a * (dec_lgamma(a + b) - dec_lgamma(a) - dec_lgamma(b)
                            + a * x.ln() + b * y.ln()).exp()
    raise AssertionError("the reference did not converge")


def dec_t_tail(t, df):
    """P(|T| >= |t|) for Student's t, in 60 digits of the float t."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        t2, df = decimal.Decimal(t) ** 2, decimal.Decimal(df)
        return float(dec_incomplete_beta(df / (df + t2), t2 / (df + t2),
                                         df / 2, decimal.Decimal("0.5")))


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

    def test_decimal_reference_gives_the_closed_forms(self):
        # df 1 is Cauchy's tail, df 2 has one in radicals
        for t in (1e-3, 0.5, 1.0, 3.0, 10.0):
            assert dec_t_tail(t, 1) == pytest.approx(
                1.0 - 2.0 / math.pi * math.atan(t), rel=1e-14)
            assert dec_t_tail(t, 2) == pytest.approx(
                1.0 - t / math.sqrt(2.0 + t * t), rel=1e-14)

    @pytest.mark.parametrize("df", [10 ** 6, 10 ** 9])
    def test_large_df_tail_matches_the_decimal_reference(self, df):
        # lgamma(a + b) - lgamma(a) and a log(x), x near 1, used to put an
        # error of about 7e-15 df into the tail (7e-6 at df 1e9); what is
        # left comes from the continued fraction and stays below df eps
        for t in np.geomspace(1e-3, 10.0, 41):
            assert training._t_tail(float(t), df) == pytest.approx(
                dec_t_tail(float(t), df), rel=df * 2.0 ** -52)

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
