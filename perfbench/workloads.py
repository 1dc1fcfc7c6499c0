"""The benchmark's workloads, driven only through ttm_lab's public functions.

Each workload is built from a seed (that build is the set-up that `setup_s`
times) and then runs rounds. A round is one call from the benchmark into the
library; it yields one op, except in `sweep_eval`, where one
`temperature_sweep` call issues one op per grid point. Every op is timed by
`Recorder.call` and checked after the clock stops; a failed check or an
exception makes the op count as failed.
"""

import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ttm_lab import dynamics, gsot, training
from ttm_lab.model import ModelConfig, ModelParams
from ttm_lab.numerics import Rng

# test_10's arithmetic configuration
ARITH_MODEL = dict(d_model=32, heads=2, layers=2, d_ff=64,
                   vocab_size=training.ARITH_VOCAB, d_c=4, max_seq_len=8)
ARITH_LENGTH = 8
ARITH_EXAMPLES = 64
BATCH = 8

SWEEP_RANGE = (0.1, 1.0)
SWEEP_STEPS = 10

# the `ttmlab bench` model and grid
BENCH_MODEL = dict(d_model=16, heads=1, layers=1, d_ff=512, vocab_size=32,
                   d_c=4)
BENCH_HIDDEN = 4
BENCH_LENGTHS = (64, 128, 256, 512, 1024)
GSOT_LENGTH = 512


def step_budget(n):
    """K = ceil(log2 n), as `ttmlab bench` uses (at least 2)."""
    return max(2, math.ceil(math.log2(n)))


# Every reported time is scaled to the machine speed at which
# reference_kernel() takes REF_MS. Op times move with the kernel's time to
# about this power: fitted over 1.5 s windows on a shared 2-vCPU host, the
# log-log slope is 0.9 for train_arith and lower for the workloads with larger
# arrays; 0.9 keeps every workload's run-to-run spread below 7% there.
REF_MS = 1.5
SPEED_EXPONENT = 0.9
KERNEL_SPAN = "bench.kernel"


def reference_kernel():
    """Wall ms of fixed work that never touches ttm_lab: a pure-Python loop
    and a chain of small numpy ops, the two kinds of work an op is made of.

    Co-tenants on a shared host slow the CPU by up to 1.7x for seconds at a
    time; this kernel slows by about the same factor (correlation 0.95 with
    train_arith op time over 1.5 s windows), so timing it just before and
    just after an op gives the speed to scale that op's time by.
    """
    t0 = perf_counter()
    x = 0
    for i in range(20000):
        x += i
    a = np.full((8, 32), 0.5)
    w = np.full((32, 32), 0.01)
    for _ in range(100):
        a = np.tanh(a @ w) + 0.1
        a.sum(axis=-1, keepdims=True)
    return (perf_counter() - t0) * 1e3


def speed_factor(*kernel_ms):
    """Factor that puts a time measured while reference_kernel() took
    `kernel_ms` (their mean) on the reference speed scale."""
    return (REF_MS * len(kernel_ms) / sum(kernel_ms)) ** SPEED_EXPONENT


@dataclass
class Op:
    items: int
    traced: bool
    ms: float = 0.0      # wall time
    speed: float = 1.0   # speed_factor() of the kernel runs around the op
    ok: bool = False
    counts: dict = field(default_factory=dict)  # tracer counters
    extra: dict = field(default_factory=dict)   # per-layer values measured by the workload


class Recorder:
    """Times ops and keeps their records; opens an op span when tracing."""

    def __init__(self, tracer=None):
        self.ops = []
        self.tracer = tracer
        self.traced = False
        self.errors = []

    def call(self, items, fn, *args):
        """Run fn(*args) as one op; returns (result or None, Op)."""
        op = Op(items=items, traced=self.traced)
        before = self._kernel()
        root = self.tracer.begin_op(len(self.ops)) if self.traced else None
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # an op that raises is a failed op; the run goes on
            self.errors.append(traceback.format_exc())
        op.ms = (perf_counter() - t0) * 1e3
        if root is not None:
            op.counts = dict(self.tracer.end_op(root))
        op.speed = speed_factor(before, self._kernel())
        self.ops.append(op)
        return result, op

    def _kernel(self):
        """reference_kernel(), in a span of its own when tracing, so that
        its time counts as no layer's self time."""
        if not self.traced:
            return reference_kernel()
        idx = self.tracer.open(KERNEL_SPAN)
        try:
            return reference_kernel()
        finally:
            self.tracer.close(idx)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


def _grad_ratio(params):
    tensors = [t for _, t in params.named_tensors()]
    return sum(t.grad is not None for t in tensors) / len(tensors)


class TrainArith:
    """op: one `train(params, data, TrainConfig(steps=1, batch=8, seed=s_i))`
    call continuing from the current params; items are examples."""

    name = "train_arith"

    def __init__(self, seed, examples=ARITH_EXAMPLES):
        self.cfg = ModelConfig(seed=seed, **ARITH_MODEL)
        self.params = ModelParams(self.cfg)
        self.data = training.make_task(training.TaskSpec(
            kind="arithmetic_chain", length=ARITH_LENGTH, count=examples,
            seed=seed))
        self._seeds = Rng(seed).spawn(1)
        self.reference = None  # task loss the first op must log

    def _first_batch_loss(self, op_seed):
        # train draws its batch as Rng(seed).integers(0, len(data), size=batch)
        idx = Rng(op_seed).integers(0, len(self.data), size=BATCH)
        return training.dataset_loss(self.params,
                                     [self.data[int(i)] for i in idx])

    def round(self, rec):
        op_seed = int(self._seeds.integers(0, 2 ** 31))
        first = self.reference is None
        if first:
            self.reference = self._first_batch_loss(op_seed)
        history, op = rec.call(BATCH, training.train, self.params, self.data,
                               training.TrainConfig(steps=1, batch=BATCH,
                                                    seed=op_seed))
        op.extra["model.param_grad_ratio"] = _grad_ratio(self.params)
        op.ok = history is not None and self.check(history, first)

    def check(self, history, first):
        if history.aborted or len(history.rows) != 1:
            return False
        row = history.rows[0]
        lo, hi = self.cfg.eps_min, 1.0 - self.cfg.eps_min
        return (math.isfinite(row["task_loss"])
                and math.isfinite(row["total_loss"])
                and lo <= row["temp_min"] <= row["temp_max"] <= hi
                and (not first or _close(row["task_loss"], self.reference, 1e-9)))


class SweepEval:
    """op: one grid-point `dataset_loss(params, data, m)` call issued by
    `temperature_sweep` over m in [0.1, 1.0]; items are examples."""

    name = "sweep_eval"

    def __init__(self, seed, examples=ARITH_EXAMPLES):
        self.params = ModelParams(ModelConfig(seed=seed, **ARITH_MODEL))
        self.data = training.make_task(training.TaskSpec(
            kind="arithmetic_chain", length=ARITH_LENGTH, count=examples,
            seed=seed))
        self.reference = None  # evaluate()'s loss, which m = 1.0 must equal

    def round(self, rec):
        if self.reference is None:
            self.reference = training.evaluate(self.params, self.data)[0]
        params, data = self.params, self.data

        def eval_loss(m):
            loss, op = rec.call(len(data), training.dataset_loss, params,
                                data, m)
            op.ok = (loss is not None and math.isfinite(loss)
                     and (m != 1.0 or _close(loss, self.reference, 1e-12)))
            op.extra["model.param_grad_ratio"] = _grad_ratio(params)
            return math.nan if loss is None else loss

        _, curve = dynamics.temperature_sweep(eval_loss, *SWEEP_RANGE,
                                              SWEEP_STEPS)
        if curve[-1][0] != 1.0:
            raise RuntimeError("sweep grid does not end at m = 1.0")


def probs_ok(probs):
    p = probs.values
    return bool(np.isfinite(p).all()
                and np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-12)


def gsot_ok(probs, trace, n, K):
    extraction = gsot.ReasoningTrace(steps=trace.steps[:-1])
    return (gsot.active_set_schedule_check(extraction, n, K).satisfied
            and probs_ok(probs))


class GsotLong:
    """op: one `gsot_pipeline` call on a fresh random sequence of `length`
    tokens with K = ceil(log2 length); items are input tokens."""

    name = "gsot_long"

    def __init__(self, seed, length=GSOT_LENGTH):
        self.length = length
        self.gsot_cfg = gsot.GsotConfig(K=step_budget(length))
        self.params = ModelParams(ModelConfig(seed=seed,
                                              max_seq_len=length + 1,
                                              **BENCH_MODEL))
        rng = Rng(seed)
        self.universe = gsot.build_universe(self.params, BENCH_HIDDEN, rng)
        self._tokens = rng.spawn(1)

    def round(self, rec):
        n = self.length
        seq = [int(v) for v in self._tokens.integers(
            0, self.params.cfg.vocab_size, size=n)]
        out, op = rec.call(n, gsot.gsot_pipeline, seq, self.universe,
                           self.params, self.gsot_cfg)
        op.extra["model.param_grad_ratio"] = _grad_ratio(self.params)
        if out is None:
            return
        probs, trace = out
        last = trace.steps[-1]
        op.extra["gsot.kept_ratio"] = len(last.active_primary) / n
        op.extra["gsot.hidden_admit_ratio"] = len(last.active_hidden) / (
            len(last.active_primary) * self.universe.hidden_count)
        op.extra["gsot.macs"] = last.op_count
        op.ok = gsot_ok(probs, trace, n, self.gsot_cfg.K)


WORKLOADS = {w.name: w for w in (TrainArith, SweepEval, GsotLong)}


def gsot_grid(seed, lengths=BENCH_LENGTHS, repeats=3):
    """`ttmlab bench`'s grid timed: per n, (median ms of `repeats` untraced
    gsot_pipeline calls at the reference speed, analytic MAC count, outputs
    ok)."""
    cfg = ModelConfig(seed=seed, max_seq_len=max(lengths) + 1, **BENCH_MODEL)
    params = ModelParams(cfg)
    out = {}
    for n in lengths:
        rng = Rng(seed + n)
        universe = gsot.build_universe(params, BENCH_HIDDEN, rng)
        seq = [int(v) for v in rng.integers(0, cfg.vocab_size, size=n)]
        run_cfg = gsot.GsotConfig(K=step_budget(n))
        times, ok = [], True
        for _ in range(repeats):
            before = reference_kernel()
            t0 = perf_counter()
            probs, trace = gsot.gsot_pipeline(seq, universe, params, run_cfg)
            ms = (perf_counter() - t0) * 1e3
            times.append(ms * speed_factor(before, reference_kernel()))
            ok = ok and gsot_ok(probs, trace, n, run_cfg.K)
        out[n] = (statistics.median(times), trace.steps[-1].op_count, ok)
    return out
