"""Every library function the benchmark's tracer wraps is still called.

perfbench/tracer.py wraps each `(module, attribute)` of its SPAN_TARGETS
under a span name, and a per-layer metric is that span's time. A target
that still exists but that the library no longer calls through that name
reads 0 on every workload instead of going missing, so a fusion that calls
around a wrapped name would hide its layer's time. SPAN_TARGETS is read from
tracer.py's source; nothing under perfbench/ is imported or changed.
"""

import ast
import importlib
import pathlib
from collections import Counter

from ttm_lab import dynamics, gsot, training
from ttm_lab.model import VARIANTS, ModelConfig, ModelParams
from ttm_lab.numerics import Rng
from ttm_lab.training import ARITH_VOCAB, TaskSpec, TrainConfig, make_task

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracer.py"

# block_forward fuses each residual add into its LayerNorm's node, so
# model.layer_norm has no caller and perfbench's numerics.layer_norm_ms
# reads 0; the tracer would have to wrap model._add_layer_norm instead
UNCALLED = {("model", "layer_norm")}


def span_targets():
    """The (module, attribute) pairs of tracer.py's SPAN_TARGETS."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["SPAN_TARGETS"]):
            return {(module, attr) for module, attr, _
                    in ast.literal_eval(node.value)}
    raise AssertionError(f"{TRACER} assigns no SPAN_TARGETS")


def count_calls(monkeypatch, targets):
    """A Counter that each target's calls, through the name the tracer
    wraps, add to from now on."""
    calls = Counter()
    for module, attr in targets:
        owner = importlib.import_module(f"ttm_lab.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)

        def counting(*args, _fn=getattr(owner, leaf), _key=(module, attr),
                     **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, leaf, counting)
    return calls


def test_every_span_target_is_called(monkeypatch):
    # one train step per variant, one evaluate, one temperature_sweep and
    # one gsot_pipeline: the calls the benchmark's three workloads make
    targets = span_targets()
    calls = count_calls(monkeypatch, targets)
    data = make_task(TaskSpec(kind="arithmetic_chain", length=8, count=16,
                              seed=10))
    for variant in VARIANTS:
        params = ModelParams(ModelConfig(
            d_model=16, heads=2, layers=2, d_ff=32, vocab_size=ARITH_VOCAB,
            d_c=4, seed=10, max_seq_len=8, attention_variant=variant))
        training.train(params, data, TrainConfig(steps=1, batch=4, seed=10))
    training.evaluate(params, data)
    dynamics.temperature_sweep(
        lambda m: training.dataset_loss(params, data, m), 0.5, 1.0, 2)
    toy = ModelParams(ModelConfig(d_model=8, heads=2, layers=1, d_ff=16,
                                  vocab_size=12, d_c=4, max_seq_len=32))
    universe = gsot.build_universe(toy, 4, Rng(0))
    gsot.gsot_pipeline([1, 2, 3, 4], universe, toy, gsot.GsotConfig())
    assert targets - set(calls) <= UNCALLED
