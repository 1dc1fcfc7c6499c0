"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from ttm_lab import training  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import (WORKLOADS, Recorder, gsot_grid,  # noqa: E402
                       GsotLong, SweepEval, TrainArith)

TINY = {"train_arith": lambda seed: TrainArith(seed, examples=16),
        "sweep_eval": lambda seed: SweepEval(seed, examples=4),
        "gsot_long": lambda seed: GsotLong(seed, length=32)}
TINY_GRID = (16, 32, 64, 128)
REPEATED_COUNTS = ("numerics.tape_nodes", "numerics.checked_tensors",
                   "gsot.forward_calls", "gsot.tokens_forwarded")


def tiny_run(name, seed, rounds, tracer=None):
    rec = Recorder(tracer)
    run.run_rounds(TINY[name](seed), rec, 0, 0, tracer, max_rounds=rounds)
    return rec


def benchmark_doc():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(WORKLOADS) == set(run.WARMUP)
    assert {w["name"] for w in benchmark_doc()["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks(name):
    rec = tiny_run(name, seed=3, rounds=2)
    assert rec.ops and not rec.errors
    assert all(op.ok for op in rec.ops)


def test_train_check_rejects_a_wrong_first_loss():
    wl = TrainArith(3, examples=16)
    wl.reference = 1.0
    row = {"task_loss": 1.0 + 1e-6, "total_loss": 1.0, "temp_min": 0.4,
           "temp_max": 0.6}
    history = training.TrainHistory(rows=[row])
    assert not wl.check(history, first=True)
    assert wl.check(history, first=False)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_wrappers_come_off(name):
    runs = []
    for _ in range(2):
        tracer = tr.Tracer()
        rec = tiny_run(name, seed=5, rounds=4, tracer=tracer)
        assert tracer.originals_restored()
        assert not tracer.missing
        traced = [op for op in rec.ops if op.traced]
        assert traced and all(op.ok for op in rec.ops)
        runs.append([({k: op.counts.get(k, 0) for k in REPEATED_COUNTS},
                      op.extra.get("gsot.macs")) for op in traced])
    assert runs[0] == runs[1]
    first_counts = runs[0][0][0]
    assert first_counts["numerics.tape_nodes"] > 0
    assert (first_counts["gsot.forward_calls"] > 0) == (name == "gsot_long")


def test_wrappers_are_the_originals_after_uninstall():
    from ttm_lab import model, numerics
    before = (model.gelu, numerics.Tensor.__init__, numerics.Tensor.backward)
    tracer = tr.Tracer()
    tracer.install()
    assert model.gelu is not before[0]
    assert numerics.Tensor.__init__ is not before[1]
    tracer.uninstall()
    assert (model.gelu, numerics.Tensor.__init__,
            numerics.Tensor.backward) == before


def _traced_ops(name, seed=11):
    tracer = tr.Tracer()
    rec = tiny_run(name, seed=seed, rounds=4, tracer=tracer)
    return rec.ops, tracer


def test_per_layer_reports_every_listed_metric():
    grid = gsot_grid(11, lengths=TINY_GRID, repeats=1)
    listed = {m["name"] for m in benchmark_doc()["per_layer"]}
    for name in sorted(TINY):
        ops, tracer = _traced_ops(name)
        metrics, missing = run.per_layer(ops, tracer, grid)
        assert not missing
        assert metrics["bench.self_time_gap_pct"][0] <= \
            run.SELF_TIME_TOLERANCE_PCT
        assert {k: u for k, (_, u) in metrics.items()
                if not k.startswith("gsot.grid_")} == \
            {m["name"]: m["unit"] for m in benchmark_doc()["per_layer"]
             if not m["name"].startswith("gsot.grid_")}
        got = {k for k in metrics if not k.startswith("gsot.grid_")}
        assert got == {k for k in listed if not k.startswith("gsot.grid_")}
    assert all(ok for _, _, ok in grid.values())


def test_removed_wrap_target_is_reported_missing(monkeypatch):
    targets = [t if t[1] != "gelu" else ("model", "gelu_gone", t[2])
               for t in tr.SPAN_TARGETS]
    monkeypatch.setattr(tr, "SPAN_TARGETS", targets)
    ops, tracer = _traced_ops("train_arith")
    assert tracer.missing == ["model.gelu_gone"]
    grid = gsot_grid(11, lengths=TINY_GRID, repeats=1)
    metrics, missing = run.per_layer(ops, tracer, grid)
    assert missing == ["numerics.gelu_ms"]
    assert "numerics.gelu_ms" not in metrics


def test_benchmark_json_matches_the_reported_metrics():
    doc = benchmark_doc()
    units = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert units == run.END_TO_END_UNITS
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_arith",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
