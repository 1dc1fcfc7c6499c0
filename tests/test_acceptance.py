"""Acceptance suite: one gate per shipped behavior, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every test states its tolerance inline and prints a single PASS/FAIL line
before asserting, so a red run still reports every criterion's status.
"""

import json
import math
import time

import numpy as np

from ttm_lab import cli, dynamics, gsot, training
from ttm_lab.attention import (attention_baseline, attention_temp_broadcast,
                               attention_temp_outer)
from ttm_lab.model import ModelConfig, ModelParams, forward_embedded
from ttm_lab.numerics import Rng, Tensor, grad_check, gelu, layer_norm, softmax_rows
from ttm_lab.temperature import TemperatureField, compute_temperature, squash


def verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def small_model(seed=0, **kw):
    base = dict(d_model=8, heads=2, layers=2, d_ff=16, vocab_size=12, d_c=4,
                seed=seed, max_seq_len=8)
    base.update(kw)
    return ModelConfig(**base)


def test_01_temperature_fields_stay_in_bounds():
    # 1000 random fields from the learned map, all entries in [0.01, 0.99];
    # budget 10 seconds.
    t0 = time.time()
    rng = Rng(101)
    lo, hi = 1.0, 0.0
    count = 0
    for trial in range(50):
        params = ModelParams(small_model(seed=trial))
        block = params.blocks[0]
        for _ in range(20):
            x = Tensor(rng.normal((6, 8), std=3.0))
            field = compute_temperature(attention_baseline(x, block.attn).values,
                                        block.temp)
            v = field.array()
            lo, hi = min(lo, v.min()), max(hi, v.max())
            count += 1
    elapsed = time.time() - t0
    ok = lo >= 0.01 and hi <= 0.99 and count == 1000 and elapsed < 10.0
    verdict(1, "temperature bounds over 1000 fields",
            ok, f"min={lo:.4f} max={hi:.4f} time={elapsed:.1f}s")


def test_02_all_attention_variants_row_stochastic():
    # 200 random instances x 3 variants, row sums within 1e-9 of one;
    # budget 10 seconds.
    t0 = time.time()
    rng = Rng(202)
    worst = 0.0
    params = ModelParams(small_model(seed=2))
    block = params.blocks[0]
    for _ in range(200):
        n = int(rng.integers(2, 12))
        x = Tensor(rng.normal((n, 8)))
        base = attention_baseline(x, block.attn)
        field = compute_temperature(base.values, block.temp)
        for out in (base,
                    attention_temp_broadcast(base, block.attn, field),
                    attention_temp_outer(base, block.attn, field)):
            worst = max(worst,
                        float(np.abs(out.weights.values.sum(axis=-1) - 1.0).max()))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    verdict(2, "row-stochastic attention across 200 instances x 3 variants",
            ok, f"worst row-sum error {worst:.2e}, time={elapsed:.1f}s")


def test_03_unit_field_reduces_to_baseline():
    # With every temperature fixed at one, both modulated variants must match
    # plain attention to 1e-12 across 100 random instances.
    rng = Rng(303)
    params = ModelParams(small_model(seed=3))
    block = params.blocks[0]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        x = Tensor(rng.normal((n, 8)))
        unit = TemperatureField(Tensor(np.ones((2, n))), eps_min=0.0,
                                validate=False)
        base = attention_baseline(x, block.attn)
        for fn in (attention_temp_broadcast, attention_temp_outer):
            out = fn(base, block.attn, unit).values.values
            worst = max(worst, float(np.abs(out - base.values.values).max()))
    ok = worst < 1e-12
    verdict(3, "unit temperature field is an exact identity",
            ok, f"worst deviation {worst:.2e}")


def test_04_gradients_match_finite_differences():
    # Core ops within 1e-5 relative error; a full two-layer model loss within
    # 1e-4; budget 60 seconds.
    t0 = time.time()
    rng = Rng(404)
    x0 = Tensor(rng.normal((4, 5)))
    gain = Tensor(rng.normal((5,)), requires_grad=True)
    bias = Tensor(rng.normal((5,)), requires_grad=True)
    w = Tensor(rng.normal((5, 3)), requires_grad=True)
    core = {
        "softmax_rows": lambda x: softmax_rows(x).sum(),
        "gelu": lambda x: gelu(x).sum(),
        "squash": lambda x: squash(x, 0.01).sum(),
        "layer_norm": lambda x: layer_norm(x, gain, bias).sum(),
        "matmul": lambda x: (x @ w).sum(),
    }
    errors = {name: grad_check(fn, x0) for name, fn in core.items()}

    params = ModelParams(small_model(seed=4))
    tokens = np.array([1, 2, 3, 4, 5])
    targets = np.array([2, 3, 4, 5, 6])
    mask = np.ones(5, dtype=bool)

    def model_loss(emb):
        logits, _, _ = forward_embedded(emb, params)
        return training.cross_entropy(logits, targets, mask)

    emb0 = Tensor(params.tok_emb.values[tokens].copy())
    errors["full_model"] = grad_check(model_loss, emb0)
    elapsed = time.time() - t0
    core_worst = max(v for k, v in errors.items() if k != "full_model")
    ok = core_worst < 1e-5 and errors["full_model"] < 1e-4 and elapsed < 60.0
    verdict(4, "analytic gradients agree with finite differences",
            ok, f"core worst {core_worst:.2e} (tol 1e-5), "
                f"full model {errors['full_model']:.2e} (tol 1e-4), "
                f"time={elapsed:.1f}s")


def test_05_contraction_error_bound_and_rate_recovery():
    # A gain-0.9 update must obey err_k <= 0.9^k * err_0 * (1 + 1e-9) at every
    # step, and the fitted decay rate must land within 0.02 of the truth for
    # gains 0.90 and 0.93.
    update = lambda f, g: dynamics.evolve_layer(
        f, None, None, dynamics.EvolutionConfig(gain=g))
    start = TemperatureField(Rng(505).uniform((2, 4), 0.1, 0.9))
    star = np.full((2, 4), 0.5)
    e0 = np.linalg.norm(start.array() - star)
    current, bound_ok = start, True
    for k in range(1, 80):
        current = update(current, 0.9)
        err = np.linalg.norm(current.array() - star)
        bound_ok = bound_ok and err <= 0.9 ** k * e0 * (1 + 1e-9)

    fits = {}
    for gain in (0.90, 0.93):
        report = dynamics.iterate_to_fixed_point(
            lambda f: update(f, gain),
            TemperatureField(Rng(506).uniform((2, 4), 0.1, 0.9)),
            tol=1e-9, max_iter=1000)
        _, fits[gain] = dynamics.convergence_rate_fit(report.residuals)
    ok = (bound_ok and abs(fits[0.90] - 0.90) < 0.02
          and abs(fits[0.93] - 0.93) < 0.02)
    verdict(5, "geometric error bound holds and decay rate is recovered",
            ok, f"bound_ok={bound_ok}, "
                f"rate@0.90={fits[0.90]:.4f}, rate@0.93={fits[0.93]:.4f} "
                f"(tol 0.02)")


def test_06_iteration_count_tracks_tolerance():
    # Tightening the tolerance from 1e-3 to 1e-6 must add the geometrically
    # predicted number of iterations, within 2.
    L = 0.9
    update = lambda f: dynamics.evolve_layer(
        f, None, None, dynamics.EvolutionConfig(gain=L))
    start = TemperatureField(Rng(606).uniform((2, 4), 0.1, 0.9))
    iters = {}
    for tol in (1e-3, 1e-6):
        report = dynamics.iterate_to_fixed_point(update, start, tol=tol,
                                                 max_iter=1000)
        assert report.converged
        iters[tol] = report.iterations
    predicted = math.log(1e-3 / 1e-6) / math.log(1 / L)
    gap = iters[1e-6] - iters[1e-3]
    ok = abs(gap - predicted) <= 2
    verdict(6, "iteration count scales with log of the tolerance",
            ok, f"observed gap {gap}, predicted {predicted:.1f} (tol 2)")


def test_07_active_set_shrinks_on_schedule():
    # Over 100 random runs the retained primary-token count at extraction step
    # k must stay at or below (1 - k/K) * n (checked exactly; the final
    # integration step works on the last surviving set and is exempt).
    rng = Rng(707)
    all_ok = True
    worst = None
    for trial in range(100):
        n = int(rng.integers(6, 25))
        K = int(rng.integers(2, 7))
        cfg_m = small_model(seed=trial, vocab_size=32, max_seq_len=32)
        params = ModelParams(cfg_m)
        universe = gsot.build_universe(params, 4, rng.spawn(trial))
        seq = [int(v) for v in rng.integers(0, 32, size=n)]
        _, trace = gsot.gsot_pipeline(seq, universe, params,
                                      gsot.GsotConfig(K=K))
        report = gsot.active_set_schedule_check(
            gsot.ReasoningTrace(steps=trace.steps[:-1]), n, K)
        if not report.satisfied:
            all_ok = False
            worst = (n, K, report.margins)
    verdict(7, "guided reasoning keeps its active-set shrink schedule",
            all_ok, "100/100 runs" if all_ok else f"violated at {worst}")


def test_08_op_counts_fit_quasilinear_scaling():
    # Measured op counts over n in {64..1024} must fit c * n * log2(n) with
    # r^2 >= 0.95; the fitted constant is printed beside the published
    # scaling-ratio reference 0.98 for context (not gated).
    blk = dict(cli._BENCH_DEFAULTS)
    counts = cli.bench_op_counts(blk, gsot.GsotConfig(), seed=0)
    c, r2 = gsot.complexity_fit(counts)
    ok = r2 >= 0.95
    verdict(8, "op counts scale as n log n",
            ok, f"c={c:.1f}, r^2={r2:.4f} (gate 0.95; "
                f"published scaling ratio for reference: 0.98)")


def test_09_training_avoids_temperature_collapse():
    # 500 copy-task steps with penalty weight 0.1: the fraction of collapsed
    # temperatures (within 0.02 of a bound) must be exactly zero at every
    # logged step; budget 5 minutes.
    t0 = time.time()
    cfg_m = small_model(seed=9, d_model=16, d_ff=32, vocab_size=16)
    params = ModelParams(cfg_m)
    data = training.make_task(training.TaskSpec(kind="copy", length=4,
                                                count=16, seed=9))
    history = training.train(params, data,
                             training.TrainConfig(steps=500, batch=4, seed=9,
                                                  lambda_T=0.1,
                                                  collapse_eps=0.02))
    fractions = history.column("collapse_fraction")
    elapsed = time.time() - t0
    ok = (not history.aborted and len(fractions) == 500
          and max(fractions) == 0.0 and elapsed < 300.0)
    verdict(9, "no temperature collapse across 500 training steps",
            ok, f"max collapse fraction {max(fractions)}, "
                f"time={elapsed:.0f}s")


def test_10_tasks_are_learnable():
    # Copy loss must at least halve within 500 steps; the arithmetic-chain
    # task must reach >= 90% exact-match accuracy within 5000 steps. The
    # temperature-modulated model is compared against the unmodulated baseline
    # (reported, not gated). Budget 15 minutes.
    t0 = time.time()

    cfg_m = small_model(seed=10, d_model=16, d_ff=32, vocab_size=16)
    params = ModelParams(cfg_m)
    data = training.make_task(training.TaskSpec(kind="copy", length=4,
                                                count=16, seed=10))
    initial = training.dataset_loss(params, data)
    training.train(params, data,
                   training.TrainConfig(steps=500, batch=4, seed=10))
    copy_final, _ = training.evaluate(params, data)

    results = {}
    for variant in ("broadcast", "baseline"):
        cfg_a = ModelConfig(d_model=32, heads=2, layers=2, d_ff=64,
                            vocab_size=training.ARITH_VOCAB, d_c=4, seed=10,
                            max_seq_len=8, attention_variant=variant)
        p = ModelParams(cfg_a)
        arith = training.make_task(
            training.TaskSpec(kind="arithmetic_chain", length=8, count=64,
                              seed=10))
        training.train(p, arith,
                       training.TrainConfig(steps=1000, batch=8, seed=10))
        results[variant] = training.evaluate(p, arith)
    elapsed = time.time() - t0
    acc = results["broadcast"][1]
    ok = copy_final <= 0.5 * initial and acc >= 0.90 and elapsed < 900.0
    verdict(10, "copy and arithmetic tasks train to target",
            ok, f"copy {initial:.3f}->{copy_final:.3f} (gate 0.5x), "
                f"arithmetic accuracy {acc:.3f} (gate 0.90) vs "
                f"baseline variant {results['baseline'][1]:.3f} [reported], "
                f"time={elapsed:.0f}s")


def test_11_statistics_reference_values():
    # The 95% interval for samples 1..5 must match [1.0368, 4.9632] within
    # 1e-3, and p = 0.003 must be labelled strong.
    lo, hi = training.confidence_interval([1, 2, 3, 4, 5], 0.95)
    label = training.significance_label(0.003)
    ok = abs(lo - 1.0368) < 1e-3 and abs(hi - 4.9632) < 1e-3 and label == "strong"
    verdict(11, "statistics reference values reproduced",
            ok, f"ci=[{lo:.4f}, {hi:.4f}], label={label}")


def test_12_cli_artifacts_are_byte_identical(tmp_path):
    # Re-running train, sweep, and the guided-reasoning pipeline with the same
    # config must reproduce every artifact byte for byte.
    doc = {"model": {"d_model": 8, "heads": 2, "layers": 1, "d_ff": 16,
                     "vocab_size": 12, "d_c": 4, "max_seq_len": 8},
           "task": {"kind": "copy", "length": 4, "count": 8, "alphabet": 10},
           "train": {"steps": 5, "batch": 4},
           "sweep": {"t_min": 0.5, "t_max": 1.5, "steps": 4},
           "gsot": {"length": 6, "hidden_count": 4}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    artifacts = {"train": "metrics.csv", "sweep": "sweep.csv",
                 "gsot": "trace.jsonl"}
    outputs = {}
    for attempt in ("a", "b"):
        for command, artifact in artifacts.items():
            out = tmp_path / f"{command}_{attempt}"
            code = cli.main(["--config", str(cfg_path), "--out", str(out),
                             command])
            assert code == cli.EXIT_OK
            outputs[(command, attempt)] = (out / artifact).read_bytes()
    mismatched = [cmd for cmd in artifacts
                  if outputs[(cmd, "a")] != outputs[(cmd, "b")]]
    ok = not mismatched
    verdict(12, "command-line artifacts reproduce byte for byte",
            ok, "train, sweep, gsot" if ok else f"mismatch in {mismatched}")
