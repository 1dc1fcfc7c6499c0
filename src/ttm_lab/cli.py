"""Command-line entry point: experiments, checks, and CSV/JSON exports.

One binary with subcommands (check, gradcheck, train, sweep, gsot, bench,
stats). Configuration is a JSON document with one block per concern; unknown
keys are rejected, missing keys take documented defaults, and the resolved
config is echoed next to the artifacts. All artifacts are deterministic given
config + seed; exit codes are 0 (success), 1 (runtime/assertion failure),
2 (usage/config error).
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import dynamics, gsot, training
from .attention import (attention_baseline, attention_temp_broadcast,
                        attention_temp_outer)
from .model import ModelConfig, ModelParams, model_forward
from .numerics import NumericError, Rng, Tensor, grad_check, layer_norm, gelu, softmax_rows
from .temperature import TemperatureField, compute_temperature, squash

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


# defaults for the blocks that are plain dicts rather than dataclasses
_SWEEP_DEFAULTS = {"t_min": 0.1, "t_max": 1.0, "steps": 10,
                   "log_spacing": False}
_GSOT_DEFAULTS = {"sequence": None, "length": 8, "hidden_count": 8}
_BENCH_DEFAULTS = {"lengths": [64, 128, 256, 512, 1024],
                   "d_model": 16, "heads": 1, "layers": 1, "d_ff": 512,
                   "vocab_size": 32, "hidden_count": 4}
_STATS_DEFAULTS = {"samples": [1.0, 2.0, 3.0, 4.0, 5.0], "level": 0.95,
                   "p": None, "samples_file": None}


def _merge(defaults, given, block):
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in block {block!r}: {sorted(unknown)}")
    out = dict(defaults)
    out.update(given)
    return out


def _dataclass_defaults(cls):
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
    return out


_BLOCKS = {
    "model": lambda: _dataclass_defaults(ModelConfig),
    "train": lambda: _dataclass_defaults(training.TrainConfig),
    "task": lambda: _dataclass_defaults(training.TaskSpec),
    "gsot_cfg": lambda: _dataclass_defaults(gsot.GsotConfig),
    "dynamics": lambda: {k: v for k, v in
                         _dataclass_defaults(dynamics.EvolutionConfig).items()},
    "sweep": lambda: dict(_SWEEP_DEFAULTS),
    "gsot": lambda: dict(_GSOT_DEFAULTS),
    "bench": lambda: dict(_BENCH_DEFAULTS),
    "stats": lambda: dict(_STATS_DEFAULTS),
}


def load_config(path, seed=None, out=None):
    """Resolve the run configuration: defaults, file overrides, flags."""
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(_BLOCKS) - {"output_dir", "seed"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    resolved = {"output_dir": doc.get("output_dir", "out"),
                "seed": doc.get("seed", 0)}
    for name, factory in _BLOCKS.items():
        resolved[name] = _merge(factory(), doc.get(name, {}), name)
    if seed is not None:
        resolved["seed"] = seed
        for block in ("model", "train", "task", "dynamics"):
            resolved[block]["seed"] = seed
    if out is not None:
        resolved["output_dir"] = out
    # construct the typed configs now so invalid values fail at load (exit 2)
    try:
        model_cfg = ModelConfig(**resolved["model"])
        train_cfg = training.TrainConfig(**resolved["train"])
        task_spec = training.TaskSpec(**resolved["task"])
        gsot_cfg = gsot.GsotConfig(**resolved["gsot_cfg"])
        dyn_cfg = dynamics.EvolutionConfig(**resolved["dynamics"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    return resolved, model_cfg, train_cfg, task_spec, gsot_cfg, dyn_cfg


def _write_resolved(resolved):
    out_dir = resolved["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


# -- check: invariant suites --------------------------------------------------


def _check_temperature_bounds(model_cfg):
    rng = Rng(model_cfg.seed)
    for _ in range(50):
        params = ModelParams(model_cfg, rng=rng.spawn(int(rng.integers(0, 2 ** 31))))
        tokens = rng.integers(0, model_cfg.vocab_size, size=6)
        _, fields = model_forward(tokens, params)
        for f in fields:
            v = f.array()
            assert v.min() >= model_cfg.eps_min - 1e-15, f"field below {model_cfg.eps_min}"
            assert v.max() <= 1.0 - model_cfg.eps_min + 1e-15, "field above bound"


def _check_row_stochastic(model_cfg):
    rng = Rng(model_cfg.seed + 1)
    params = ModelParams(model_cfg)
    block = params.blocks[0]
    for _ in range(30):
        n = int(rng.integers(2, 10))
        x = Tensor(rng.normal((n, model_cfg.d_model)))
        base = attention_baseline(x, block.attn)
        field = compute_temperature(base.values, block.temp)
        for out in (base,
                    attention_temp_broadcast(base, block.attn, field),
                    attention_temp_outer(base, block.attn, field)):
            sums = out.weights.values.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-9, "attention row sum drift"


def _check_identity_reduction(model_cfg):
    rng = Rng(model_cfg.seed + 2)
    params = ModelParams(model_cfg)
    block = params.blocks[0]
    n = 6
    x = Tensor(rng.normal((n, model_cfg.d_model)))
    unit = TemperatureField(Tensor(np.ones((model_cfg.heads, n))),
                            model_cfg.eps_min, validate=False)
    base = attention_baseline(x, block.attn)
    for out in (attention_temp_broadcast(base, block.attn, unit),
                attention_temp_outer(base, block.attn, unit)):
        diff = np.abs(out.values.values - base.values.values).max()
        assert diff < 1e-12, f"unit field changed attention by {diff}"


def _check_schedule_bound(model_cfg):
    cfg = training.TrainConfig()
    for t in (1, 10, 100, 1000):
        for g in (0.0, 0.5, 1.0, 7.0):
            eta = training.lr_schedule(t, g, cfg)
            assert 0.0 < eta <= cfg.eta0 * cfg.clip_hi, "lr outside bound"
    etas = [training.lr_schedule(t, 1.0, cfg) for t in range(1, 400)]
    assert all(a >= b for a, b in zip(etas, etas[1:])), "lr not nonincreasing"


def _check_gsot_schedule(model_cfg):
    for n in (8, 12, 16):
        for K in (2, 3, 4):
            for k in range(1, K):
                assert gsot.schedule_target(n, K, k) <= (1 - k / K) * n


def _check_contraction(model_cfg):
    cfg = dynamics.EvolutionConfig(gain=0.9, max_iter=200, tolerance=1e-9)
    update = lambda f: dynamics.evolve_layer(f, None, None, cfg)
    L = dynamics.estimate_contraction(update, 50, seed=3)
    assert L <= 0.9 + 1e-9, f"estimated Lipschitz {L} exceeds the gain"


def _check_statistics(model_cfg):
    lo, hi = training.confidence_interval([1, 2, 3, 4, 5], 0.95)
    assert abs(lo - 1.0368) < 1e-3 and abs(hi - 4.9632) < 1e-3
    assert training.significance_label(0.003) == "strong"


CHECKS = {
    "temperature": [("temperature_bounds", _check_temperature_bounds)],
    "attention": [("row_stochastic", _check_row_stochastic),
                  ("identity_reduction", _check_identity_reduction)],
    "training": [("lr_schedule_bound", _check_schedule_bound),
                 ("statistics", _check_statistics)],
    "gsot": [("active_set_schedule", _check_gsot_schedule)],
    "dynamics": [("contraction", _check_contraction)],
}


def cmd_check(resolved, model_cfg, args):
    out_dir = _write_resolved(resolved)
    modules = [args.filter] if args.filter else sorted(CHECKS)
    if args.filter and args.filter not in CHECKS:
        raise ConfigError(f"--filter {args.filter!r}: no such module "
                          f"(have {sorted(CHECKS)})")
    report = {}
    failed = False
    for module in modules:
        for name, fn in CHECKS[module]:
            key = f"{module}.{name}"
            try:
                fn(model_cfg)
                report[key] = "pass"
            except AssertionError as exc:
                report[key] = f"fail: {exc}"
                failed = True
            print(f"{key}: {report[key]}")
    with open(os.path.join(out_dir, "check.report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_RUNTIME if failed else EXIT_OK


# -- gradcheck ----------------------------------------------------------------


def cmd_gradcheck(resolved, model_cfg, args):
    _write_resolved(resolved)
    eps = args.eps
    rng = Rng(resolved["seed"])
    cases = []

    x_small = Tensor(rng.normal((4, 5)))
    cases.append(("softmax_rows",
                  lambda x: softmax_rows(x).sum(), x_small, 1e-5))
    cases.append(("gelu", lambda x: gelu(x).sum(), x_small, 1e-5))
    cases.append(("squash", lambda x: squash(x, 0.01).sum(), x_small, 1e-5))
    gain = Tensor(rng.normal((5,)), requires_grad=True)
    bias = Tensor(rng.normal((5,)), requires_grad=True)
    cases.append(("layer_norm",
                  lambda x: layer_norm(x, gain, bias).sum(), x_small, 1e-5))
    w = Tensor(rng.normal((5, 3)), requires_grad=True)
    cases.append(("matmul", lambda x: (x @ w).sum(), x_small, 1e-5))

    toy = ModelConfig(d_model=8, heads=2, layers=2, d_ff=16, vocab_size=12,
                      d_c=4, seed=resolved["seed"], max_seq_len=8)
    params = ModelParams(toy)
    tokens = np.asarray([1, 2, 3, 4, 5])
    targets = np.asarray([2, 3, 4, 5, 6])
    mask = np.ones(5, dtype=bool)

    def model_loss(emb):
        from .model import forward_embedded
        logits, _, _ = forward_embedded(emb, params)
        return training.cross_entropy(logits, targets, mask)

    emb0 = Tensor(params.tok_emb.values[tokens].copy())
    cases.append(("full_model", model_loss, emb0, 1e-4))

    worst, failed_op = 0.0, None
    for name, fn, x0, threshold in cases:
        err = grad_check(fn, x0, eps=eps)
        status = "ok" if err < threshold else "FAIL"
        print(f"{name}: max relative error {err:.3e} (threshold {threshold:g}) {status}")
        if err >= threshold and failed_op is None:
            failed_op = name
        worst = max(worst, err)
    if failed_op is not None:
        print(f"gradient check failed at op {failed_op}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# -- train / sweep / gsot / bench / stats --------------------------------------


def cmd_train(resolved, model_cfg, train_cfg, task_spec, args):
    out_dir = _write_resolved(resolved)
    params = ModelParams(model_cfg)
    dataset = training.make_task(task_spec)
    history = training.train(params, dataset, train_cfg)
    history.to_csv(os.path.join(out_dir, "metrics.csv"))
    if history.aborted:
        print("training aborted on a non-finite value; last good parameters kept",
              file=sys.stderr)
        return EXIT_RUNTIME
    loss, acc = training.evaluate(params, dataset)
    print(f"steps={len(history.rows)} final_loss={loss:.6f} accuracy={acc:.4f}")
    return EXIT_OK


def cmd_sweep(resolved, model_cfg, train_cfg, task_spec, args):
    out_dir = _write_resolved(resolved)
    blk = resolved["sweep"]
    params = ModelParams(model_cfg)
    dataset = training.make_task(task_spec)
    t_star, curve = dynamics.temperature_sweep(
        lambda m: training.dataset_loss(params, dataset, m),
        blk["t_min"], blk["t_max"], blk["steps"], blk["log_spacing"])
    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write("step,value\n")
        for mult, loss in curve:
            fh.write(f"{mult!r},{loss!r}\n")
    print(f"t_star={t_star!r}")
    return EXIT_OK


def cmd_gsot(resolved, model_cfg, gsot_cfg, args):
    out_dir = _write_resolved(resolved)
    blk = resolved["gsot"]
    params = ModelParams(model_cfg)
    rng = Rng(resolved["seed"])
    seq = blk["sequence"]
    if seq is None:
        seq = [int(v) for v in
               rng.integers(0, model_cfg.vocab_size, size=blk["length"])]
    universe = gsot.build_universe(params, blk["hidden_count"], rng)
    try:
        probs, trace = gsot.gsot_pipeline(seq, universe, params, gsot_cfg)
    except gsot.EmptyPathError as exc:
        print(f"gsot failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    with open(os.path.join(out_dir, "trace.jsonl"), "w") as fh:
        fh.write(trace.to_jsonl())
    last = trace.steps[-1]
    print(f"steps={len(trace.steps)} active_primary={len(last.active_primary)} "
          f"active_hidden={len(last.active_hidden)} op_count={last.op_count} "
          f"failed={trace.failed}")
    return EXIT_OK


def bench_op_counts(blk, gsot_cfg, seed):
    """Final pipeline op counts over the benchmark length grid.

    Each length runs with a step budget of ceil(log2 n); tau thresholds come
    from the gsot config block.
    """
    counts = []
    for n in blk["lengths"]:
        cfg = ModelConfig(d_model=blk["d_model"], heads=blk["heads"],
                          layers=blk["layers"], d_ff=blk["d_ff"],
                          vocab_size=blk["vocab_size"], d_c=4, seed=seed,
                          max_seq_len=max(blk["lengths"]) + 1)
        params = ModelParams(cfg)
        rng = Rng(seed + n)
        universe = gsot.build_universe(params, blk["hidden_count"], rng)
        seq = [int(v) for v in rng.integers(0, cfg.vocab_size, size=n)]
        run_cfg = gsot.GsotConfig(theta=gsot_cfg.theta, tau_p=gsot_cfg.tau_p,
                                  tau_h=gsot_cfg.tau_h,
                                  tau_backtrack=gsot_cfg.tau_backtrack,
                                  K=max(2, math.ceil(math.log2(n))))
        _, trace = gsot.gsot_pipeline(seq, universe, params, run_cfg)
        counts.append((n, trace.steps[-1].op_count))
    return counts


def cmd_bench(resolved, model_cfg, gsot_cfg, args):
    out_dir = _write_resolved(resolved)
    blk = resolved["bench"]
    counts = bench_op_counts(blk, gsot_cfg, resolved["seed"])
    with open(os.path.join(out_dir, "complexity.csv"), "w") as fh:
        fh.write("n,ops\n")
        for n, ops in counts:
            fh.write(f"{n},{ops}\n")
    c, r2 = gsot.complexity_fit(counts)
    print(f"c={c!r} r_squared={r2!r} (published scaling ratio for reference: 0.98)")
    return EXIT_OK


def cmd_stats(resolved, args):
    out_dir = _write_resolved(resolved)
    blk = resolved["stats"]
    samples = blk["samples"]
    if blk["samples_file"] is not None:
        with open(blk["samples_file"]) as fh:
            samples = [float(line) for line in fh if line.strip()]
    lo, hi = training.confidence_interval(samples, blk["level"])
    doc = {"n": len(samples), "mean": float(np.mean(samples)),
           "level": blk["level"], "ci_low": lo, "ci_high": hi}
    if blk["p"] is not None:
        doc["p"] = blk["p"]
        doc["significance"] = training.significance_label(blk["p"])
    with open(os.path.join(out_dir, "stats.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"ci=[{lo!r}, {hi!r}]"
          + (f" significance={doc['significance']}" if blk["p"] is not None else ""))
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ttmlab",
        description="Token-temperature attention lab: experiments and checks.")
    parser.add_argument("--config", default=None, help="JSON run config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every seed in the config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--filter", default=None,
                        help="restrict `check` to one module's properties")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", help="run the invariant suites")
    grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    grad.add_argument("--eps", type=float, default=1e-5,
                      help="finite-difference step")
    sub.add_parser("train", help="train on the configured task")
    sub.add_parser("sweep", help="grid-search a global temperature multiplier")
    sub.add_parser("gsot", help="run the guided reasoning pipeline")
    sub.add_parser("bench", help="op-count scaling over sequence lengths")
    sub.add_parser("stats", help="confidence interval and significance label")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        resolved, model_cfg, train_cfg, task_spec, gsot_cfg, dyn_cfg = \
            load_config(args.config, seed=args.seed, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "check":
            return cmd_check(resolved, model_cfg, args)
        if args.command == "gradcheck":
            return cmd_gradcheck(resolved, model_cfg, args)
        if args.command == "train":
            return cmd_train(resolved, model_cfg, train_cfg, task_spec, args)
        if args.command == "sweep":
            return cmd_sweep(resolved, model_cfg, train_cfg, task_spec, args)
        if args.command == "gsot":
            return cmd_gsot(resolved, model_cfg, gsot_cfg, args)
        if args.command == "bench":
            return cmd_bench(resolved, model_cfg, gsot_cfg, args)
        if args.command == "stats":
            return cmd_stats(resolved, args)
        print(f"unknown command {args.command!r}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, ValueError, AssertionError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
