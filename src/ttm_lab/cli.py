"""Command-line entry point: experiments, checks, and CSV/JSON exports.

One binary with subcommands (check, gradcheck, train, sweep, gsot, bench,
stats). Configuration is a JSON document with one block per concern; unknown
keys are rejected, missing keys take documented defaults, and the resolved
config is echoed next to the artifacts. All artifacts are deterministic given
config + seed; exit codes are 0 (success), 1 (runtime/assertion failure),
2 (usage/config error).
"""

import argparse
import contextlib
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
from .temperature import compute_temperature, squash

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


# defaults for the blocks that are plain dicts rather than dataclasses
_SWEEP_DEFAULTS = {"t_min": 0.1, "t_max": 1.0, "steps": 10}
_GSOT_DEFAULTS = {"sequence": None, "length": 8, "hidden_count": 8}
_BENCH_DEFAULTS = {"lengths": [64, 128, 256, 512, 1024],
                   "d_model": 16, "heads": 1, "layers": 1, "d_ff": 512,
                   "vocab_size": 32, "hidden_count": 4}
_STATS_DEFAULTS = {"samples": [1.0, 2.0, 3.0, 4.0, 5.0], "level": 0.95,
                   "samples_file": None}


def _merge(defaults, given, block):
    if not isinstance(given, dict):
        raise ConfigError(f"block {block!r} must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in block {block!r}: {sorted(unknown)}")
    _check_numbers(defaults, given, f"{block}.")
    out = dict(defaults)
    out.update(given)
    return out


def _check_numbers(defaults, given, prefix):
    """A key whose default is an int, or a list of ints, takes only JSON
    integers: a float would be truncated or fail mid-run. A key whose default
    is a float takes only JSON numbers. In both, true or false would pass as
    1 or 0."""
    for key, value in given.items():
        default = defaults[key]
        if type(default) is float:
            values, kinds, what = [value], (int, float), "numbers"
        elif type(default) is int:
            values, kinds, what = [value], (int,), "integers"
        elif isinstance(default, list) and isinstance(value, list) \
                and all(type(d) is int for d in default):
            values, kinds, what = value, (int,), "integers"
        else:
            continue
        bad = [v for v in values if type(v) not in kinds]
        if bad:
            raise ConfigError(f"{prefix}{key} takes {what}, got {bad[0]!r}")


def _dataclass_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)}


_BLOCKS = {
    "model": lambda: _dataclass_defaults(ModelConfig),
    "train": lambda: _dataclass_defaults(training.TrainConfig),
    "task": lambda: _dataclass_defaults(training.TaskSpec),
    "gsot_cfg": lambda: _dataclass_defaults(gsot.GsotConfig),
    "sweep": lambda: dict(_SWEEP_DEFAULTS),
    "gsot": lambda: dict(_GSOT_DEFAULTS),
    "bench": lambda: dict(_BENCH_DEFAULTS),
    "stats": lambda: dict(_STATS_DEFAULTS),
}


def _check_plain_blocks(resolved, model_cfg, gsot_given):
    """Reject values of the plain-dict blocks that no run can use.

    Where a library function already checks a value, it is called here on a
    stand-in input, so that each rule is stated once. `gsot_given` is the
    gsot block as the config file states it.
    """
    sweep = resolved["sweep"]
    dynamics.temperature_sweep(lambda m: 0.0, sweep["t_min"], sweep["t_max"],
                               sweep["steps"])
    blk = resolved["gsot"]
    seq = blk["sequence"]
    n = blk["length"] if seq is None else \
        len(gsot.check_sequence(seq, model_cfg.vocab_size))
    if n < 1:
        raise ValueError(f"gsot sequence length {n} must be >= 1")
    # only a length the file sets must fit the model: the default one must
    # not fail a train run of a model with a shorter context
    if n > model_cfg.max_seq_len and {"sequence", "length"} & set(gsot_given):
        raise ValueError(f"gsot sequence length {n} exceeds max_seq_len "
                         f"{model_cfg.max_seq_len}")
    for name in ("gsot", "bench"):
        if resolved[name]["hidden_count"] < 1:
            raise ValueError(f"{name}.hidden_count must be >= 1")
    bench = resolved["bench"]
    gsot.complexity_fit([(length, 1.0) for length in bench["lengths"]])
    # a 1-token sequence has nothing to keep after the first scheduled step
    if min(bench["lengths"]) < 2:
        raise ValueError("bench.lengths must all be >= 2")
    _bench_model_config(bench, resolved["seed"])
    stats = resolved["stats"]
    if stats["level"] not in training.LEVELS:
        raise ValueError(f"stats.level must be one of {list(training.LEVELS)}")
    path = stats["samples_file"]
    if path is None:
        if any(type(v) not in (int, float) for v in stats["samples"]):
            raise ValueError("stats.samples must all be JSON numbers")
        training.confidence_interval(stats["samples"], stats["level"])
    elif type(path) is not str or not path:
        # open() would take an integer as a file descriptor
        raise ValueError(f"stats.samples_file must be null or a non-empty "
                         f"string, got {path!r}")


def _check_output_dir(value, name):
    """value, if it is a non-empty string; otherwise ConfigError naming
    where it came from."""
    if type(value) is not str or not value:
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    return value


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
    _check_numbers({"seed": 0}, {"seed": resolved["seed"]}, "")
    _check_output_dir(resolved["output_dir"], "output_dir")
    if out is not None:
        resolved["output_dir"] = _check_output_dir(out, "--out")
    for name, factory in _BLOCKS.items():
        resolved[name] = _merge(factory(), doc.get(name, {}), name)
    if seed is not None:
        resolved["seed"] = seed
        for block in ("model", "train", "task"):
            resolved[block]["seed"] = seed
    # construct the typed configs now so invalid values fail at load (exit 2)
    try:
        model_cfg = ModelConfig(**resolved["model"])
        train_cfg = training.TrainConfig(**resolved["train"])
        task_spec = training.TaskSpec(**resolved["task"])
        gsot_cfg = gsot.GsotConfig(**resolved["gsot_cfg"])
        _check_plain_blocks(resolved, model_cfg, doc.get("gsot", {}))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc))
    return resolved, model_cfg, train_cfg, task_spec, gsot_cfg


def _write_resolved(resolved):
    out_dir = resolved["output_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"cannot make output directory {out_dir}: {exc}")
    with _artifact(out_dir, "config.resolved.json") as path, \
            open(path, "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


@contextlib.contextmanager
def _artifact(out_dir, name):
    """The path of the artifact `name` in out_dir; an OSError from writing it
    (a directory at that path, say) becomes a ConfigError."""
    path = os.path.join(out_dir, name)
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


# -- check: invariant suites --------------------------------------------------


def _check_temperature_bounds(model_cfg):
    rng = Rng(model_cfg.seed)
    for _ in range(50):
        params = ModelParams(model_cfg, rng=rng.spawn(int(rng.integers(0, 2 ** 31))))
        tokens = rng.integers(0, model_cfg.vocab_size, size=6)
        _, fields = model_forward(tokens, params)
        for f in fields:
            v = f.values
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
    unit = Tensor(np.ones((model_cfg.heads, n)))
    base = attention_baseline(x, block.attn)
    for out in (attention_temp_broadcast(base, block.attn, unit),
                attention_temp_outer(base, block.attn, unit)):
        diff = np.abs(out.values.values - base.values.values).max()
        assert diff < 1e-12, f"unit field changed attention by {diff}"


def _check_schedule_bound(model_cfg):
    cfg = training.TrainConfig()
    etas = [training.lr_schedule(t, cfg) for t in range(1, 1001)]
    assert all(0.0 < eta <= cfg.eta0 for eta in etas), "lr outside bound"
    assert all(a >= b for a, b in zip(etas, etas[1:])), "lr not nonincreasing"


def _check_gsot_schedule(model_cfg):
    for n in (8, 12, 16):
        for K in (2, 3, 4):
            for k in range(1, K):
                assert gsot.schedule_target(n, K, k) <= (1 - k / K) * n


def _check_contraction(model_cfg):
    update = lambda f: dynamics.evolve_layer(f, 0.9)
    L = dynamics.estimate_contraction(update, 50, seed=3)
    assert L <= 0.9 + 1e-9, f"estimated Lipschitz {L} exceeds the gain"


def _check_statistics(model_cfg):
    lo, hi = training.confidence_interval([1, 2, 3, 4, 5], 0.95)
    assert abs(lo - 1.0368) < 1e-3 and abs(hi - 4.9632) < 1e-3
    assert training.significance_label(0.003) == "strong"
    assert abs(training.t_quantile(0.95, 121) - 1.97976) < 1e-5
    assert abs(training.t_test_p([1, 2, 3, 4, 5]) - 0.0132356) < 1e-7


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
    modules = [args.filter] if args.filter else sorted(CHECKS)
    if args.filter and args.filter not in CHECKS:
        raise ConfigError(f"--filter {args.filter!r}: no such module "
                          f"(have {sorted(CHECKS)})")
    out_dir = _write_resolved(resolved)
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
    with _artifact(out_dir, "check.report.json") as path, \
            open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_RUNTIME if failed else EXIT_OK


# -- gradcheck ----------------------------------------------------------------


def cmd_gradcheck(resolved, model_cfg, args):
    eps = args.eps
    try:
        # grad_check states the range of eps; a stand-in call applies it
        grad_check(lambda x: x.sum(), Tensor([0.0]), eps=eps)
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}")
    _write_resolved(resolved)
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


def _model_and_task(resolved, model_cfg, spec):
    """Output directory, fresh parameters and dataset of a train or sweep run.
    A task whose ids or length the model cannot take is a config error here,
    not at load: a gsot run ignores the task block."""
    vocab = training.ARITH_VOCAB if spec.kind == "arithmetic_chain" \
        else spec.alphabet
    if vocab > model_cfg.vocab_size or spec.length > model_cfg.max_seq_len:
        raise ConfigError(f"task needs vocab_size >= {vocab} and max_seq_len "
                          f">= {spec.length}, the model has "
                          f"{model_cfg.vocab_size} and {model_cfg.max_seq_len}")
    return (_write_resolved(resolved), ModelParams(model_cfg),
            training.make_task(spec))


def cmd_train(resolved, model_cfg, train_cfg, task_spec, args):
    out_dir, params, dataset = _model_and_task(resolved, model_cfg, task_spec)
    history = training.train(params, dataset, train_cfg)
    with _artifact(out_dir, "metrics.csv") as path:
        history.to_csv(path)
    if history.aborted:
        print("training aborted on a non-finite value; last good parameters kept",
              file=sys.stderr)
        return EXIT_RUNTIME
    loss, acc = training.evaluate(params, dataset)
    print(f"steps={len(history.rows)} final_loss={loss:.6f} accuracy={acc:.4f}")
    return EXIT_OK


def cmd_sweep(resolved, model_cfg, train_cfg, task_spec, args):
    out_dir, params, dataset = _model_and_task(resolved, model_cfg, task_spec)
    blk = resolved["sweep"]
    t_star, curve = dynamics.temperature_sweep(
        lambda m: training.dataset_loss(params, dataset, m),
        blk["t_min"], blk["t_max"], blk["steps"])
    with _artifact(out_dir, "sweep.csv") as path, open(path, "w") as fh:
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
    with _artifact(out_dir, "trace.jsonl") as path, open(path, "w") as fh:
        fh.write(trace.to_jsonl())
    last = trace.steps[-1]
    print(f"steps={len(trace.steps)} active_primary={len(last.active_primary)} "
          f"active_hidden={len(last.active_hidden)} op_count={last.op_count} "
          f"failed={trace.failed}")
    return EXIT_OK


def _bench_model_config(blk, seed):
    return ModelConfig(d_model=blk["d_model"], heads=blk["heads"],
                       layers=blk["layers"], d_ff=blk["d_ff"],
                       vocab_size=blk["vocab_size"], d_c=4, seed=seed,
                       max_seq_len=max(blk["lengths"]) + 1)


def bench_op_counts(blk, gsot_cfg, seed):
    """Final pipeline op counts over the benchmark length grid.

    Each length runs with a step budget of ceil(log2 n); tau thresholds come
    from the gsot config block.
    """
    cfg = _bench_model_config(blk, seed)
    params = ModelParams(cfg)
    counts = []
    for n in blk["lengths"]:
        rng = Rng(seed + n)
        universe = gsot.build_universe(params, blk["hidden_count"], rng)
        seq = [int(v) for v in rng.integers(0, cfg.vocab_size, size=n)]
        run_cfg = dataclasses.replace(gsot_cfg,
                                      K=max(2, math.ceil(math.log2(n))))
        _, trace = gsot.gsot_pipeline(seq, universe, params, run_cfg)
        counts.append((n, trace.steps[-1].op_count))
    return counts


def cmd_bench(resolved, model_cfg, gsot_cfg, args):
    out_dir = _write_resolved(resolved)
    blk = resolved["bench"]
    counts = bench_op_counts(blk, gsot_cfg, resolved["seed"])
    with _artifact(out_dir, "complexity.csv") as path, open(path, "w") as fh:
        fh.write("n,ops\n")
        for n, ops in counts:
            fh.write(f"{n},{ops}\n")
    c, r2 = gsot.complexity_fit(counts)
    print(f"c={c!r} r_squared={r2!r} (published scaling ratio for reference: 0.98)")
    return EXIT_OK


def cmd_stats(resolved, args):
    blk = resolved["stats"]
    samples, path = blk["samples"], blk["samples_file"]
    try:
        if path is not None:
            with open(path) as fh:
                samples = [float(line) for line in fh if line.strip()]
        samples = np.asarray(samples, dtype=np.float64)
        lo, hi = training.confidence_interval(samples, blk["level"])
    except (OSError, ValueError) as exc:
        # load_config checked the inline samples, so only a file fails here
        raise ConfigError(f"cannot use samples_file {path}: {exc}")
    out_dir = _write_resolved(resolved)
    p = training.t_test_p(samples)
    doc = {"n": samples.size, "mean": training.sample_mean(samples),
           "level": blk["level"], "ci_low": lo, "ci_high": hi, "p": p,
           "significance": training.significance_label(p)}
    with _artifact(out_dir, "stats.json") as path, open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"ci=[{lo!r}, {hi!r}] p={p!r} significance={doc['significance']}")
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
    sub.add_parser("stats", help="confidence interval and t-test p-value")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        resolved, model_cfg, train_cfg, task_spec, gsot_cfg = load_config(
            args.config, seed=args.seed, out=args.out)
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
        return cmd_stats(resolved, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, ValueError, AssertionError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
