"""ttm-lab benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload train_arith --seed 1 --seconds 30 --trace 0

One client issues ops back to back with no think time, in one Python thread
with BLAS pinned to one thread. `--trace 0` measures the end-to-end metrics;
`--trace 1` installs the per-layer wrappers on every other round, reports
per-layer medians per op, the traced-vs-untraced gap, and times the
`ttmlab bench` gsot grid with the wrappers removed. Human-readable lines come
first; the last line of standard output is the JSON result. The environment,
every op and (when tracing) every span are written under perfbench/results/.

Every op's output is checked; `fail_ratio` is `failed / attempted` in the
result. Times are reported at one fixed machine speed: the reference kernel in
workloads.py runs just before and just after each op, and the op's wall time
is multiplied by workloads.speed_factor() of those two kernel times.
Co-tenants on a shared host otherwise move these figures by up to 1.7x from
one run to the next. The unscaled figures are printed too.

Only the standard library is imported at module level: the BLAS thread
variables must be set before numpy is first imported.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

MIN_OPS = 100        # p90 then has at least 10 samples beyond it
MAX_LOOP_S = 140.0   # a run must end within 180 s
SETUP_PROBES = 5
SELF_TIME_TOLERANCE_PCT = 1.0
# warm-up instance arguments and rounds; warm-up ops are never recorded
WARMUP = {"train_arith": ({}, 3), "sweep_eval": ({"examples": 8}, 1),
          "gsot_long": ({}, 2)}

END_TO_END_UNITS = {"op_ms.p50": "ms", "op_ms.p90": "ms",
                    "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> span name whose outermost (inclusive) time it reports
INCLUSIVE_MS = {
    "numerics.backward_ms": "numerics.backward",
    "numerics.gelu_ms": "numerics.gelu",
    "numerics.softmax_ms": "numerics.softmax",
    "numerics.layer_norm_ms": "numerics.layer_norm",
    "attention.baseline_ms": "attention.baseline",
    "attention.modulated_ms": "attention.modulated",
    "temperature.field_ms": "temperature.field",
    "model.forward_ms": "model.forward",
    "temperature.collapse_ms": "temperature.collapse",
    "training.cross_entropy_ms": "training.cross_entropy",
    "gsot.hidden_ms": "gsot.hidden",
    "gsot.head_ms": "gsot.head",
}
# per-layer metric -> span name whose self time it reports
SELF_MS = {
    "model.block_self_ms": "model.block",
    "training.update_ms": "training.train",
    "gsot.self_ms": "gsot.pipeline",
}
# per-layer metric -> wrap target it needs
COUNTED = {
    "numerics.tape_nodes": "numerics.Tensor.__init__",
    "numerics.checked_tensors": "numerics.Tensor.__init__(check=)",
    "gsot.forward_calls": "gsot.forward_embedded",
    "gsot.tokens_forwarded": "gsot.forward_embedded",
}
MEASURED = {"model.param_grad_ratio": "ratio", "gsot.kept_ratio": "ratio",
            "gsot.hidden_admit_ratio": "ratio", "gsot.macs": "count"}


def pin_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def git_commit(root):
    """HEAD's commit from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def environment(root, seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": git_commit(root),
        "seed": seed,
    }


def setup_seconds(root, workload, seed):
    """Median of SETUP_PROBES set-ups, each in a fresh interpreter and
    scaled to the reference speed; also returns the raw (s, kernel ms)."""
    probe = os.path.join(root, "perfbench", "setup_probe.py")
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload, str(seed)],
                              capture_output=True, text=True, timeout=60,
                              check=True, cwd=root)
        seconds, ref_ms = done.stdout.split()
        samples.append((float(seconds), float(ref_ms)))
    from workloads import speed_factor
    return statistics.median(s * speed_factor(r) for s, r in samples), samples


def run_rounds(wl, rec, seconds, min_ops, tracer=None, max_rounds=None):
    """Closed loop: rounds back to back until `seconds` have passed and
    `min_ops` ops are recorded (or `max_rounds` rounds, when given). With a
    tracer, odd rounds run with its wrappers installed. Returns wall seconds."""
    start = perf_counter()
    rounds = 0
    while True:
        elapsed = perf_counter() - start
        if max_rounds is not None:
            if rounds >= max_rounds:
                break
        elif (elapsed >= seconds and len(rec.ops) >= min_ops) \
                or elapsed >= MAX_LOOP_S:
            break
        rec.traced = tracer is not None and rounds % 2 == 1
        if rec.traced:
            tracer.install()
        try:
            wl.round(rec)
        finally:
            if rec.traced:
                tracer.uninstall()
        rounds += 1
    return perf_counter() - start


def end_to_end(ops, setup_s, scaled=True):
    """Latency percentiles and throughput over the ops' own time, at the
    reference speed (or as measured, with scaled=False)."""
    ms = [op.ms * (op.speed if scaled else 1.0) for op in ops]
    return {
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[-1],
        "items_per_s": sum(op.items for op in ops if op.ok) / sum(ms) * 1e3,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(ops, tracer, grid):
    """Per-layer metrics: medians per traced op, plus the timed grid.

    Returns (metrics {name: (value, unit)}, list of missing metric names)."""
    import tracer as tr
    from ttm_lab import gsot

    median = statistics.median
    traced = [(i, op) for i, op in enumerate(ops) if op.traced]
    plain = [op.ms * op.speed for op in ops if not op.traced]
    breakdown = tr.op_breakdown(tracer.spans)
    names = tracer.span_names()
    out, missing = {}, []

    def per_op(fn):
        return median(fn(i, op) for i, op in traced)

    # span seconds -> ms at the reference speed
    for metric, span in INCLUSIVE_MS.items():
        if span not in names:
            missing.append(metric)
            continue
        out[metric] = (per_op(lambda i, op: breakdown[i]["incl"][span]
                              * 1e3 * op.speed), "ms")
    for metric, span in SELF_MS.items():
        if span not in names:
            missing.append(metric)
            continue
        out[metric] = (per_op(lambda i, op: breakdown[i]["self"][span]
                              * 1e3 * op.speed), "ms")
    if "dynamics.sweep" in names:
        speed = median(op.speed for _, op in traced)
        shares = tr.self_share_per_op(tracer.spans, "dynamics.sweep")
        out["dynamics.sweep_self_ms"] = (
            median(shares) * 1e3 * speed if shares else 0.0, "ms")
    else:
        missing.append("dynamics.sweep_self_ms")
    for metric, target in COUNTED.items():
        if target in tracer.missing:
            missing.append(metric)
            continue
        out[metric] = (per_op(lambda i, op: op.counts.get(metric, 0)), "count")
    for metric, unit in MEASURED.items():
        out[metric] = (per_op(lambda i, op: op.extra.get(metric, 0)), unit)

    traced_p50 = per_op(lambda i, op: op.ms * op.speed)
    out["bench.traced_op_ms"] = (traced_p50, "ms")
    out["bench.trace_overhead_pct"] = ((traced_p50 / median(plain) - 1) * 100,
                                       "%")
    gap = per_op(lambda i, op: abs(op.ms - sum(breakdown[i]["self"].values())
                                   * 1e3) / op.ms * 100)
    out["bench.self_time_gap_pct"] = (gap, "%")

    for n, (ms, macs, _) in grid.items():
        out[f"gsot.grid_ms.n{n}"] = (ms, "ms")
        out[f"gsot.grid_macs.n{n}"] = (macs, "count")
    _, r2 = gsot.complexity_fit([(n, ms) for n, (ms, _, _) in grid.items()])
    out["gsot.grid_ms_nlogn_r2"] = (r2, "ratio")
    return out, missing


def main(argv=None):
    pin_threads()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "ttm_lab", "__init__.py")):
        print(f"perfbench: no ttm_lab sources under {root}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WARMUP))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    setup_s, setup_samples = None, None
    if not args.trace:
        setup_s, setup_samples = setup_seconds(root, args.workload, args.seed)

    from workloads import WORKLOADS, Recorder, gsot_grid
    make = WORKLOADS[args.workload]
    warm_kwargs, warm_rounds = WARMUP[args.workload]
    run_rounds(make(args.seed, **warm_kwargs), Recorder(), 0, 0,
               max_rounds=warm_rounds)

    wl = make(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    rec = Recorder(tracer)
    loop_s = run_rounds(wl, rec, args.seconds, MIN_OPS, tracer)
    ops = rec.ops
    failed = sum(not op.ok for op in ops)
    correct = failed == 0
    for err in rec.errors[:3]:
        print(err, file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops in {loop_s:.2f} s, one closed-loop client")
    env = environment(root, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"fail_ratio {failed / len(ops):.6g} ({failed}/{len(ops)} ops)")

    missing = []
    if args.trace:
        restored = tracer.originals_restored()
        grid = gsot_grid(args.seed)
        metrics, missing = per_layer(ops, tracer, grid)
        grid_ok = all(ok for _, _, ok in grid.values())
        gap = metrics["bench.self_time_gap_pct"][0]
        correct = (correct and restored and grid_ok
                   and gap <= SELF_TIME_TOLERANCE_PCT)
        print(f"traced {sum(op.traced for op in ops)} of {len(ops)} ops; "
              f"wrappers removed: {restored}; grid outputs ok: {grid_ok}; "
              f"self times account for the traced op time within {gap:.3f}% "
              f"(tolerance {SELF_TIME_TOLERANCE_PCT}%)")
        if tracer.missing:
            print("wrap targets missing: " + ", ".join(tracer.missing))
        if missing:
            print("metrics missing: " + ", ".join(missing))
    else:
        values = end_to_end(ops, setup_s)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        raw = end_to_end(ops, statistics.median(s for s, _ in setup_samples),
                         scaled=False)
        print(f"speed factor median "
              f"{statistics.median(op.speed for op in ops):.4g} "
              f"(times are multiplied by it); unscaled: "
              + ", ".join(f"{k} {raw[k]:.6g}" for k in
                          ("op_ms.p50", "op_ms.p90", "items_per_s", "setup_s")))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    out_dir = os.path.join(root, "perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "args": vars(args), "loop_s": loop_s,
                   "setup_samples": setup_samples, "missing": missing,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "ops": [{"ms": op.ms, "ok": op.ok, "traced": op.traced,
                            "speed": op.speed,
                            "items": op.items, "counts": op.counts,
                            "extra": op.extra} for op in ops]}, fh)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
