import json
import os
import pathlib
import subprocess
import sys

import pytest

import ttm_lab
from ttm_lab import cli
from ttm_lab.cli import EXIT_OK, EXIT_USAGE, load_config, main
from ttm_lab.model import ModelParams


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, command, doc=None, extra=(), sub="run"):
    out = tmp_path / sub
    argv = ["--out", str(out)]
    if doc is not None:
        argv += ["--config", write_config(tmp_path, doc, f"{sub}.json")]
    argv += list(extra) + [command]
    return main(argv), out


SMALL_MODEL = {"d_model": 8, "heads": 2, "layers": 1, "d_ff": 16,
               "vocab_size": 12, "d_c": 4, "max_seq_len": 8}


class TestConfigLoading:
    def test_defaults_without_file(self):
        resolved, model_cfg, train_cfg, task_spec, gsot_cfg = load_config(None)
        assert resolved["seed"] == 0
        assert resolved["output_dir"] == "out"
        assert model_cfg.d_model == resolved["model"]["d_model"]
        assert train_cfg.steps == resolved["train"]["steps"]

    def test_unknown_top_level_key_rejected(self, tmp_path):
        code, _ = run(tmp_path, "check", {"optimizer": {}})
        assert code == EXIT_USAGE

    def test_unknown_block_key_rejected(self, tmp_path):
        code, _ = run(tmp_path, "check", {"model": {"n_heads": 2}})
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("block,key", [("model", "dropout"),
                                           ("model", "temp_init_mean"),
                                           ("model", "blend_alpha"),
                                           ("gsot_cfg", "max_paths"),
                                           ("sweep", "log_spacing"),
                                           ("stats", "p"),
                                           ("train", "clip_lo"),
                                           ("train", "clip_hi"),
                                           ("train", "lambda_S"),
                                           ("train", "spike_factor"),
                                           ("train", "collapse_fraction"),
                                           ("train", "collapse_eps")])
    def test_removed_keys_rejected(self, tmp_path, capsys, block, key):
        code, out = run(tmp_path, "check", {block: {key: 1}})
        assert code == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_removed_dynamics_block_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check", {"dynamics": {"gain": 5.0}})
        assert code == EXIT_USAGE
        assert "dynamics" in capsys.readouterr().err

    def test_default_gsot_length_needs_no_long_context(self, tmp_path):
        # only a gsot length the file sets must fit max_seq_len
        model = dict(SMALL_MODEL, max_seq_len=4)
        code, _ = run(tmp_path, "stats", {"model": model})
        assert code == EXIT_OK

    @pytest.mark.parametrize("under", [False, True],
                             ids=["file", "under-file"])
    def test_out_at_a_file_exits_usage(self, tmp_path, capsys, under):
        # makedirs raised FileExistsError or NotADirectoryError uncaught
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept\n")
        out = blocker / "run" if under else blocker
        code = main(["--out", str(out), "check"])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert blocker.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    @pytest.mark.parametrize("command,artifact",
                             [("check", "config.resolved.json"),
                              ("train", "metrics.csv")])
    def test_artifact_at_a_directory_exits_usage(self, tmp_path, capsys,
                                                  command, artifact):
        # open() raised IsADirectoryError uncaught
        (tmp_path / "run" / artifact).mkdir(parents=True)
        doc = {"model": SMALL_MODEL, "train": {"steps": 2, "batch": 2},
               "task": {"length": 4, "alphabet": 8, "count": 4}}
        code, _ = run(tmp_path, command, doc)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error: cannot write ")
        assert artifact in err[0]

    def test_invalid_value_rejected_at_load(self, tmp_path):
        code, _ = run(tmp_path, "check", {"model": {"eps_min": 0.6}})
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("doc", [
        {"model": {"heads": 0}},
        {"model": {"d_model": 0}},
        {"model": {"d_ff": 0}},
        {"model": {"max_seq_len": -1}},
        {"model": {"max_seq_len": 0}},
        {"model": {"d_c": -1}},
        {"train": {"batch": 0}},
        {"train": {"steps": -1}},
        {"train": {"t0": -5}},
        {"train": {"t0": 0}},
        {"task": {"count": 0}},
        {"task": {"length": 0}},
        {"task": {"kind": "arithmetic_chain", "length": 1}},
        {"task": {"kind": "arithmetic_chain", "length": 3, "count": 17}},
        {"gsot": {"sequence": [1, 2, 100]}},
        {"gsot": {"sequence": [-1, 2]}},
        {"gsot": {"sequence": [1.5, 2]}},
        {"gsot": {"sequence": [[1, 2], [3, 4]]}},
        {"gsot": {"sequence": [True, 2, 3]}},
        {"gsot": {"length": 0}},
        {"gsot": {"length": 100}},
        {"gsot": {"hidden_count": 0}},
        {"sweep": {"steps": 1}},
        {"sweep": {"t_min": 2.0}},
        {"stats": {"level": 0.5}},
        {"stats": {"samples": [1.0]}},
        {"stats": {"samples": [1, 2, "nan"]}},
        {"stats": {"samples": [1, True, 2]}},
        {"stats": {"samples": [1, 2, 1.7e308, -1.7e308]}},
        {"bench": {"lengths": [64, 128]}},
        {"bench": {"lengths": [1, 2, 3, 4]}},
        {"bench": {"heads": 3}},
        {"model": 5},
        {"model": {"d_model": 32.0}},
        {"train": {"steps": 2.5}},
        {"train": {"steps": True}},
        {"task": {"count": 4.5}},
        {"gsot": {"length": 8.5}},
        {"gsot": {"hidden_count": 2.5}},
        {"bench": {"lengths": [64.5, 128, 256, 512, 1024]}},
        {"seed": 1.5},
        {"train": {"eta0": True, "steps": 2}},
        {"train": {"lambda_T": False}},
        {"train": {"eta0": float("nan")}},
        {"train": {"eta0": float("inf")}},
        {"train": {"eta0_temp": float("inf")}},
        {"train": {"lambda_T": float("nan")}},
        {"train": {"weight_decay": float("nan")}},
        {"train": {"weight_decay": -5.0}},
        {"train": {"collapse_eps": 0.7}},
        {"train": {"collapse_eps": 0}},
        {"sweep": {"t_max": True}},
        {"output_dir": None},
        {"output_dir": 5},
        {"output_dir": ["a"]},
        {"output_dir": ""},
    ], ids=["heads-0", "d_model-0", "d_ff-0", "max_seq_len-negative",
            "max_seq_len-0", "d_c-negative", "batch-0", "steps-negative",
            "t0-negative", "t0-0",
            "count-0", "length-0", "arith-length-1", "arith-count-unfillable",
            "gsot-id-100", "gsot-id-negative", "gsot-id-float",
            "gsot-sequence-nested", "gsot-id-bool-among-ints",
            "gsot-length-0",
            "gsot-length-over-max_seq_len", "gsot-hidden_count-0",
            "sweep-steps-1", "sweep-t_min-above-t_max", "stats-level-0.5",
            "stats-one-sample", "stats-sample-string", "stats-sample-bool",
            "stats-std-overflow",
            "bench-two-lengths", "bench-length-1",
            "bench-heads-not-dividing-d_model", "block-not-an-object",
            "d_model-32.0", "steps-2.5", "steps-true", "count-4.5",
            "gsot-length-8.5", "gsot-hidden_count-2.5", "bench-length-64.5",
            "seed-1.5", "eta0-true", "lambda_T-false", "eta0-nan",
            "eta0-inf", "eta0_temp-inf", "lambda_T-nan", "weight_decay-nan",
            "weight_decay-negative", "collapse_eps-0.7", "collapse_eps-0",
            "t_max-true",
            "output_dir-null", "output_dir-5", "output_dir-list",
            "output_dir-empty"])
    def test_bad_value_exits_usage(self, tmp_path, capsys, doc):
        code, out = run(tmp_path, "check", doc)
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "gsot"])
    @pytest.mark.parametrize("value", ["-0.5", "NaN", "Infinity", "1e400",
                                       "1e308", "4.5e307"])
    def test_bad_temp_init_std_exits_usage(self, tmp_path, capsys, command,
                                           value):
        # each passed config loading and died drawing the init (exit 1); a
        # finite value whose logit draws overflow did so too
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"temp_init_std": %s}}' % value)
        out = tmp_path / "run"
        code = main(["--out", str(out), "--config", str(path), command])
        assert code == EXIT_USAGE
        assert "temp_init_std" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "1.0\nabc\n", "1.0\n",
                                      "1.0\nnan\n2.0\n", "1.0\ninf\n",
                                      "1e308\n-1e308\n"],
                             ids=["missing", "non-numeric", "one-number",
                                  "nan", "inf", "std-overflow"])
    def test_bad_samples_file_exits_usage(self, tmp_path, capsys, text):
        sf = tmp_path / "samples.txt"
        if text is not None:
            sf.write_text(text)
        code, out = run(tmp_path, "stats", {"stats": {"samples_file": str(sf)}})
        assert code == EXIT_USAGE
        assert "samples_file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", [0, 1.5, ["samples.txt"]],
                             ids=["int", "float", "list"])
    def test_samples_file_not_a_path_exits_usage(self, tmp_path, path):
        # an integer would reach open() as a file descriptor: 0 reads stdin
        out = tmp_path / "run"
        src = pathlib.Path(ttm_lab.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "ttm_lab.cli", "--out", str(out),
             "--config", write_config(tmp_path, {"stats": {"samples_file": path}}),
             "stats"],
            input="1\n2\n3\n", capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == EXIT_USAGE
        assert "samples_file" in proc.stderr
        assert not out.exists()

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "check"]) == EXIT_USAGE

    def test_missing_file_rejected(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "check"]) == EXIT_USAGE

    def test_empty_out_flag_exits_usage(self, tmp_path, monkeypatch, capsys):
        # the flag is held to the rule of the file's output_dir, before
        # anything is written
        monkeypatch.chdir(tmp_path)
        assert main(["--out", "", "stats"]) == EXIT_USAGE
        assert "--out must be a non-empty string" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_seed_flag_overrides_block_seeds(self, tmp_path):
        path = write_config(tmp_path, {"seed": 3, "model": {"seed": 4}})
        resolved, model_cfg, train_cfg, task_spec, _ = load_config(path, seed=11)
        assert resolved["seed"] == 11
        assert model_cfg.seed == 11 and train_cfg.seed == 11
        assert task_spec.seed == 11

    def test_resolved_config_echoed(self, tmp_path):
        code, out = run(tmp_path, "stats", {"model": SMALL_MODEL})
        assert code == EXIT_OK
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["model"]["d_model"] == 8
        assert set(resolved) >= {"model", "train", "task", "sweep", "gsot",
                                 "bench", "stats", "seed", "output_dir"}


class TestCheck:
    def test_all_suites_pass(self, tmp_path, capsys):
        code, out = run(tmp_path, "check", {"model": SMALL_MODEL})
        assert code == EXIT_OK
        report = json.loads((out / "check.report.json").read_text())
        assert report and all(v == "pass" for v in report.values())
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == len(report)

    def test_filter_restricts_modules(self, tmp_path):
        code, out = run(tmp_path, "check", {"model": SMALL_MODEL},
                        extra=["--filter", "attention"])
        assert code == EXIT_OK
        report = json.loads((out / "check.report.json").read_text())
        assert set(report) == {"attention.row_stochastic",
                               "attention.identity_reduction"}

    def test_unknown_filter_is_usage_error(self, tmp_path):
        code, out = run(tmp_path, "check", {"model": SMALL_MODEL},
                        extra=["--filter", "quantum"])
        assert code == EXIT_USAGE
        assert not out.exists()


class TestGradcheck:
    def test_passes_at_default_eps(self, tmp_path, capsys):
        code, _ = run(tmp_path, "gradcheck")
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "full_model" in text and "FAIL" not in text

    @pytest.mark.parametrize("eps", ["1", "nan", "1e-8"])
    def test_eps_outside_range_exits_usage(self, tmp_path, capsys, eps):
        out = tmp_path / "run"
        code = main(["--out", str(out), "gradcheck", "--eps", eps])
        assert code == EXIT_USAGE
        assert "eps" in capsys.readouterr().err
        assert not out.exists()


class TestTaskFitsModel:
    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("task", [
        {"kind": "copy", "alphabet": 16},
        {"kind": "reverse", "alphabet": 13},
        {"kind": "arithmetic_chain", "length": 6},
        {"kind": "copy", "alphabet": 10, "length": 12},
    ], ids=["copy-alphabet-above-vocab", "reverse-alphabet-above-vocab",
            "arithmetic-below-ARITH_VOCAB", "length-above-max_seq_len"])
    def test_mismatch_exits_usage_before_any_step(self, tmp_path, capsys,
                                                  command, task):
        doc = {"model": SMALL_MODEL,
               "task": dict({"length": 4, "count": 4}, **task),
               "train": {"steps": 2, "batch": 2}, "sweep": {"steps": 2}}
        code, out = run(tmp_path, command, doc)
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_alphabet_equal_to_vocab_runs(self, tmp_path):
        doc = {"model": SMALL_MODEL,
               "task": {"kind": "copy", "alphabet": 12, "length": 8,
                        "count": 4},
               "train": {"steps": 2, "batch": 2}}
        code, _ = run(tmp_path, "train", doc)
        assert code == EXIT_OK


class TestTrain:
    def test_artifacts_and_exit(self, tmp_path, capsys):
        doc = {"model": SMALL_MODEL,
               "task": {"kind": "copy", "length": 4, "count": 8, "alphabet": 10},
               "train": {"steps": 5, "batch": 4}}
        code, out = run(tmp_path, "train", doc)
        assert code == EXIT_OK
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0].startswith("step,task_loss")
        assert len(lines) == 6
        assert "final_loss=" in capsys.readouterr().out


class TestSweep:
    def test_curve_rows_and_t_star(self, tmp_path, capsys):
        doc = {"model": SMALL_MODEL,
               "task": {"kind": "copy", "length": 4, "count": 4, "alphabet": 10},
               "sweep": {"t_min": 0.5, "t_max": 1.5, "steps": 6}}
        code, out = run(tmp_path, "sweep", doc)
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "step,value"
        assert len(lines) == 7
        mults = [float(l.split(",")[0]) for l in lines[1:]]
        assert mults[0] == 0.5 and mults[-1] == 1.5
        assert "t_star=" in capsys.readouterr().out


class TestGsot:
    def test_trace_written(self, tmp_path):
        doc = {"model": SMALL_MODEL,
               "gsot": {"length": 6, "hidden_count": 4},
               "gsot_cfg": {"K": 3}}
        code, out = run(tmp_path, "gsot", doc)
        assert code == EXIT_OK
        rows = [json.loads(l) for l in
                (out / "trace.jsonl").read_text().strip().split("\n")]
        assert len(rows) == 3  # one row per scheduled step, last integrates
        assert {"step", "active_primary", "active_hidden",
                "op_count"} <= set(rows[0])


class TestStats:
    def test_interval_and_significance(self, tmp_path, capsys):
        doc = {"stats": {"samples": [1, 2, 3, 4, 5], "level": 0.95}}
        code, out = run(tmp_path, "stats", doc)
        assert code == EXIT_OK
        doc = json.loads((out / "stats.json").read_text())
        assert abs(doc["ci_low"] - 1.0368) < 1e-3
        assert abs(doc["ci_high"] - 4.9632) < 1e-3
        assert abs(doc["p"] - 0.01324) < 1e-5
        assert doc["significance"] == "moderate"
        assert "significance=moderate" in capsys.readouterr().out

    @pytest.mark.parametrize("samples,p,label", [
        ([2, 2, 2], 0.0, "strong"), ([0, 0], 1.0, "insufficient")],
        ids=["equal-nonzero", "all-zero"])
    def test_zero_spread_writes_finite_p(self, tmp_path, samples, p, label):
        code, out = run(tmp_path, "stats", {"stats": {"samples": samples}})
        assert code == EXIT_OK
        doc = json.loads((out / "stats.json").read_text())
        assert doc["p"] == p and doc["significance"] == label
        assert doc["ci_low"] == doc["ci_high"] == doc["mean"]

    @pytest.mark.parametrize("samples, mean, p", [
        ([1e-200, 2e-200], 1.5e-200, 0.2048), ([1.7e308, 1.7e308], 1.7e308, 0.0)],
        ids=["tiny", "largest-equal"])
    def test_extreme_scales(self, tmp_path, samples, mean, p):
        code, out = run(tmp_path, "stats", {"stats": {"samples": samples}})
        assert code == EXIT_OK
        doc = json.loads((out / "stats.json").read_text())
        assert doc["mean"] == pytest.approx(mean, rel=1e-15)
        assert doc["p"] == pytest.approx(p, abs=1e-4)
        assert doc["ci_low"] <= doc["mean"] <= doc["ci_high"]

    def test_samples_file(self, tmp_path):
        sf = tmp_path / "samples.txt"
        sf.write_text("1.0\n2.0\n3.0\n")
        doc = {"stats": {"samples_file": str(sf)}}
        code, out = run(tmp_path, "stats", doc)
        assert code == EXIT_OK
        assert json.loads((out / "stats.json").read_text())["n"] == 3


class TestBench:
    def test_small_grid_fit(self, tmp_path, capsys):
        doc = {"model": SMALL_MODEL,
               "bench": {"lengths": [16, 32, 64, 128], "d_model": 8,
                         "heads": 1, "layers": 1, "d_ff": 64,
                         "vocab_size": 16, "hidden_count": 2}}
        code, out = run(tmp_path, "bench", doc)
        assert code == EXIT_OK
        lines = (out / "complexity.csv").read_text().strip().split("\n")
        assert lines[0] == "n,ops" and len(lines) == 5
        assert "r_squared=" in capsys.readouterr().out

    def test_default_grid_builds_one_model(self, monkeypatch):
        built = []

        class CountingParams(ModelParams):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ModelParams", CountingParams)
        resolved, _, _, _, gsot_cfg = load_config(None)
        counts = cli.bench_op_counts(resolved["bench"], gsot_cfg,
                                     resolved["seed"])
        assert [n for n, _ in counts] == [64, 128, 256, 512, 1024]
        assert len(built) == 1


class TestDeterminism:
    def test_train_and_sweep_outputs_byte_identical(self, tmp_path):
        doc = {"model": SMALL_MODEL,
               "task": {"kind": "copy", "length": 4, "count": 8, "alphabet": 10},
               "train": {"steps": 5, "batch": 4},
               "sweep": {"t_min": 0.5, "t_max": 1.5, "steps": 4}}
        runs = {}
        for sub in ("a", "b"):
            code, out = run(tmp_path, "train", doc, sub=f"train_{sub}")
            assert code == EXIT_OK
            code, out2 = run(tmp_path, "sweep", doc, sub=f"sweep_{sub}")
            assert code == EXIT_OK
            runs[sub] = ((out / "metrics.csv").read_bytes(),
                         (out2 / "sweep.csv").read_bytes())
        assert runs["a"] == runs["b"]

    def test_gsot_trace_byte_identical(self, tmp_path):
        doc = {"model": SMALL_MODEL, "gsot": {"length": 6, "hidden_count": 4}}
        traces = []
        for sub in ("a", "b"):
            code, out = run(tmp_path, "gsot", doc, sub=f"gsot_{sub}")
            assert code == EXIT_OK
            traces.append((out / "trace.jsonl").read_bytes())
        assert traces[0] == traces[1]


class TestUsage:
    def test_missing_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["deploy"]) == EXIT_USAGE
