import json
import os

import pytest

from ttm_lab.cli import EXIT_OK, EXIT_USAGE, load_config, main


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
        resolved, model_cfg, train_cfg, task_spec, gsot_cfg, dyn_cfg = \
            load_config(None)
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
                                           ("gsot_cfg", "max_paths")])
    def test_removed_keys_rejected(self, tmp_path, capsys, block, key):
        code, _ = run(tmp_path, "check", {block: {key: 1}})
        assert code == EXIT_USAGE
        assert key in capsys.readouterr().err

    def test_invalid_value_rejected_at_load(self, tmp_path):
        code, _ = run(tmp_path, "check", {"model": {"eps_min": 0.6}})
        assert code == EXIT_USAGE

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "check"]) == EXIT_USAGE

    def test_missing_file_rejected(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"),
                     "check"]) == EXIT_USAGE

    def test_seed_flag_overrides_block_seeds(self, tmp_path):
        path = write_config(tmp_path, {"seed": 3, "model": {"seed": 4}})
        resolved, model_cfg, train_cfg, task_spec, _, dyn_cfg = \
            load_config(path, seed=11)
        assert resolved["seed"] == 11
        assert model_cfg.seed == 11 and train_cfg.seed == 11
        assert task_spec.seed == 11 and dyn_cfg.seed == 11

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
        code, _ = run(tmp_path, "check", {"model": SMALL_MODEL},
                      extra=["--filter", "quantum"])
        assert code == EXIT_USAGE


class TestGradcheck:
    def test_passes_at_default_eps(self, tmp_path, capsys):
        code, _ = run(tmp_path, "gradcheck")
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "full_model" in text and "FAIL" not in text


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
        doc = {"stats": {"samples": [1, 2, 3, 4, 5], "level": 0.95,
                         "p": 0.003}}
        code, out = run(tmp_path, "stats", doc)
        assert code == EXIT_OK
        doc = json.loads((out / "stats.json").read_text())
        assert abs(doc["ci_low"] - 1.0368) < 1e-3
        assert abs(doc["ci_high"] - 4.9632) < 1e-3
        assert doc["significance"] == "strong"
        assert "significance=strong" in capsys.readouterr().out

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
