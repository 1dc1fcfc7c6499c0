"""CLI artifacts pinned across commits.

Each directory under `golden/` holds a `config.json` and the artifacts that
the CLI wrote from it. A change that alters any of their bytes must update
these files and say why. To rewrite one, run the command into a scratch
directory and copy its artifact over, for example:

    PYTHONPATH=src python -m ttm_lab.cli \
        --config tests/golden/test12/config.json --out /tmp/golden train
"""

import pathlib

import pytest

from ttm_lab import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMAND_ARTIFACTS = {"train": "metrics.csv", "sweep": "sweep.csv",
                     "gsot": "trace.jsonl", "bench": "complexity.csv",
                     "check": "check.report.json", "stats": "stats.json"}

CASES = [(config.name, command)
         for config in sorted(GOLDEN.iterdir())
         for command, artifact in COMMAND_ARTIFACTS.items()
         if (config / artifact).exists()]


@pytest.mark.parametrize("config,command", CASES)
def test_artifact_matches_golden(tmp_path, config, command):
    artifact = COMMAND_ARTIFACTS[command]
    code = cli.main(["--config", str(GOLDEN / config / "config.json"),
                     "--out", str(tmp_path), command])
    assert code == cli.EXIT_OK
    expected = (GOLDEN / config / artifact).read_bytes()
    assert (tmp_path / artifact).read_bytes() == expected
