import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

STDOUT = """workload extract-heavy seed 42 trace 0: 5 sweep samples
env {"commit": "abc123", "numpy": "2.4.6", "src_sha256": "ff00"}
report.json sha256 d135228b (identical across 5 repeats)
combinations attempted 75, failed 0, failed_combo_ratio 0 (0/75)
sweep_s: median 0.5, max 0.6, n=5 [0.5 0.5 0.5 0.6 0.5] s
{"correct": true, "attempted": 75, "failed": 0, "metrics": {"sweep_s": {"value": 0.5, "unit": "s"}}}
"""


@pytest.fixture
def bench_log(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_log", Path(__file__).parents[1] / "tools" / "bench_log.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "TRAJECTORY", tmp_path / "BENCH_sweep.json")
    return module


def test_bench_log_appends_one_row_per_run(bench_log, tmp_path):
    run = tmp_path / "run.txt"
    run.write_text(STDOUT)
    assert bench_log.main([str(run), str(run), "--note", "twice"]) == 0
    assert bench_log.main([str(run)]) == 0
    rows = json.loads(bench_log.TRAJECTORY.read_text())
    assert len(rows) == 3
    assert rows[0] == {
        "workload": "extract-heavy",
        "seed": 42,
        "trace": 0,
        "env": {"commit": "abc123", "numpy": "2.4.6", "src_sha256": "ff00"},
        "report_sha256": "d135228b",
        "correct": True,
        "attempted": 75,
        "failed": 0,
        "metrics": {"sweep_s": {"value": 0.5, "unit": "s"}},
        "note": "twice",
    }
    assert "note" not in rows[2]


def test_bench_log_rejects_other_input(bench_log, tmp_path, capsys):
    run = tmp_path / "run.txt"
    run.write_text("error: sample exited 1\n")
    assert bench_log.main([str(run)]) == 2
    assert capsys.readouterr().err == "error: input is not the stdout of perfbench/run.py\n"
    assert not bench_log.TRAJECTORY.exists()


def test_bench_log_names_the_repository_head_for_a_run_without_a_commit(bench_log, tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.invalid"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "parent"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True, text=True).stdout.strip()
    monkeypatch.setattr(bench_log, "REPO", repo)
    copied, committed = tmp_path / "copied.txt", tmp_path / "committed.txt"
    copied.write_text(STDOUT.replace('"commit": "abc123"', '"commit": null'))
    committed.write_text(STDOUT)
    assert bench_log.main([str(copied), str(committed)]) == 0
    rows = json.loads(bench_log.TRAJECTORY.read_text())
    assert rows[0]["env"] == {"commit": None, "parent_commit": head, "numpy": "2.4.6", "src_sha256": "ff00"}
    assert rows[1]["env"] == {"commit": "abc123", "numpy": "2.4.6", "src_sha256": "ff00"}

    monkeypatch.setattr(bench_log, "REPO", tmp_path)  # not a repository
    assert bench_log.main([str(copied)]) == 0
    assert json.loads(bench_log.TRAJECTORY.read_text())[2]["env"]["parent_commit"] is None
