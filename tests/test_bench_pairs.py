"""``tools/bench_pairs.py --cli``: whole-CLI pairs beside the benchmark's."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="exports a revision with git archive")
def test_cli_pairs_record_time_peak_memory_and_report_hash(tmp_path, monkeypatch):
    tool = _tool()
    # the suite-all hashes per seed are the workloads' half of the record
    monkeypatch.setattr(tool, "report_hash", lambda cwd, seed: {"sha256": "", "exit": 0})
    args = "--suite rac --format json"
    argv = ["--parent", "HEAD", "--label", "tiny", "--workloads", "", "--seeds", "1",
            "--cli", args, "--pairs", f"{args}=2", "--workdir", str(tmp_path / "w"),
            "--out", str(tmp_path)]
    assert tool.main(argv) == 0
    record = json.loads((tmp_path / "BENCH_tiny.json").read_text(encoding="utf-8"))
    assert record["cli"] == [f"python -m qilab {args}"]
    runs = record["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "parent"), (0, "child"), (1, "child"), (1, "parent")
    ]
    for r in runs:
        assert r["workload"] == f"qilab {args}" and r["seed"] is None
        result = r["result"]
        assert result["failed"] == 0 and result["exit"] in (0, 1) and len(result["sha256"]) == 64
        assert result["metrics"]["wall_s"]["value"] > 0
        assert 10 < result["metrics"]["peak_rss_mb"]["value"] < 1000
    summary = record["summary"]
    assert summary[f"qilab {args}.failed_runs"] == 0
    assert summary[f"qilab {args}.reports_identical"] is True
    assert summary[f"qilab {args}.wall_s"]["pairs"] == 2
    assert summary[f"qilab {args}.peak_rss_mb"]["pairs"] == 2
