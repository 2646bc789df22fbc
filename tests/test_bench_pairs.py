"""``tools/bench_pairs.py --cli``: whole-CLI pairs beside the benchmark's."""

import importlib.util
import json
import subprocess
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


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="resolves revisions with git")
def test_out_is_a_directory_made_before_the_first_run(tmp_path, monkeypatch):
    # a missing --out used to survive every pair, then lose the record to FileNotFoundError
    tool = _tool()
    made = []
    monkeypatch.setattr(tool, "export_revision", lambda rev, dest: made.append(out.is_dir()))
    monkeypatch.setattr(tool, "export_working_tree", lambda dest: None)
    monkeypatch.setattr(tool, "report_hash", lambda cwd, seed: {"sha256": "", "exit": 0})
    out = tmp_path / "not" / "yet"
    argv = ["--parent", "HEAD", "--label", "tiny", "--workloads", "", "--seeds", "1",
            "--workdir", str(tmp_path / "w"), "--out", str(out)]
    assert tool.main(argv) == 0
    assert made == [True]
    assert json.loads((out / "BENCH_tiny.json").read_text(encoding="utf-8"))["runs"] == []


def test_a_run_records_its_pass_count_and_the_summary_gives_it_per_side(monkeypatch):
    tool = _tool()
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    checks = len(reference["sweep"]["1"])
    assert tool.checks_per_pass(ROOT, "sweep") == checks == 18

    def fake_run(argv, **kwargs):  # run.py's final line after 3 passes
        line = json.dumps({"correct": True, "attempted": 3 * checks, "failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(argv, 0, stdout=f"qilab benchmark\n{line}\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    result = tool.run_once(["python3", "perfbench/run.py"], ROOT, "sweep", 1, 20)
    assert result["passes"] == 3

    def run(pair, side, passes, rss):
        metrics = {"peak_rss_mb": {"value": rss, "unit": "MiB"}}
        result = {"failed": 0, "attempted": passes * checks, "passes": passes, "metrics": metrics}
        return {"workload": "sweep", "pair": pair, "side": side, "result": result}

    runs = [run(0, "parent", 60, 40.0), run(0, "child", 66, 40.5), run(1, "child", 68, 40.6),
            run(1, "parent", 61, 40.1), run(2, "parent", 59, 40.0), run(2, "child", 70, 40.4)]
    summary = tool.summarize(runs)
    assert summary["sweep.passes"] == {
        "parent": {"median": 60, "range": [59, 61]},
        "child": {"median": 68, "range": [66, 70]},
    }
    assert summary["sweep.peak_rss_mb"]["child_wins"] == "0/3"
    crashed = [{**r, "result": {"failed": 1}} if r["side"] == "child" else r for r in runs]
    assert "sweep.passes" not in tool.summarize(crashed)  # a side without passes: no comparison


def test_the_host_names_the_kernels_behind_the_bytes():
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    record = _tool().host()
    assert f"numpy {np.__version__}" in record["machine"]
    features = record["numpy_cpu_features"]
    assert features and all(__cpu_features__[name] for name in features)
    assert set(features) == {name for name, enabled in __cpu_features__.items() if enabled}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    core = record["openblas_core"]
    if "openblas" in blas:
        assert isinstance(core, str) and core
    json.dumps(record)
