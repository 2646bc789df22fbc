"""Run the benchmark over ten seeds per workload and record the results.

Run from the repository root:

    python3 perfbench/record_baseline.py --label 86723a3 --out perfbench/baseline.json

Every workload runs untraced at seeds 1..10 and traced at seeds 1, 2 and 1
again, with ``run_seconds`` from ``BENCHMARK.json``. The file keeps each run's
result line as ``run.py`` printed it, and for each end-to-end metric the
median, quartiles and spread ((q3 - q1) / median) over the ten seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNTRACED_SEEDS = tuple(range(1, 11))
# Seed 1 is traced twice: every count must repeat exactly.
TRACED_SEEDS = (1, 2, 1)


def run(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    result = json.loads(lines[-1])
    print(workload, seed, trace, json.dumps(result)[:160], flush=True)
    return result, env


def summary(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
        }
    return out


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record: dict = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        untraced = [run(bench, workload, s, 0) for s in UNTRACED_SEEDS]
        traced = [run(bench, workload, s, 1) for s in TRACED_SEEDS]
        record["env"] = untraced[0][1]
        record["workloads"][workload] = {
            "untraced": {
                "seeds": list(UNTRACED_SEEDS),
                "results": [r for r, _ in untraced],
                "summary": summary([r for r, _ in untraced]),
            },
            "traced": {
                "seeds": list(TRACED_SEEDS),
                "results": [r for r, _ in traced],
                "counts_repeat": counts(traced[0][0]) == counts(traced[2][0]),
            },
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = True
    for workload, data in record["workloads"].items():
        for name, s in data["untraced"]["summary"].items():
            print(f"{workload:9s} {name:12s} median {s['median']:.4f} {s['unit']:4s} "
                  f"spread {s['spread']:.3f}")
        print(f"{workload:9s} counts repeat between traced runs: {data['traced']['counts_repeat']}")
        correct &= data["traced"]["counts_repeat"]
        correct &= all(r["correct"] for r in data["untraced"]["results"] + data["traced"]["results"])
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
