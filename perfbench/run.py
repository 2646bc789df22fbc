"""qilab benchmark: time one workload end to end and gate its outcome.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median seconds
of one pass after a warm-up pass), ``peak_rss_mb`` (peak RSS of the
process that ran only this workload) and ``setup_s`` (median time of a
fresh interpreter to its first result). Both times are scaled to a
reference CPU speed sampled while they run (``speed.py``), because this
kind of shared host changes speed by up to 2x within seconds; the
measured times are printed beside them. ``--trace 1`` prints the
per-layer metrics of a traced pass instead, and requires the reports of
traced and untraced passes to be byte-identical. Every pass is checked
against the recorded outcomes (see ``gate.py``); ``failed_frac`` is failed
checks over checks attempted. The last line of output is the result as
JSON. Fuller records go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import gate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 7
SETUP_SNIPPET = (
    "from perfbench.workloads import first_result; first_result(); "
    "import time; done = time.monotonic(); "
    "from perfbench.speed import factor_now; print(done, factor_now())"
)
# The whole run, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_share", "_per_density", "_per_ensemble")):
        return "ratio"
    return "count"


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def setup_times(env: dict, deadline: float) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter to its first result, and
    the speed factor read right after it."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(deadline - start, 1.0),
        )
        if proc.returncode != 0:
            sys.exit(f"set-up call failed:\n{proc.stderr}")
        done, speed = map(float, proc.stdout.split())
        times.append((done - start, speed))
    return times


def run_worker(args, env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "perfbench.worker",
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.exit(f"workload process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def judge(workload: str, seed: int, passes: list[dict]) -> tuple[int, int, dict]:
    """Gate every pass; return (attempted, failed, reasons by check)."""
    reference = gate.load_reference()[workload]
    n_checks = len(reference["1"])
    expected = reference.get(str(seed))
    expected = gate.rows_to_outcomes(expected) if expected else None
    attempted = failed = 0
    reasons: dict[str, str] = {}
    for p in passes:
        if p["error"] is not None:
            attempted += n_checks
            failed += n_checks
            reasons["pass"] = p["error"].strip().splitlines()[-1]
            continue
        # At a seed without a reference, later passes must repeat the first.
        fails = gate.failures(p["rows"], expected)
        attempted += max(n_checks, len(p["rows"]))
        failed += len(fails)
        reasons.update(fails)
        if expected is None and not fails:
            expected = gate.rows_to_outcomes(p["rows"])
    return attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qilab" / "__init__.py").is_file():
        print(f"error: no qilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = pinned_env()
    setups = [] if args.trace else setup_times(env, deadline)
    raw = run_worker(args, env, deadline)
    passes = raw["passes"]
    attempted, failed, reasons = judge(args.workload, args.seed, passes)
    correct = failed == 0

    print(f"qilab benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(raw["env"], sort_keys=True))
    if args.trace:
        digests = {p["report_sha256"] for p in passes}
        identical = len(digests) == 1 and None not in digests
        correct = correct and identical
        metrics = raw["layers"]
        for name in sorted(metrics):
            print(f"  {name:44s} {metrics[name]:.6g} {unit_of(name)}")
        print(f"traced report byte-identical to untraced: {identical}")
    else:
        metrics = {
            "wall_s": statistics.median(p["seconds"] * p["speed"] for p in passes),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": statistics.median(t * speed for t, speed in setups),
        }
        print(
            f"  wall_s       {metrics['wall_s']:.4f} s    median of {len(passes)} pass(es) "
            f"after a {raw['warmup']['seconds']:.2f} s warm-up, at reference speed; "
            f"measured {statistics.median(p['seconds'] for p in passes):.4f} s at speed "
            f"{statistics.median(p['speed'] for p in passes):.3f}"
        )
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MiB")
        print(
            f"  setup_s      {metrics['setup_s']:.4f} s    median of {len(setups)} "
            f"interpreters, at reference speed; measured "
            f"{statistics.median(t for t, _ in setups):.4f} s"
        )
    print(f"  failed_frac  {failed / attempted:.6g}      {failed} of {attempted} checks failed")
    for check, row in gate.rows_to_outcomes(passes[-1]["rows"]).items():
        if check in gate.BY_DESIGN:
            print(f"  by design, not judged: {check} violations={row[1]}")
    for check, reason in sorted(reasons.items()):
        print(f"  FAILED {check}: {reason}")

    units = {name: unit_of(name) for name in metrics}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, env=raw["env"], setup_s=setups, passes=passes, reasons=reasons)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
