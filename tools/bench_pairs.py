"""Compare a parent revision with the working tree in alternating benchmark pairs.

Run from the repository root:

    python3 tools/bench_pairs.py --parent efe357d --label table \
        --workloads protocol,sweep --seeds 1,2 --pairs 10 --pairs protocol=12

The parent revision (``git archive``) and the working tree (every tracked
and untracked file that git does not ignore) are exported to two sibling
directories, ``par`` and ``kid``, whose names have equal length: the
length of the checkout's path alone moves ``peak_rss_mb`` by about half a
MiB. Then, for each workload and pair, both sides run the benchmark
command of ``BENCHMARK.json`` for its ``run_seconds``, untraced
(``--trace 0``), one after the other: even pairs run the parent first,
odd pairs the working tree, and pairs cycle through the seeds. A speed
claim needs at least 10 pairs per workload, the default. ``BENCH_<label>.json`` keeps every run's
final JSON line with its pass count (run.py's ``attempted`` over the
workload's checks per pass in ``perfbench/reference.json``), the run order
and, per workload and end-to-end metric, the medians, the parent's quartiles
and how many pairs the working tree won (lower is better for every end-to-end
metric); per workload and side, the pass counts' median and range, since a
fixed-time run's ``peak_rss_mb`` grows with its passes. For each side and seed it
also keeps the SHA-256 and exit status of ``qilab --suite all --seed S
--format json``, so a claim that the reports stay byte-identical sits beside
the timing pairs, and under ``host`` the CPU features numpy dispatches on and
the OpenBLAS core, which pick the log, cos, sin and BLAS kernels behind those
bytes.

Each ``--cli "ARGS"`` adds whole-CLI pairs, after the workloads' and from the
same exports: both sides run ``python -m qilab ARGS`` in alternating order, and
each run keeps its wall time, the child's own peak RSS (``ru_maxrss``) and the
SHA-256 and exit status of its report, summarized as a workload named
``qilab ARGS``. ``--pairs "ARGS=N"`` sets one such entry's pair count:

    python3 tools/bench_pairs.py --parent c81421a --label lockstep --workloads "" \
        --cli "--suite reduction --n 5 --format json" --pairs 3
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "child")
DIRS = {"parent": "par", "child": "kid"}  # equal-length names


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def export_revision(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, as ``git archive`` writes them."""
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(dest, filter="data")


def export_working_tree(dest: Path) -> None:
    """Every tracked or untracked file of the working tree that git does not ignore."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def parse_pairs(tokens: list[str], workloads: list[str]) -> dict[str, int]:
    """``N`` sets every workload's pair count, ``W=N`` one workload's."""
    counts = dict.fromkeys(workloads, 10)
    for token in tokens:
        name, _, count = token.rpartition("=")
        for w in [name] if name else workloads:
            if w not in counts:
                raise SystemExit(f"--pairs {token}: {w!r} is not among the workloads")
            counts[w] = int(count)
    return counts


def run_once(command: list[str], cwd: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its final JSON line, or the error that stopped it."""
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "error": f"exit {proc.returncode}: {tail}"}
    if "attempted" in result:
        result["passes"] = result["attempted"] / checks_per_pass(cwd, workload)
    return result


def checks_per_pass(cwd: Path, workload: str) -> int:
    """The checks one pass of ``workload`` runs: its rows at seed 1 in the
    tree's ``perfbench/reference.json``. A fixed-time run's ``attempted`` over
    this is its pass count, which its ``peak_rss_mb`` grows with."""
    reference = json.loads((cwd / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    return len(reference[workload]["1"])


def run_cli(args: str, cwd: Path) -> dict:
    """One ``python -m qilab ARGS`` run in the tree: its wall time, the peak RSS
    of that child alone (from its own ``wait4``), and its report's SHA-256."""
    argv = [sys.executable, "-m", "qilab", *shlex.split(args)]
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        tail = (err.read().decode(errors="replace").strip().splitlines() or [""])[-1]
    return {
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"},  # KiB on Linux
        },
        # exit 1 is a report with violations; a crash leaves no report
        "failed": int(not out or proc.returncode not in (0, 1)),
        "exit": proc.returncode,
        "sha256": hashlib.sha256(out).hexdigest(),
        **({"stderr_tail": tail} if tail else {}),
    }


def report_hash(cwd: Path, seed: int) -> dict:
    """SHA-256 and exit status of the tree's ``qilab --suite all --seed S --format json``."""
    argv = [sys.executable, "-m", "qilab", "--suite", "all", "--seed", str(seed), "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, env=env)
    return {"sha256": hashlib.sha256(proc.stdout).hexdigest(), "exit": proc.returncode}


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: medians, the parent's quartiles, pair wins."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        failed = [r for r in mine if "metrics" not in r["result"] or r["result"]["failed"]]
        out[f"{workload}.failed_runs"] = len(failed)
        reports = {(r["result"].get("sha256"), r["result"].get("exit")) for r in mine}
        if any("sha256" in r["result"] for r in mine):  # whole-CLI runs: one report for all
            out[f"{workload}.reports_identical"] = len(reports) == 1
        passes = {side: [] for side in SIDES}  # a faster tree runs more in the same seconds
        for r in mine:
            if "passes" in r["result"]:
                passes[r["side"]].append(r["result"]["passes"])
        if all(passes.values()):
            out[f"{workload}.passes"] = {
                side: {"median": statistics.median(n), "range": [min(n), max(n)]}
                for side, n in passes.items()
            }
        by_pair: dict[int, dict] = {}
        for r in mine:
            if "metrics" in r["result"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        for name in pairs[0]["parent"]:
            par = [p["parent"][name]["value"] for p in pairs]
            kid = [p["child"][name]["value"] for p in pairs]
            q1, _, q3 = statistics.quantiles(par, n=4) if len(par) > 1 else (par[0],) * 3
            before, after = statistics.median(par), statistics.median(kid)
            out[f"{workload}.{name}"] = {
                "pairs": len(pairs),
                "parent_median": before,
                "child_median": after,
                "change": after / before - 1.0 if before else None,
                "parent_quartiles": [q1, q3],
                "parent_iqr": q3 - q1,
                "child_wins": f"{sum(k < p for p, k in zip(par, kid))}/{len(pairs)}",
                "ties": sum(k == p for p, k in zip(par, kid)),
            }
    return out


def host() -> dict:
    """The machine, and what picks the kernels behind a report's bytes: the CPU
    features numpy dispatches its SIMD loops on (log, cos and sin among them)
    and the core OpenBLAS chose."""
    import numpy
    from numpy._core._multiarray_umath import __cpu_features__

    bytecode = "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset"
    return {
        "machine": f"{os.cpu_count()} cores, {platform.machine()}, Python "
        f"{platform.python_version()}, numpy {numpy.__version__}; PYTHONDONTWRITEBYTECODE {bytecode}",
        "numpy_cpu_features": [name for name, enabled in __cpu_features__.items() if enabled],
        "openblas_core": openblas_core(),
    }


def openblas_core() -> str | None:
    """The core name of the OpenBLAS library numpy loaded, if any, read through
    ctypes as ``perfbench/worker.py`` reads its thread count."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, symbol):
                corename = getattr(handle, symbol)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--workloads", default="sweep,encoding,protocol,large-d")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--pairs", action="append", default=[], metavar="[W=]N",
                        help="pairs per workload or --cli entry, seeds cycling (default 10); "
                        "W=N sets one's")
    parser.add_argument("--cli", action="append", default=[], metavar="ARGS",
                        help="also pair whole `python -m qilab ARGS` runs (repeatable)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the two exports go (default: a new temporary directory)")
    parser.add_argument("--claim", default="", help="the claim the pairs test, kept in the file")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",")]
    counts = parse_pairs(args.pairs, [*workloads, *args.cli])
    parent = git("rev-parse", "--short", args.parent, text=True).stdout.strip()
    head = git("rev-parse", "--short", "HEAD", text=True).stdout.strip()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: workdir / DIRS[side] for side in SIDES}
    for tree in trees.values():
        if tree.exists():
            raise SystemExit(f"{tree} exists; give an empty --workdir")
    export_revision(parent, trees["parent"])
    trees["child"].mkdir(parents=True)
    export_working_tree(trees["child"])

    reports = {side: {str(s): report_hash(trees[side], s) for s in seeds} for side in SIDES}
    identical = all(reports["parent"][str(s)] == reports["child"][str(s)] for s in seeds)
    runs = []
    for name in [*workloads, *args.cli]:
        cli = name in args.cli
        for pair in range(counts[name]):
            seed = None if cli else seeds[pair % len(seeds)]  # a --cli entry sets its own
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for k, side in enumerate(order):
                start = time.time()
                if cli:
                    result = run_cli(name, trees[side])
                else:
                    result = run_once(bench["command"], trees[side], name, seed, seconds)
                workload = f"qilab {name}" if cli else name
                runs.append({
                    "workload": workload, "pair": pair, "seed": seed, "side": side,
                    "ran_first": k == 0, "started": round(start, 1), "result": result,
                })
                print(workload, pair, seed, side, json.dumps(result), file=sys.stderr, flush=True)

    record = {
        "label": args.label,
        "claim": args.claim,
        "command": f"{' '.join(bench['command'])} --workload W --seed S --seconds {seconds:g} --trace 0",
        "cli": [f"python -m qilab {a}" for a in args.cli],
        "parent": parent,
        "child": f"working tree on {head}",
        "host": host(),
        "order": (
            "pairs alternate which side runs first: even pairs parent then child, odd pairs "
            "child then parent; seeds cycle by pair; both sides ran from exports in sibling "
            f"directories named {DIRS['parent']!r} and {DIRS['child']!r} (equal length)"
        ),
        "reports": {"command": "qilab --suite all --seed S --format json", **reports},
        "reports_identical": identical,
        "summary": summarize(runs),
        "runs": runs,
    }
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    if args.workdir is None:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
