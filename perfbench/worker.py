"""Runs one workload in a fresh process and prints its raw results as JSON.

Started by ``run.py`` with BLAS pinned to one thread; it imports qilab,
makes the first tiny call, then times whole passes. Untraced: a warm-up
pass at a few trials, then as many full passes as fit in ``--seconds``,
each with the CPU speed sampled while it runs (see ``speed.py``).
Traced: untraced (U) and traced (T) passes in the order U T T U, with
every public qilab callable wrapped during T; the first traced pass's
spans are written to ``.perfbench_out/``. Spans hold measured times; the
reported ones are scaled to reference speed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench.speed import SpeedProbe
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, first_result, run_pass

OUT_DIR = Path(".perfbench_out")


def timed_pass(workload: str, seed: int, warmup: bool = False) -> dict:
    start = time.perf_counter()
    try:
        report, rows = run_pass(workload, seed, warmup)
    except Exception:
        return {
            "seconds": time.perf_counter() - start,
            "error": traceback.format_exc(),
            "rows": [],
            "report_sha256": None,
            "report_bytes": 0,
        }
    seconds = time.perf_counter() - start
    data = report.encode()
    return {
        "seconds": seconds,
        "error": None,
        "rows": rows,
        "report_sha256": hashlib.sha256(data).hexdigest(),
        "report_bytes": len(data),
    }


def probed_pass(workload: str, seed: int, tracer: Tracer | None = None) -> dict:
    """A timed pass, traced if ``tracer`` is given, with the CPU speed
    sampled while it runs."""
    if tracer is not None:
        tracer.install()
    try:
        with SpeedProbe() as probe:
            result = timed_pass(workload, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["speed"] = probe.factor()
    return result


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
    }


def traced_run(workload: str, seed: int) -> dict:
    """Untraced, traced, traced, untraced: the overhead estimate then
    cancels a steady drift in machine speed. Layers come from the first
    traced pass; their times, like the pass times, are at reference speed."""
    tracer = Tracer()
    passes = [
        probed_pass(workload, seed),
        probed_pass(workload, seed, tracer),
        probed_pass(workload, seed, Tracer()),
        probed_pass(workload, seed),
    ]
    scaled = [p["seconds"] * p["speed"] for p in passes]
    speed = passes[1]["speed"]
    layers = {
        name: value * speed if name.endswith(("_s", "_ms")) else value
        for name, value in tracer.layer_metrics().items()
    }
    layers["cli.report_bytes"] = passes[1]["report_bytes"]
    layers["trace.overhead_frac"] = (scaled[1] + scaled[2]) / (scaled[0] + scaled[3]) - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"spans-{workload}-seed{seed}.npz", **tracer.arrays())
    return {"passes": passes, "layers": layers}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    first_result()
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        warm = timed_pass(args.workload, args.seed, warmup=True)
        passes = [probed_pass(args.workload, args.seed)]
        # Stop before a pass that would overrun --seconds by over half a pass.
        while sum(p["seconds"] for p in passes) + passes[0]["seconds"] / 2 < args.seconds:
            passes.append(probed_pass(args.workload, args.seed))
        result = {"warmup": warm, "passes": passes}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
