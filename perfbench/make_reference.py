"""Record each check's outcome at seeds 1 and 2 into ``reference.json``.

Run from the repository root on the commit whose outcomes are the
reference:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from perfbench.gate import REFERENCE_PATH  # noqa: E402
from perfbench.workloads import WORKLOADS, run_pass  # noqa: E402

SEEDS = (1, 2)


def main() -> None:
    reference = {
        workload: {str(seed): run_pass(workload, seed)[1] for seed in SEEDS}
        for workload in WORKLOADS
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
