"""Record each check's outcome on the paths no benchmark workload runs.

Run from the repository root on the commit whose outcomes are the
reference:

    python3 tools/make_outcome_references.py

It writes ``tests/reference_outcomes.json``: one entry per suite run, with
the run's suite, ``n`` and seed, and one ``[check, trials, violations,
min_slack]`` row per check, in report order. The runs are reduction at
n = 1, 3, 4 and 5 (its checks read no seed, so seed 1 only) and rac at
n = 3 and 5, at seeds 1 and 2. The benchmark's own workloads run both
suites at n = 2 only; ``tests/test_protocol_reference.py`` judges both
files with one helper.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from qilab.suites import SuiteConfig, run_suite  # noqa: E402

OUT = ROOT / "tests" / "reference_outcomes.json"
RUNS = [
    *(("reduction", n, 1) for n in (1, 3, 4, 5)),
    *(("rac", n, seed) for n in (3, 5) for seed in (1, 2)),
]


def main() -> None:
    entries = [
        {
            "suite": suite,
            "n": n,
            "seed": seed,
            "outcomes": [
                [f"{suite}.{r.name}", r.trials, r.violations, r.min_slack]
                for r in run_suite(suite, SuiteConfig(seed=seed, n=n))
            ],
        }
        for suite, n, seed in RUNS
    ]
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
