"""Record each check's outcome on the paths no benchmark workload runs.

Run from the repository root on the commit whose outcomes are the
reference:

    python3 tools/make_outcome_references.py

It writes ``tests/reference_outcomes.json``: one entry per suite run, with
the run's suite, its ``SuiteConfig`` flags (the seed among them), and one
``[check, trials, violations, min_slack]`` row per check, in report order.
The runs are:

- reduction at n = 1, 3, 4 and 5 (its checks read no seed, so seed 1 only);
- rac at n = 3 and 5, at seeds 1 and 2;
- metrics, info, transition and encoding at ``trials`` 7 and 65, and
  encoding at ``m`` 1 and 3, at seeds 1 and 2.

The benchmark's own workloads run reduction and rac at n = 2 only, and
every suite at its default flags; ``tests/test_protocol_reference.py``
judges both files with one helper.
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
SEEDS = (1, 2)
RUNS = [
    *(("reduction", {"seed": 1, "n": n}) for n in (1, 3, 4, 5)),
    *(("rac", {"seed": seed, "n": n}) for n in (3, 5) for seed in SEEDS),
    *(
        (suite, {"seed": seed, "trials": trials})
        for suite in ("metrics", "info", "transition", "encoding")
        for trials in (7, 65)
        for seed in SEEDS
    ),
    *(("encoding", {"seed": seed, "m": m}) for m in (1, 3) for seed in SEEDS),
]


def main() -> None:
    entries = [
        {
            "suite": suite,
            "flags": flags,
            "outcomes": [
                [f"{suite}.{r.name}", r.trials, r.violations, r.min_slack]
                for r in run_suite(suite, SuiteConfig(**flags))
            ],
        }
        for suite, flags in RUNS
    ]
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
