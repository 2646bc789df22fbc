"""The benchmark's recorded outcomes, checked in the test suite.

``perfbench/reference.json`` holds, per workload and seed, each check's
trial count, violation count and ``min_slack`` as the benchmark's gate
expects them. Every workload (sweep: metrics, info and transition at
default flags; encoding; protocol: rac and reduction; large-d: metrics at
d = 192..203, 12 trials) at seeds 1 and 2 must repeat the counts exactly
and each ``min_slack`` within the gate's 1e-12, so that a change which
moves them shows here before the benchmark runs.
"""

import json
from pathlib import Path

import pytest

from qilab.suites import SuiteConfig, run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
SLACK_TOL = 1e-12
WORKLOADS = {
    "sweep": (("metrics", {}), ("info", {}), ("transition", {})),
    "encoding": (("encoding", {}),),
    "protocol": (("rac", {}), ("reduction", {})),
    "large-d": (("metrics", {"dims": (192, 256), "trials": 12}),),
}


@pytest.mark.parametrize("workload, seed", [(w, s) for w in WORKLOADS for s in (1, 2)])
def test_outcomes_match_the_benchmark_reference(workload, seed):
    with open(REFERENCE, encoding="utf-8") as handle:
        expected = {row[0]: row[1:] for row in json.load(handle)[workload][str(seed)]}
    got = {}
    for suite, extra in WORKLOADS[workload]:
        for result in run_suite(suite, SuiteConfig(seed=seed, **extra)):
            got[f"{suite}.{result.name}"] = (result.trials, result.violations, result.min_slack)
    assert got.keys() == expected.keys()
    for check, (trials, violations, slack) in got.items():
        ref_trials, ref_violations, ref_slack = expected[check]
        assert (trials, violations) == (ref_trials, ref_violations), check
        assert abs(slack - ref_slack) <= SLACK_TOL, check
