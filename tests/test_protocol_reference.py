"""The suites against the benchmark's recorded outcomes.

``perfbench/reference.json`` holds, per workload and seed, one
``[check, trials, violations, min_slack]`` row per check. Here the suites
of every workload (protocol, sweep, encoding and large-d) must repeat
those rows at seeds 1 and 2: the same checks in the same order, the same trials and
violations, and ``min_slack`` within 1e-12. The file is only read.
"""

import json
from pathlib import Path

import pytest

from qilab.suites import SuiteConfig, run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
SLACK_TOL = 1e-12
# The suites each workload runs, and the flags it sets beyond the seed.
WORKLOADS = {
    "protocol": (("rac", {}), ("reduction", {})),
    "sweep": (("metrics", {}), ("info", {}), ("transition", {})),
    "encoding": (("encoding", {}),),
    "large-d": (("metrics", {"dims": (192, 256), "trials": 12}),),
}


def _repeats_the_reference(workload, seed):
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload][str(seed)]
    got = [
        [f"{suite}.{r.name}", r.trials, r.violations, r.min_slack]
        for suite, flags in WORKLOADS[workload]
        for r in run_suite(suite, SuiteConfig(seed=seed, **flags))
    ]
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    for (check, *_, slack), (*_, ref_slack) in zip(got, expected):
        assert abs(slack - ref_slack) <= SLACK_TOL, (check, slack, ref_slack)


@pytest.mark.parametrize("seed", (1, 2))
def test_protocol_suites_repeat_the_reference(seed):
    _repeats_the_reference("protocol", seed)


@pytest.mark.parametrize("workload", ("sweep", "large-d"))
@pytest.mark.parametrize("seed", (1, 2))
def test_sweep_and_large_d_suites_repeat_the_reference(workload, seed):
    _repeats_the_reference(workload, seed)


@pytest.mark.parametrize("seed", (1, 2))
def test_encoding_suite_repeats_the_reference(seed):
    _repeats_the_reference("encoding", seed)
