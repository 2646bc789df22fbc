"""The rac and reduction suites against the benchmark's recorded outcomes.

``perfbench/reference.json`` holds, per workload and seed, one
``[check, trials, violations, min_slack]`` row per check. The protocol
workload runs the rac and reduction suites; here they must repeat its
rows at seeds 1 and 2: the same checks in the same order, the same
trials and violations, and ``min_slack`` within 1e-12. The file is only
read.
"""

import json
from pathlib import Path

import pytest

from qilab.suites import SuiteConfig, run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
SLACK_TOL = 1e-12


@pytest.mark.parametrize("seed", (1, 2))
def test_protocol_suites_repeat_the_reference(seed):
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["protocol"][str(seed)]
    got = [
        [f"{suite}.{r.name}", r.trials, r.violations, r.min_slack]
        for suite in ("rac", "reduction")
        for r in run_suite(suite, SuiteConfig(seed=seed))
    ]
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    for (check, *_, slack), (*_, ref_slack) in zip(got, expected):
        assert abs(slack - ref_slack) <= SLACK_TOL, (check, slack, ref_slack)
