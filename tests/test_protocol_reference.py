"""The suites against their recorded outcomes.

``perfbench/reference.json`` holds, per workload and seed, one
``[check, trials, violations, min_slack]`` row per check. Here the suites
of every workload (protocol, sweep, encoding and large-d) must repeat
those rows at seeds 1 and 2: the same checks in the same order, the same
trials and violations, and ``min_slack`` within the benchmark gate's
1e-12, so that a change which moves them shows here before the benchmark
runs.

``tests/reference_outcomes.json``, written by
``tools/make_outcome_references.py``, holds rows of the same form for the
runs no workload makes: reduction at n = 1, 3, 4 and 5 and rac at n = 3
and 5. They are judged the same way. Both files are only read.
"""

import json
from pathlib import Path

import pytest

from qilab.suites import SuiteConfig, run_suite

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"
OUTCOMES = json.loads((ROOT / "tests" / "reference_outcomes.json").read_text(encoding="utf-8"))
SLACK_TOL = 1e-12
# The suites each workload runs, and the flags it sets beyond the seed.
WORKLOADS = {
    "protocol": (("rac", {}), ("reduction", {})),
    "sweep": (("metrics", {}), ("info", {}), ("transition", {})),
    "encoding": (("encoding", {}),),
    "large-d": (("metrics", {"dims": (192, 256), "trials": 12}),),
}


def _repeats(expected, runs):
    """Each ``(suite, cfg)`` of ``runs`` run in turn gives the rows of
    ``expected``: names in order, trials and violations exactly, and each
    ``min_slack`` within SLACK_TOL."""
    got = [
        [f"{suite}.{r.name}", r.trials, r.violations, r.min_slack]
        for suite, cfg in runs
        for r in run_suite(suite, cfg)
    ]
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    for (check, *_, slack), (*_, ref_slack) in zip(got, expected):
        assert abs(slack - ref_slack) <= SLACK_TOL, (check, slack, ref_slack)


def _repeats_the_reference(workload, seed):
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload][str(seed)]
    runs = [(suite, SuiteConfig(seed=seed, **flags)) for suite, flags in WORKLOADS[workload]]
    _repeats(expected, runs)


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


@pytest.mark.parametrize(
    "entry", OUTCOMES, ids=lambda e: f"{e['suite']}-n{e['n']}-seed{e['seed']}"
)
def test_unbenchmarked_sizes_repeat_their_outcomes(entry):
    cfg = SuiteConfig(seed=entry["seed"], n=entry["n"])
    _repeats(entry["outcomes"], [(entry["suite"], cfg)])
