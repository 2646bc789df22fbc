"""The correctness gate must catch any drift from the recorded outcomes.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import copy

import pytest

from perfbench import gate

REFERENCE = gate.load_reference()


@pytest.fixture(params=sorted(REFERENCE))
def recorded(request):
    rows = REFERENCE[request.param]["1"]
    return copy.deepcopy(rows), gate.rows_to_outcomes(rows)


def test_recorded_outcome_passes(recorded):
    rows, expected = recorded
    assert gate.failures(rows, expected) == {}


def test_min_slack_moved_by_1e_9_fails(recorded):
    rows, expected = recorded
    rows[0][3] += 1e-9
    assert list(gate.failures(rows, expected)) == [rows[0][0]]


def test_dropped_trial_fails(recorded):
    rows, expected = recorded
    rows[-1][1] -= 1
    assert list(gate.failures(rows, expected)) == [rows[-1][0]]


def test_zero_trials_non_finite_and_missing_checks_fail(recorded):
    rows, expected = recorded
    rows[0][1] = 0
    rows[-1][3] = float("inf")
    gone = rows.pop(1)
    assert set(gate.failures(rows, expected)) == {rows[0][0], rows[-1][0], gone[0]}
    assert set(gate.failures(rows, None)) == {rows[0][0], rows[-1][0]}


def test_unseen_seed_requires_zero_violations_except_by_design():
    rows = copy.deepcopy(REFERENCE["encoding"]["1"])
    floor_half = next(r for r in rows if r[0] in gate.BY_DESIGN)
    assert floor_half[2] > 0
    assert gate.failures(rows, None) == {}
    rows[0][2] = 1
    assert list(gate.failures(rows, None)) == [rows[0][0]]


def _pass(rows, error=None):
    return {"rows": rows, "error": error}


def test_judge_counts_every_check_of_a_raising_pass():
    from perfbench.run import judge

    rows = REFERENCE["large-d"]["1"]
    attempted, failed, reasons = judge("large-d", 1, [_pass(rows), _pass([], "Traceback\nValueError: x")])
    assert (attempted, failed) == (2 * len(rows), len(rows))
    assert reasons == {"pass": "ValueError: x"}


def test_judge_requires_later_passes_to_repeat_the_first_at_unseen_seeds():
    from perfbench.run import judge

    first = REFERENCE["large-d"]["1"]
    later = copy.deepcopy(first)
    later[2][3] += 1e-9
    attempted, failed, reasons = judge("large-d", 7, [_pass(first), _pass(later)])
    assert (attempted, failed) == (2 * len(first), 1)
    assert list(reasons) == [later[2][0]]
