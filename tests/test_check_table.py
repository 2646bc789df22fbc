"""The table of checks against every list of check names.

``suites.CHECKS`` declares each reported check once: its suite, name,
rule, default tolerance (and whether ``--tol`` overrides it), statement
and source. Here its names and order must equal those of a full
``--suite all`` run, of each suite's rows in ``perfbench/reference.json``
and of every entry of ``tests/reference_outcomes.json``, so that a check
added without a row, or a row without a check, fails here. Each reported
tolerance is the row's, or ``--tol``'s where the row is not fixed.
README's check table is ``tools/check_table.py``'s output. The two JSON
files and the tool are only read.
"""

import importlib.util
import json
from collections import defaultdict
from pathlib import Path

import pytest

from qilab.suites import CHECKS, SUITES, SuiteConfig, run_suite

ROOT = Path(__file__).resolve().parents[1]
NAMES = [c.name for c in CHECKS]


def _names_by_suite(rows):
    """Per suite, the names of ``[suite.check, ...]`` rows, in row order."""
    out = defaultdict(list)
    for row in rows:
        suite, name = row[0].split(".", 1)
        out[suite].append(name)
    return out


def _table_names(suite):
    return [c.name for c in CHECKS if c.suite == suite]


def test_rows_are_unique_and_complete():
    assert len(set(NAMES)) == len(NAMES) == 41
    assert [c.suite for c in CHECKS] == sorted((c.suite for c in CHECKS), key=list(SUITES).index)
    for c in CHECKS:
        assert c.statement and c.source, c.name
        assert c.rule in ("add", "agree") and c.tol >= 0.0, c.name
        assert not c.fixed or c.tol == 0.0, c.name


def test_a_full_run_reports_the_table_in_order_at_its_tolerances():
    results = run_suite("all", SuiteConfig())
    assert [r.name for r in results] == NAMES
    assert [r.details["tolerance"] for r in results] == [c.tol for c in CHECKS]


@pytest.mark.parametrize("suite", SUITES)
def test_tol_reaches_every_row_but_the_fixed_ones(suite):
    results = run_suite(suite, SuiteConfig(tol=0.5, trials=3))
    assert [r.name for r in results] == _table_names(suite)
    rows = {c.name: c for c in CHECKS}
    for r in results:
        assert r.details["tolerance"] == (0.0 if rows[r.name].fixed else 0.5), r.name


def test_the_benchmark_reference_names_the_table_per_suite():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    seen = set()
    for workload, by_seed in reference.items():
        for seed, rows in by_seed.items():
            for suite, names in _names_by_suite(rows).items():
                assert names == _table_names(suite), (workload, seed, suite)
                seen.add(suite)
    assert seen == set(SUITES)


def test_every_recorded_outcome_names_the_table():
    outcomes = json.loads((ROOT / "tests" / "reference_outcomes.json").read_text(encoding="utf-8"))
    runs = {(entry["suite"], entry["flags"].get("n")) for entry in outcomes}
    assert {("rac", n) for n in (3, 5)} | {("reduction", n) for n in (1, 3, 4, 5)} <= runs
    for entry in outcomes:
        by_suite = _names_by_suite(entry["outcomes"])
        assert dict(by_suite) == {entry["suite"]: _table_names(entry["suite"])}, entry["flags"]


def test_readme_holds_the_generated_check_table():
    spec = importlib.util.spec_from_file_location("check_table", ROOT / "tools" / "check_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    table = tool.table()
    assert table.count("\n") == len(CHECKS) + 2
    assert table in (ROOT / "README.md").read_text(encoding="utf-8")
