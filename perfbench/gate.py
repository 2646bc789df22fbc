"""Correctness gate: every pass must reach the recorded outcome.

At the seeds in ``reference.json`` (1 and 2, recorded from the seed
commit) each check must repeat its trial and violation counts exactly and
its ``min_slack`` within ``SLACK_TOL``. At any other seed every check
must have zero violations, except the by-design ones, whose counts are
reported and not judged. A check with zero trials or a non-finite
``min_slack`` fails at every seed, as does a check that is missing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SLACK_TOL = 1e-12
# The half-argument floor is refuted for multi-bit ensembles on purpose.
BY_DESIGN = frozenset({"encoding.info_floor_half"})


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def rows_to_outcomes(rows) -> dict[str, tuple[int, int, float]]:
    return {check: (trials, violations, slack) for check, trials, violations, slack in rows}


def failures(rows, expected: dict | None) -> dict[str, str]:
    """Map each failed check of one pass to the reason it failed.

    ``expected`` maps a check to its ``(trials, violations, min_slack)``;
    without it, only the zero-violation rule applies.
    """
    out = {}
    got = rows_to_outcomes(rows)
    for check, (trials, violations, slack) in got.items():
        if trials < 1:
            out[check] = "zero trials"
        elif not math.isfinite(slack):
            out[check] = f"non-finite min_slack {slack}"
        elif expected is None:
            if violations and check not in BY_DESIGN:
                out[check] = f"{violations} violations"
        elif check not in expected:
            out[check] = "not in the reference"
        else:
            ref_trials, ref_violations, ref_slack = expected[check]
            if (trials, violations) != (ref_trials, ref_violations):
                out[check] = (
                    f"trials/violations {trials}/{violations}, "
                    f"expected {ref_trials}/{ref_violations}"
                )
            elif abs(slack - ref_slack) > SLACK_TOL:
                out[check] = f"min_slack {slack!r}, expected {ref_slack!r}"
    for check in (expected or {}).keys() - got.keys():
        out[check] = "missing"
    return out
