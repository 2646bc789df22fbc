"""Print the table of checks, ``qilab.suites.CHECKS``, as README's check table.

Run from the repository root:

    python3 tools/check_table.py

It prints one Markdown row per reported check, in ``--suite all`` order:
its suite and name, its rule, its default tolerance (marked "fixed" where
``--tol`` does not override it), its statement and its source. README's
"Verification suites" section holds this output verbatim, and
``tests/test_check_table.py`` compares the two.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qilab.suites import CHECKS  # noqa: E402


def table() -> str:
    lines = [
        "| suite | check | rule | tolerance | statement | source |",
        "|---|---|---|---|---|---|",
    ]
    for c in CHECKS:
        tol = f"{c.tol:g}" + (" (fixed)" if c.fixed else "")
        statement = c.statement.replace("|", "\\|")  # a bare | would end the cell
        lines.append(f"| {c.suite} | `{c.name}` | {c.rule} | {tol} | `{statement}` | {c.source} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(table())
