"""Command-line driver for the verification suites.

Exit status is 0 when every check passes, 1 when any bound is violated
(the report and the text summary carry the count), and 2 on a usage
error, such as a flag the chosen suite does not read. The parser only
parses: every range (seed, trials, dims, m, n, tol) is judged by
``suites.check_config``, which ``run_suite`` runs. Reports are
canonical: keys sorted, floats printed with 17 significant digits, no
timestamps, so identical flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .errors import QilabError
from .suites import MAX_ENCODING_M, SUITES, SuiteConfig, run_suite

REPORT_SCHEMA = 1
# flags a suite does not read: a report must not echo a value its checks ignored
UNREAD_FLAGS = {
    "metrics": ("m", "n"), "info": ("dims", "m", "n"), "encoding": ("n",),
    "transition": ("dims", "m", "n"), "rac": ("trials", "m"), "reduction": ("trials", "m"),
}


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats, non-finite as null."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{canonical_json(str(k))}: {canonical_json(v)}"
            for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}" if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        escaped = (
            obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _parse_dims(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    return int(lo), int(hi or lo)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One stderr line and exit status 2 for any bad flag."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qilab",
        description="Run seeded verification suites over the qilab library.",
    )
    parser.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int, help="override the per-suite default")
    lo, hi = SuiteConfig.dims
    parser.add_argument("--dims", type=_parse_dims, metavar="LO-HI", help=f"default {lo}-{hi}")
    parser.add_argument("--m", type=int, help=f"max encoding width in bits, 1-{MAX_ENCODING_M}")
    parser.add_argument("--n", type=int, help="rac and reduction size")
    parser.add_argument("--tol", type=float, help="override every check tolerance, >= 0")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--format", choices=["json", "text"], default="text")
    return parser


def build_report(args) -> dict:
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SuiteConfig)}
    cfg = SuiteConfig(**{k: v for k, v in flags.items() if v is not None})
    for flag in UNREAD_FLAGS.get(args.suite, ()):
        if getattr(args, flag) is not None:
            raise QilabError(f"the {args.suite} suite does not read --{flag}")
    checks = run_suite(args.suite, cfg)
    return {
        "schema": REPORT_SCHEMA,
        "suite": args.suite,
        "config": dataclasses.asdict(cfg),
        "checks": [c.to_json() for c in checks],
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = build_report(args)
    except (KeyError, QilabError) as exc:
        print(f"qilab: error: {exc}", file=sys.stderr)
        return 2
    text = canonical_json(report) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"qilab: error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    violations = sum(c["violations"] for c in report["checks"])
    if args.format == "json":
        sys.stdout.write(text)
    else:
        for c in report["checks"]:
            status = "PASS" if c["violations"] == 0 else "FAIL"
            print(
                f"{status} {c['name']:32s} trials={c['trials']:5d} "
                f"min_slack={c['min_slack']:+.3e} violations={c['violations']}"
            )
            extras = {k: v for k, v in c["details"].items() if k != "tolerance"}
            for key, value in sorted(extras.items()):
                shown = f"{value:.6g}" if isinstance(value, float) else value
                print(f"     {key} = {shown}")
        print(f"total violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
