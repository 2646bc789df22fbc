"""The benchmark's workloads: which suites one pass runs, and with what config.

A pass calls the suites through ``qilab.suites.run_suite`` as a library
user would, with ``SuiteConfig(seed=...)`` at default flags (``large-d``
alone also sets ``dims`` and ``trials``), and serialises the checks with
``qilab.cli.canonical_json``. qilab is imported lazily so the orchestrator
can read the workload names without loading numpy.
"""

from __future__ import annotations

WORKLOADS = {
    # sweep, encoding and protocol together run exactly `qilab --suite all`.
    "sweep": (("metrics", {}), ("info", {}), ("transition", {})),
    "encoding": (("encoding", {}),),
    "protocol": (("rac", {}), ("reduction", {})),
    "large-d": (("metrics", {"dims": (192, 256), "trials": 12}),),
}
# The warm-up pass runs every suite of the workload at this trial count, so
# each code path is taken once; rac and reduction ignore it and run in full.
WARMUP_TRIALS = 4


def first_result() -> float:
    """``import qilab`` plus a tiny call that finishes numpy's lazy LAPACK
    set-up (eigvalsh inside make_density, SVD inside trace_distance)."""
    import qilab

    return qilab.trace_distance(qilab.random_density(2, 1, 1), qilab.random_density(2, 2, 2))


def run_pass(workload: str, seed: int, warmup: bool = False) -> tuple[str, list[list]]:
    """Run every suite of ``workload`` once (with few trials if ``warmup``).

    Returns the canonical report text and one ``[check, trials,
    violations, min_slack]`` row per check, ``check`` being
    ``"<suite>.<name>"``.
    """
    from qilab import cli, suites

    checks = []
    rows = []
    for suite, extra in WORKLOADS[workload]:
        if warmup:
            extra = dict(extra, trials=WARMUP_TRIALS)
        for result in suites.run_suite(suite, suites.SuiteConfig(seed=seed, **extra)):
            check = result.to_json()
            check["suite"] = suite
            checks.append(check)
            rows.append(
                [f"{suite}.{result.name}", result.trials, result.violations, result.min_slack]
            )
    report = {"workload": workload, "seed": seed, "checks": checks}
    return cli.canonical_json(report) + "\n", rows
