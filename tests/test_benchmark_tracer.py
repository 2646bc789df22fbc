"""The benchmark's tracer against the encoding suite.

``perfbench/tracing.py`` wraps qilab's public functions and reads the
ensembles that ``encoding.pairwise_distance_matrix`` gets (their priors
and each state's ``.mat``). Here the tracer is installed around a short
encoding pass: the report must be byte-identical to the untraced one, and
the hook must see each of the pass's ensembles once. The file is only
read, loaded by its path.
"""

import importlib.util
from pathlib import Path

from qilab import cli
from qilab.suites import SuiteConfig, run_suite

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _report(cfg):
    return cli.canonical_json([r.to_json() for r in run_suite("encoding", cfg)])


def test_a_traced_encoding_pass_is_byte_identical_and_sees_every_ensemble():
    # 10 cubes of the main loop and 10 of the exhaustive pairings
    cfg = SuiteConfig(seed=1, trials=10)
    untraced = _report(cfg)
    tracer = _tracer()
    tracer.install()
    try:
        traced = _report(cfg)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.layer_metrics()["encoding.ensembles"] == 20
