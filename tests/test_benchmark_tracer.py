"""The benchmark's tracer against the encoding suite.

``perfbench/tracing.py`` wraps qilab's public functions and records a span
per call. Here the tracer is installed around a short encoding pass: the
report must be byte-identical to the untraced one, and the spans must show
the suite's distances taken a column of cubes at a time, one
``encoding.pairwise_distances`` call per column of one ``(m, dim)``. The
file is only read, loaded by its path.

The benchmark also reads qilab by name: ``Tracer.layer_metrics`` looks up
its functions' spans by key, and perfbench's own tests call a few more
names. The traced pass ends with ``layer_metrics``, and each of those
names must exist, so that deleting one fails here and not first in a
``--trace 1`` run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import qilab
from qilab import cli, encoding, rng, states
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
    # 10 cubes of the main loop, of 10 distinct (m, dim), and 10 of the
    # exhaustive pairings, at m = 3 and dims 2-4: 13 columns of 20 cubes
    cfg = SuiteConfig(seed=1, trials=10)
    untraced = _report(cfg)
    tracer = _tracer()
    tracer.install()
    try:
        traced = _report(cfg)
    finally:
        tracer.uninstall()
    assert traced == untraced
    spans = tracer.arrays()
    assert np.sum(spans["names"][spans["fn"]] == "encoding.pairwise_distances") == 13
    layers = tracer.layer_metrics()  # a KeyError if a name it looks up is gone
    assert layers["suites.encoding.total_s"] > 0.0
    # the names perfbench/tests/test_tracing.py reads
    for owner, name in (
        (rng.Stream, "gauss"),
        (rng.Stream, "gauss_array"),
        (encoding, "trace_distance"),
        (qilab, "trace_distance"),
        (states, "random_density"),
    ):
        assert callable(getattr(owner, name, None)), name
