"""The tracer must be invisible to results and exact in its arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import numpy as np
import pytest

import qilab
from perfbench.tracing import Tracer, outermost_total, self_times
from qilab import cli, encoding, linalg, metrics, rng, suites
from qilab.errors import HermiticityError
from qilab.states import random_density


def test_wrapper_returns_the_original_value():
    tracer = Tracer()
    traced = tracer.wrap(metrics.trace_distance, "metrics.trace_distance")
    r1, r2 = random_density(4, 2, 11), random_density(4, 3, 12)
    assert traced(r1, r2) == metrics.trace_distance(r1, r2)
    assert list(tracer.fn) == [0] and list(tracer.parent) == [-1]
    assert tracer.end[0] >= tracer.start[0]


def test_wrapper_raises_the_original_exception():
    tracer = Tracer()
    traced = tracer.wrap(linalg.hermitian_eig, "linalg.hermitian_eig")
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(HermiticityError) as original:
        linalg.hermitian_eig(bad)
    with pytest.raises(HermiticityError) as wrapped:
        traced(bad)
    assert str(wrapped.value) == str(original.value)
    assert tracer.exceptions == 1
    assert tracer._stack == [-1]
    assert tracer.end[0] >= tracer.start[0]


def test_install_rebinds_every_import_site_and_uninstall_restores():
    originals = (
        metrics.trace_distance,
        encoding.trace_distance,
        qilab.trace_distance,
        suites.SUITES["metrics"],
        rng.Stream.gauss_array,
        rng.Stream.__init__,
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert encoding.trace_distance is metrics.trace_distance
        assert qilab.trace_distance is metrics.trace_distance
        assert metrics.trace_distance is not originals[0]
        assert suites.SUITES["metrics"] is suites.metrics_suite is not originals[3]
        assert rng.Stream.gauss_array is not originals[4]
        assert rng.Stream.gauss is rng.Stream.__dict__["gauss"]
        assert "rng.mix64" not in tracer.names
    finally:
        tracer.uninstall()
    assert (
        metrics.trace_distance,
        encoding.trace_distance,
        qilab.trace_distance,
        suites.SUITES["metrics"],
        rng.Stream.gauss_array,
        rng.Stream.__init__,
    ) == originals


def _report(cfg):
    return cli.canonical_json([c.to_json() for c in suites.run_suite("metrics", cfg)])


def test_traced_report_is_byte_identical_and_counts_repeat():
    cfg = suites.SuiteConfig(seed=3, trials=12)
    plain = _report(cfg)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert _report(cfg) == plain
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        counts.append({k: v for k, v in layers.items() if not k.endswith("_s")})
        assert layers["suites.metrics.total_s"] > 0.0
    assert counts[0] == counts[1]
    assert counts[0]["rng.gauss_draws"] > 0


def test_self_time_on_a_nested_span_tree():
    # root [0, 10] has children a [1, 4] and c [5, 9]; a has child b [2, 3].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = self_times(parent, end - start)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(10.0)


def test_direct_recursion_is_counted_once():
    # f [0, 6] calls f [1, 5], which calls g [2, 3]; a second f [7, 8].
    fn = np.array([0, 0, 1, 0])
    parent = np.array([-1, 0, 1, -1])
    dur = np.array([6.0, 4.0, 1.0, 1.0])
    assert outermost_total(fn, parent, dur, 0) == pytest.approx(7.0)
    assert outermost_total(fn, parent, dur, 1) == pytest.approx(1.0)
