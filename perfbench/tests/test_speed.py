"""The speed probe samples while code runs and leaves no timer behind.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import signal
import time

import pytest

from perfbench.speed import INTERVAL_S, REFERENCE_S, SpeedProbe, factor_now


def test_probe_samples_while_code_runs_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 10 * INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3
    mean = sum(probe.samples) / len(probe.samples)
    assert probe.factor() == pytest.approx(REFERENCE_S / mean)


def test_factor_is_positive_without_samples():
    assert SpeedProbe().factor() > 0.0
    assert factor_now(5) > 0.0
