"""The sweep and encoding suites build their densities and draws a block
at a time.

At default flags the metrics, info, transition and encoding suites make
no single ``make_density`` call and no ``Stream.gauss_array`` call: their
random and derived densities (the encoding suite's cube averages and
prefix mixtures among them) go through ``make_densities`` and
``random_densities_by_trial``, and their Gaussians through
``rng.complex_gauss_stack``. Per-call counters at those two names (as in
perfbench's tracer) see none of that batched work.
"""

import sys

import pytest

from qilab import rng, states
from qilab.suites import SuiteConfig, run_suite


@pytest.fixture
def counted(monkeypatch):
    calls = {"make_density": 0, "gauss_array": 0}
    make_density, gauss_array = states.make_density, rng.Stream.gauss_array

    def counting_make_density(*args, **kwargs):
        calls["make_density"] += 1
        return make_density(*args, **kwargs)

    def counting_gauss_array(*args, **kwargs):
        calls["gauss_array"] += 1
        return gauss_array(*args, **kwargs)

    # rebind every name the original is reachable under
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qilab" and getattr(module, "make_density", None) is make_density:
            monkeypatch.setattr(module, "make_density", counting_make_density)
    monkeypatch.setattr(rng.Stream, "gauss_array", counting_gauss_array)
    return calls


def test_the_counters_see_single_calls(counted):
    states.reduced_state(states.random_pure(2, 2, 1), "H")
    assert counted == {"make_density": 1, "gauss_array": 1}


@pytest.mark.parametrize("suite", ("metrics", "info", "transition", "encoding"))
def test_sweep_suites_make_no_single_density_or_draw_call(counted, suite):
    run_suite(suite, SuiteConfig(seed=1))
    assert counted == {"make_density": 0, "gauss_array": 0}
