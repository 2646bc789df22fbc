"""The sweep and encoding suites build their densities and draws a block
at a time.

At default flags the metrics, info, transition and encoding suites make
no single ``make_density`` call and no ``Stream.gauss_array`` call: their
random and derived densities (the encoding suite's cube averages and
prefix mixtures among them) go through ``make_densities`` and
``random_densities_by_trial``, and their Gaussians through
``rng.complex_gauss_stack``. Per-call counters at those two names (as in
perfbench's tracer) see none of that batched work.

The metrics and transition suites also take their trace norms, Uhlmann
alignments and reduced states a chunk of trials at a time: they make no
single-matrix ``singular_values`` or ``svd`` call. The sweep suites (metrics,
info, transition) take their optimal measurements, canonical purifications,
Haar unitaries and measured informations a chunk at a time too: they make
no single-matrix ``hermitian_eig`` or ``np.linalg.qr`` call, and a seed-1
sweep pass makes at most 520 ``hermitian_eig`` calls.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from qilab import linalg, rng, states
from qilab.suites import SuiteConfig, run_suite

# hermitian_eig calls per seed-1 suite, each one stacked call per chunk and
# shape: the metrics suite certifies its random densities in 175 and takes
# its optimal measurements in 133; the three sum to the sweep pass's 520
EIG_BUDGET = {"metrics": 320, "info": 100, "transition": 100}


@pytest.fixture
def counted(monkeypatch):
    calls = dict.fromkeys(
        ("make_density", "gauss_array", "hermitian_eig", "single_eig", "svd", "singular_values", "qr"), 0
    )
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

    def counting(module, name, single_only):
        real = getattr(module, name)

        def count(a, *args, **kwargs):
            calls[name] += not single_only or np.ndim(a) == 2
            calls["single_eig"] += name == "hermitian_eig" and np.ndim(a) == 2
            return real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counting(linalg, "hermitian_eig", single_only=False)
    counting(linalg, "svd", single_only=True)  # the SVDs and QRs count only on a single matrix
    counting(linalg, "singular_values", single_only=True)
    counting(np.linalg, "qr", single_only=True)
    return calls


def test_the_counters_see_single_calls(counted):
    states.reduced_state(states.random_pure(2, 2, 1), "H")
    linalg.svd(np.eye(2))
    linalg.singular_values(np.eye(2)[None])
    linalg.hermitian_eig(np.eye(2)[None])
    np.linalg.qr(np.eye(2))
    np.linalg.qr(np.eye(2)[None])
    assert counted == {
        "make_density": 1,
        "gauss_array": 1,
        "hermitian_eig": 2,
        "single_eig": 1,
        "svd": 1,
        "singular_values": 0,
        "qr": 1,
    }


@pytest.mark.parametrize("suite", ("metrics", "info", "transition", "encoding"))
def test_sweep_suites_make_no_single_density_or_draw_call(counted, suite):
    run_suite(suite, SuiteConfig(seed=1))
    assert counted["make_density"] == counted["gauss_array"] == 0
    assert counted["hermitian_eig"] <= EIG_BUDGET.get(suite, np.inf)
    if suite in ("metrics", "transition"):
        assert counted["svd"] == counted["singular_values"] == 0
    if suite in EIG_BUDGET:
        assert counted["single_eig"] == counted["qr"] == 0


def test_a_spent_block_is_freed_before_the_next_is_built(monkeypatch):
    # at d = 203 every metrics trial is a block of its own; when the next one
    # is built, no spent trial's densities (2 x 1.3 MB) may still be alive
    alive = []
    block_trials = states._block_trials

    def noting(*args):
        alive.append(tracemalloc.get_traced_memory()[0])
        return block_trials(*args)

    monkeypatch.setattr(states, "_block_trials", noting)
    cfg = SuiteConfig(dims=(203, 203), trials=3)
    run_suite("metrics", cfg)  # numpy's and LAPACK's one-off allocations
    alive.clear()
    tracemalloc.start()
    try:
        run_suite("metrics", cfg)
    finally:
        tracemalloc.stop()
    one_trial = 2 * (2 * 203 * 203 * 16 + 203 * 8)
    assert len(alive) == 3 and max(alive) < one_trial / 4
