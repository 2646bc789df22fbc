"""The sweep and encoding suites build their densities and draws a block
at a time.

At default flags the metrics, info, transition and encoding suites make
no single ``make_density`` call and no ``Stream.gauss_array`` call: their
random and derived densities (the encoding suite's cube averages and
prefix mixtures among them) go through ``make_densities`` and
``random_density_chunks``, and their Gaussians through
``rng.complex_gauss_stack``. Per-call counters at those two names (as in
perfbench's tracer) see none of that batched work. Box-Muller takes its
``cos`` and ``sin`` as array ufuncs, so these suites make no ``math.cos``
or ``math.sin`` call (a per-value kernel made about 1.0 M per seed-1
large-d pass).

The metrics and transition suites also take their trace norms, Uhlmann
alignments and reduced states a block of trials at a time, and the encoding
suite each column of cubes' distances in stacked calls: none of the three makes a
single-matrix ``singular_values`` or ``svd`` call, and the metrics and
transition suites' ``np.linalg.svd`` calls stay under a ceiling: one per
block and dimension (shape, for an alignment) for each kind. The sweep suites (metrics,
info, transition) take their optimal measurements, canonical purifications,
Haar unitaries and measured informations a block at a time too: they, and
the encoding suite, make no single-matrix ``hermitian_eig`` or
``np.linalg.qr`` call, and a seed-1 sweep pass makes at most 79
``hermitian_eig`` calls (131 while each batch of trials held every shape).

The metrics, info, transition and encoding suites draw their trials' seeds,
ranks and weights as arrays (``rng.derive_seeds``, ``rng.StreamRows``) and
make no ``derive_seed`` call; only encoding makes a ``Stream``, one per
pairing search, under a ceiling.

Every suite hands its verdicts to a ``_Tally`` a column at a time: one
``add`` (or ``agree``) per check and block, shape or column of cubes, and
the reduction suite one per check over all its reports. A seed-1 pass of
all six suites makes 416 such calls (14,164 when each trial's verdict was
handed over as one float).

The exact-transition checks read the residuals that
``transition.exact_local_transitions`` measures and do not apply its
unitaries again.

The sweep suites read their densities as ``(stack, j)`` rows of certified
stacks and build no ``DensityMatrix`` view (a seed-1 pass built 2,000, 12,249
and 5,400 of them through per-density wrappers); each stacked read is bit
for bit the one-item view's. The encoding suite reads columns of cubes as
stacks too and builds none (2,760 while it held each cube as an ensemble of
views, 5,880 while a view per prefix mixture held copies of the cube states).
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from qilab import info, linalg, metrics, rng, states, suites, transition
from qilab.suites import SuiteConfig, run_suite

# hermitian_eig calls per seed-1 suite, each one stacked call per block and
# dimension: with its trials shape-major, the metrics suite certifies its
# random densities in 11 and takes its optimal measurements in 11 (70 while
# each batch held every dim, 308 with a stack per rank and a chunk of 64
# trials); transition 20 before its trials were shape-major; the three sweep
# suites sum to the sweep pass's 79
EIG_BUDGET = {"metrics": 22, "info": 41, "transition": 16, "encoding": 49}
# np.linalg.svd calls per seed-1 suite, stacked or single, trace norms'
# eigvalsh route among them: one per block and dimension for each of the
# metrics suite's fidelities and pure pairs, whose density distances are read
# from the optimal measurements' spectra (48 with an eigvalsh per difference
# as well, 120 while each batch held every dim, 371 with a fidelity SVD per
# rank pair and a trace norm per pure pair's length), and the transition
# suite's alignments per shape and reduced states, distances and fidelities
# per dimension (48 while each batch held every shape, 145 with a fidelity SVD
# per rank pair)
SVD_BUDGET = {"metrics": 37, "info": 0, "transition": 33}
# (derive_seed calls, Stream constructions) per seed-1 suite: every seed is
# drawn as arrays, and encoding makes a Stream per pairing's shuffle
# (6000/2000, 8249/1000, 2801/2200 and 2980/2770 when each trial drew
# through Streams; encoding 420/210 with a derive_seed per cube, transition
# 401/0 with one per transition_bound_sweep seed)
SEED_BUDGET = {"metrics": (0, 0), "info": (0, 0), "transition": (0, 0), "encoding": (0, 210)}
# _Tally.add calls (agree's among them) per seed-1 suite: one per check and
# group of a block (its trials of one shape) or column of cubes, one per block
# for the metrics' Kronecker check, one per check for info's two grids and for
# rac, and for reduction one per check over all its reports (5000, 4362, 1098,
# 3600, 16 and 88 with a call per trial, report or value)
TALLY_BUDGET = {
    "metrics": 49, "info": 68, "encoding": 267, "transition": 17, "rac": 6, "reduction": 9
}
# apply_k_unitaries calls per seed-1 suite: a scramble and an alignment per
# block of the transition suite's exact trials (one block at seed 1), one
# alignment for all of the reduction's P' -> P'' steps (8 while each step
# aligned its own)
APPLY_BUDGET = {"transition": 8, "reduction": 1}
# DensityMatrix views built per seed-1 suite (encoding 2,760 while it built an
# ensemble per cube)
VIEW_BUDGET = {"metrics": 0, "info": 0, "transition": 0, "encoding": 0}


@pytest.fixture
def counted(monkeypatch):
    names = ("make_density", "gauss_array", "hermitian_eig", "single_eig", "svd", "singular_values")
    calls = dict.fromkeys((*names, "qr", "np_svd", "cos", "sin"), 0)
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
    counting(math, "cos", single_only=False)  # Box-Muller's per-value libm calls
    counting(math, "sin", single_only=False)
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls["np_svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_the_counters_see_single_calls(counted):
    v = states.random_pure(2, 2, 1).vec
    states.make_density(linalg.partial_trace(np.outer(v, v.conj()), 2, 2, "H"))
    linalg.svd(np.eye(2))
    linalg.singular_values(np.eye(2)[None])
    linalg.hermitian_eig(np.eye(2))  # make_density's own is a stack of one
    np.linalg.qr(np.eye(2))
    np.linalg.qr(np.eye(2)[None])
    math.cos(0.0), math.sin(0.0)
    assert counted == {
        "make_density": 1,
        "gauss_array": 1,
        "hermitian_eig": 2,
        "single_eig": 1,
        "svd": 1,
        "singular_values": 0,
        "qr": 1,
        "np_svd": 2,
        "cos": 1,
        "sin": 1,
    }


@pytest.mark.parametrize("suite", ("metrics", "info", "transition", "encoding"))
def test_sweep_suites_make_no_single_density_or_draw_call(counted, suite):
    run_suite(suite, SuiteConfig(seed=1))
    assert counted["make_density"] == counted["gauss_array"] == 0
    assert counted["cos"] == counted["sin"] == 0
    assert counted["hermitian_eig"] <= EIG_BUDGET.get(suite, np.inf)
    if suite in ("metrics", "transition", "encoding"):
        assert counted["svd"] == counted["singular_values"] == 0
    if suite in EIG_BUDGET:
        assert counted["single_eig"] == counted["qr"] == 0
    assert counted["np_svd"] <= SVD_BUDGET.get(suite, np.inf)


def test_large_d_decomposes_each_difference_once(monkeypatch):
    # the large-d workload's metrics pass: each stack of differences r1 - r2
    # goes to one certified eigendecomposition, which gives both its trace
    # norms and its optimal measurements (72 singular_values calls with an
    # eigvalsh per difference as well)
    calls = {"singular_values": 0, "hermitian_eig": 0}
    for name in calls:
        real = getattr(linalg, name)

        def count(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, count)
    run_suite("metrics", SuiteConfig(seed=1, dims=(192, 256), trials=12))
    assert calls == {"singular_values": 60, "hermitian_eig": 36}


def test_aligned_trials_build_no_state_or_result(monkeypatch):
    built = []
    for cls in (states.BipartitePureState, transition.TransitionResult):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init: built.append(1) or init(self, *a))
    t = np.arange(40)
    sides = [(1 + t % 2, 2 * t), (np.full(40, 2), 2 * t + 1)]
    specs = np.stack([np.stack([2 + t % 3, rank, seed], -1) for rank, seed in sides], axis=1)
    aligned = []
    for chunk in states.random_density_chunks([((t,), specs)]):
        for group in chunk:
            (k,), (rho, _), _ = group
            aligned += zip(*transition.aligned_trials(group, rho.mats.shape[-1] + k % 2))
    assert len(aligned) == 40 and not built
    assert all(type(x) is np.float64 for row in aligned for x in row)
    phi = states.random_pure(2, 2, 1)
    transition.uhlmann_align(phi, phi)
    assert len(built) == 2  # the counters see a state and a result built


def test_the_metrics_suite_hands_its_pure_pairs_over_as_stacks(monkeypatch):
    # a (pairs, 2, d) array per block and dim, not a list of 1,000 pairs a pass
    handed = []
    real = metrics.pure_trace_distances
    monkeypatch.setattr(metrics, "pure_trace_distances", lambda v: handed.append(v) or real(v))
    run_suite("metrics", SuiteConfig(seed=1, trials=65))
    assert all(isinstance(v, np.ndarray) and v.shape[1] == 2 for v in handed)
    assert sum(map(len, handed)) == 65 and len(handed) == 7


def test_a_spent_block_is_freed_before_the_next_is_built(monkeypatch):
    # at d = 203 every metrics trial is a block of its own; when the next one
    # is built, no spent trial's densities (2 x 1.3 MB) may still be alive
    alive = []
    block_columns = states._block_columns

    def noting(*args):
        alive.append(tracemalloc.get_traced_memory()[0])
        return block_columns(*args)

    monkeypatch.setattr(states, "_block_columns", noting)
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


@pytest.mark.parametrize("suite", sorted(APPLY_BUDGET))
def test_exact_transitions_apply_each_unitary_once(monkeypatch, suite):
    calls = []
    real = transition.apply_k_unitaries

    def counting(pairs):
        calls.append(1)
        return real(pairs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qilab" and getattr(module, "apply_k_unitaries", None) is real:
            monkeypatch.setattr(module, "apply_k_unitaries", counting)
    run_suite(suite, SuiteConfig(seed=1))
    assert 0 < len(calls) <= APPLY_BUDGET[suite]


@pytest.mark.parametrize("suite", sorted(SEED_BUDGET))
def test_sweep_suites_draw_their_seeds_as_arrays(monkeypatch, suite):
    calls = {"derive_seed": 0, "Stream": 0}
    derive_seed, stream_init = rng.derive_seed, rng.Stream.__init__

    def counting_derive_seed(*args):
        calls["derive_seed"] += 1
        return derive_seed(*args)

    def counting_init(self, *args):
        calls["Stream"] += 1
        stream_init(self, *args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qilab" and getattr(module, "derive_seed", None) is derive_seed:
            monkeypatch.setattr(module, "derive_seed", counting_derive_seed)
    monkeypatch.setattr(rng.Stream, "__init__", counting_init)
    run_suite(suite, SuiteConfig(seed=1))
    seed_calls, streams = calls["derive_seed"], calls["Stream"]
    assert seed_calls <= SEED_BUDGET[suite][0] and streams <= SEED_BUDGET[suite][1]
    suites.derive_seed(1, 2), rng.Stream(1)  # the counters see a single call
    assert (calls["derive_seed"], calls["Stream"]) == (seed_calls + 1, streams + 1)


@pytest.mark.parametrize("suite", sorted(TALLY_BUDGET))
def test_suites_tally_their_verdicts_a_column_at_a_time(monkeypatch, suite):
    calls = []
    add = suites._Tally.add

    def counting(self, *args, **kwargs):
        calls.append(1)
        return add(self, *args, **kwargs)

    monkeypatch.setattr(suites._Tally, "add", counting)
    run_suite(suite, SuiteConfig(seed=1))
    assert 0 < len(calls) <= TALLY_BUDGET[suite]


@pytest.mark.parametrize("suite", sorted(VIEW_BUDGET))
def test_sweep_suites_build_no_density_view(monkeypatch, suite):
    built = []
    new = states.DensityMatrix.__new__

    def counting(cls, *args, **kwargs):
        built.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(states.DensityMatrix, "__new__", counting)
    run_suite(suite, SuiteConfig(seed=1))
    views = len(built)
    assert views <= VIEW_BUDGET[suite]
    states.random_density(2, 1, 1)  # the counter sees a one-item build
    assert len(built) == views + 1


def test_stacked_reads_are_their_one_item_views_bitwise():
    # the info suite's rows, random and derived (ranks mixed, d up to 16 with
    # the block matrices, so entropies with dropped eigenvalues at d >= 8)
    chunks = states.random_density_chunks(suites._info_trials(5, 60), suites._info_derived)
    for chunk in chunks:
        measured = {}  # per ensemble size: its trials' ensembles and projectors
        for (priors, *_), stacks, (z,) in chunk:
            for stack in stacks:
                for j in range(len(stack.mats)):
                    view = states.DensityMatrix(stack, j)
                    alone = states.make_density(stack.mats[j], 1e-8)  # a stack of one
                    for rho in (view, alone):
                        assert stack.entropies[j] == info.von_neumann_entropy(rho) == rho.entropy
                        assert stack.eigenvalues[j].tobytes() == rho.eig.eigenvalues.tobytes()
                        assert stack.eigenvectors[j].tobytes() == rho.eig.eigenvectors.tobytes()
                        assert stack.mats[j].tobytes() == rho.mat.tobytes()
            n = priors.shape[1]
            for i, u in enumerate(map(states.unitary_from_gauss, z)):
                rows = [states.DensityMatrix(s, i) for s in stacks[:n]]
                e = info.make_ensemble(map(str, range(n)), priors[i], rows)
                projs = [np.outer(u[:, c], np.conj(u[:, c])) for c in range(n)]
                measured.setdefault(n, []).append((e, projs))
        for items in measured.values():
            es, projs = zip(*items)
            stacked = info.measured_mutual_infos([e.priors for e in es], [e.mats for e in es], projs)
            assert stacked.tolist() == [info.measured_mutual_info(e, p) for e, p in items]
