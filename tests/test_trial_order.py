"""The sweep and encoding suites hand their trials over shape-major.

``suites._batches`` sorts a suite's trial indices stably by the shape key its
stacked calls split on (metrics: dim; info: t mod 6; transition's pairs:
(dim, dim_k), its exact trials: t mod 3; encoding's cubes: (m, dim)), so a
block of ``states.random_density_chunks`` splits into few shapes. Each
generator must still hand over every trial index exactly once, each shape as
one contiguous run, and every report must equal the one made from trials in
index order: a tally keeps only counts and a least slack, so the order the
trials arrive in does not show. ``transition_bound_sweep``, which records a
worst seed, has one shape and keeps index order.

``_Tally`` takes its trials a column at a time, and however a run of trials is
cut into columns it counts them as the scalar rule fed one trial at a time.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qilab import suites
from qilab.suites import CHUNK_TRIALS, SuiteConfig, run_suite


def _index_order(trials, *keys):
    """The reference: indices ``0 ... trials - 1`` in order, cut where the first
    key changes (its generators assume one value of it to a batch) and at
    :data:`CHUNK_TRIALS`."""
    t = np.arange(trials)
    for run in np.split(t, np.flatnonzero(np.diff(keys[0])) + 1) if keys else [t]:
        for lo in range(0, len(run), CHUNK_TRIALS):
            yield run[lo : lo + CHUNK_TRIALS]


def _handed_over(monkeypatch, suite, cfg, index_order=False):
    """The suite's report, and per ``random_density_chunks`` call the batches
    its generator handed over."""
    handed = []
    real = suites.random_density_chunks

    def recording(trials, derive=None):
        handed.append(list(trials))
        return real(handed[-1], derive)

    with monkeypatch.context() as patch:
        patch.setattr(suites, "random_density_chunks", recording)
        if index_order:
            patch.setattr(suites, "_batches", _index_order)
        report = [r.to_json() for r in run_suite(suite, cfg)]
    return json.dumps(report, sort_keys=True), handed


def _ids(batches):
    """Each trial's first spec seed, in the order handed over: unique per trial."""
    return [s for _, specs, *_ in batches for s in np.asarray(specs)[:, 0, 2].tolist()]


def _shapes(batches):
    """Each trial's shape, as the block engine splits on it: its specs' and draws' dims."""
    out = []
    for _, specs, *draws in batches:
        draw_dims = (np.asarray(d)[:, :, :2].reshape(len(d), -1) for d in draws)
        dims = [np.asarray(specs)[:, :, 0], *draw_dims]
        out += map(tuple, np.concatenate(dims, axis=1).tolist())
    return out


def _contiguous(shapes) -> bool:
    runs = [shape for shape, _ in itertools.groupby(shapes)]
    return len(runs) == len(set(runs))


@pytest.mark.parametrize("trials", [7, 65, 1000])
@pytest.mark.parametrize("keys", [0, 1, 2])
def test_batches_sort_stably_by_the_shape_keys_and_cut_at_the_first(trials, keys):
    t = np.arange(trials)
    key_arrays = [t % 7, (t // 3) % 2][:keys]
    batches = list(suites._batches(trials, *key_arrays))
    order = np.concatenate(batches)
    assert sorted(order.tolist()) == t.tolist()
    assert order.tolist() == sorted(t.tolist(), key=lambda i: [k[i] for k in key_arrays])
    assert all(0 < len(b) <= CHUNK_TRIALS for b in batches)
    if keys:
        assert all(len(set(key_arrays[0][b].tolist())) == 1 for b in batches)
        assert len(batches) == sum(-(-n // CHUNK_TRIALS) for n in np.bincount(key_arrays[0]) if n)
    else:
        assert len(batches) == -(-trials // CHUNK_TRIALS)


# --trials values that leave a batch partly filled, and the defaults (None), at
# seeds 1-3; 1000 trials (encoding's takes 2.5 s a seed) at seed 1
CASES = [(trials, seed) for trials in (7, 65, None) for seed in (1, 2, 3)] + [(1000, 1)]


@pytest.mark.parametrize("trials, seed", CASES)
@pytest.mark.parametrize("suite", ["metrics", "info", "transition", "encoding"])
def test_shape_major_trials_are_each_index_once_and_report_as_index_order(
    monkeypatch, suite, trials, seed
):
    cfg = SuiteConfig(seed=seed, trials=trials)
    report, handed = _handed_over(monkeypatch, suite, cfg)
    reference, in_order = _handed_over(monkeypatch, suite, cfg, index_order=True)
    assert report == reference
    assert len(handed) == len(in_order) == {"transition": 3, "encoding": 2}.get(suite, 1)
    for batches, ref in zip(handed, in_order):
        ids, ref_ids = _ids(batches), _ids(ref)
        assert len(set(ids)) == len(ids) and sorted(ids) == sorted(ref_ids)
        assert _contiguous(_shapes(batches))
        assert all(len(b[1]) <= CHUNK_TRIALS for b in batches)
    if suite == "transition":
        t = np.concatenate([keys[0] for keys, *_ in handed[0]])  # the pairs' (dim, dim_k)
        dims = np.array([shape[0] for shape in _shapes(handed[0])])
        assert _contiguous(zip(dims.tolist(), (dims + t % (7 - dims)).tolist()))
        assert _ids(handed[2]) == _ids(in_order[2])  # the sweep's worst seed: index order


def test_a_tie_keeps_the_first_trial_and_its_zero_sign():
    for first, second in ((0.0, -0.0), (-0.0, 0.0), (0.25, 0.25)):
        tally = suites._Tally("tie", 1e-9)
        tally.add(first, seed=1)
        tally.add(second, seed=2)
        assert math.copysign(1.0, tally.min_slack) == math.copysign(1.0, first)
        assert tally.details["worst_instance_seed"] == 1


class _ScalarTally:
    """The reference: a tally fed one trial at a time, as ``_Tally.add`` and
    ``agree`` counted before they took columns."""

    def __init__(self, tol):
        self.tol, self.min_slack, self.worst = tol, math.inf, None
        self.violations = self.trials = 0

    def add(self, slack, seed=None, ok=True):
        self.trials += 1
        slack = float(slack)
        if not math.isfinite(slack):
            slack = math.nan
        if slack < self.min_slack or (math.isnan(slack) and not math.isnan(self.min_slack)):
            self.min_slack = slack
            if seed is not None:
                self.worst = seed
        passed = ok and slack >= -self.tol
        self.violations += not passed
        return passed

    def agree(self, error, seed=None):
        error = abs(float(error))
        return self.add(self.tol - error, seed, ok=error <= self.tol)


def _column(gen, n, tol, pool):
    """``n`` values drawn from ``pool``: "all" mixes NaN, +-inf, 0.0 / -0.0,
    +-tol exactly, their neighbouring floats and repeated ordinary values;
    "finite" leaves out NaN and +-inf; "zero ties" holds no negative value, so
    its least slack is a 0.0 / -0.0 tie."""
    ordinary = (gen.standard_normal(4) * 3 * tol).tolist()
    if pool == "zero ties":
        values = [0.0, -0.0, tol, 2 * tol, *map(abs, ordinary)]
    else:
        values = [0.0, -0.0, tol, -tol, 2 * tol, -2 * tol, *ordinary]
        values += [np.nextafter(tol, 1.0), np.nextafter(-tol, -1.0), np.nextafter(tol, 0.0)]
        values += [math.nan, math.inf, -math.inf] if pool == "all" else []
    values = np.array(values)
    return values[gen.integers(len(values), size=n)]


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("pool", ["all", "finite", "zero ties"])
@pytest.mark.parametrize("kind", ["add", "agree"])
def test_a_column_tally_counts_as_the_scalar_rule(kind, pool, case):
    # columns cut at random points, empty pieces included, against the same
    # trials fed one at a time
    gen = np.random.default_rng([case, len(pool), len(kind)])
    tol = [1e-9, 0.0, 0.25][case % 3]
    n = int(gen.integers(1, 40)) if case else 0  # case 0: a check that ran no trial
    values = _column(gen, n, tol, pool)
    seeds = gen.integers(2**63, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    oks = gen.random(n) < 0.8
    cuts = np.sort(gen.integers(0, n + 1, size=int(gen.integers(0, 5))))
    tally, reference = suites._Tally("x", tol), _ScalarTally(tol)
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), n]):
        column, seed = values[lo:hi], seeds[lo:hi]
        if kind == "agree":
            passed = tally.agree(column, seed)
            expected = [reference.agree(e, s) for e, s in zip(column.tolist(), seed.tolist())]
        elif (lo + case) % 2:  # ok one flag per column, no seed
            ok = bool(oks[lo]) if hi > lo else True
            passed = tally.add(column, ok=ok)
            expected = [reference.add(x, ok=ok) for x in column.tolist()]
        else:
            passed = tally.add(column, seed, ok=oks[lo:hi])
            rows = zip(column.tolist(), seed.tolist(), oks[lo:hi].tolist())
            expected = [reference.add(x, s, ok) for x, s, ok in rows]
        assert passed.dtype == bool and passed.tolist() == expected
    assert (tally.trials, tally.violations) == (reference.trials, reference.violations)
    got, want = tally.min_slack, reference.min_slack
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert tally.details.get("worst_instance_seed") == reference.worst
    assert tally.result().violations == (reference.violations if n else 1)


def test_a_scalar_is_a_column_of_one_and_an_array_is_read_in_c_order():
    tally = suites._Tally("x", 1e-9)
    assert tally.add(-0.5, seed=7).tolist() == [False]
    passed = tally.add([[0.0, -2.0], [-2.0, 1.0]], seed=[1, 2, 3, 4])
    assert passed.tolist() == [True, False, False, True]
    assert (tally.trials, tally.violations, tally.min_slack) == (5, 3, -2.0)
    assert tally.details["worst_instance_seed"] == 2
