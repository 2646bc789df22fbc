import numpy as np
import pytest

from qilab import info, linalg, metrics, states
from qilab.errors import (
    HermiticityError,
    NormalizationError,
    NotPositiveError,
    RankError,
    SizeError,
    TraceError,
)
from qilab.rng import Stream


def test_make_density_accepts_maximally_mixed():
    rho = states.make_density(np.eye(2) / 2)
    assert rho.dim == 2


def test_make_density_accepts_plus_state():
    states.make_density(np.full((2, 2), 0.5))


def test_eig_decomposed_once_per_density(monkeypatch):
    # counted from construction on: make_density's validating decomposition
    # is the one every later read gets, and no second eigensolver runs
    calls = []
    original = linalg.hermitian_eig

    def counted(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(linalg, "hermitian_eig", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    rho = states.random_density(3, 2, 41)
    sigma = states.random_density(3, 3, 42)
    for _ in range(2):
        info.von_neumann_entropy(rho)
        metrics.fidelity(rho, sigma)
        states.canonical_purification(rho, 3)
    assert len(calls) == 2


def test_eig_arrays_are_read_only():
    vals, vecs = states.random_density(3, 2, 43).eig
    with pytest.raises(ValueError):
        vals[0] = 1.0
    with pytest.raises(ValueError):
        vecs[0, 0] = 1.0


def test_make_density_distinct_errors():
    with pytest.raises(NotPositiveError):
        states.make_density(np.diag([1.1, -0.1]))
    with pytest.raises(HermiticityError):
        states.make_density(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(TraceError):
        states.make_density(np.eye(2))


def test_eig_follows_make_density_tolerance():
    # a skew part between the default tol and the caller's tol is accepted,
    # and reading eig does not re-judge it at the default
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = 1e-9j
    rho = states.make_density(mat, tol=1e-8)
    assert np.allclose(rho.eig.eigenvalues, [0.5, 0.5])
    with pytest.raises(HermiticityError):
        states.make_density(mat)


def test_density_is_frozen():
    rho = states.make_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0


def test_mixture_single_state():
    rho = states.random_density(3, 2, 1)
    out = states.mixture([1.0], [rho])
    assert np.allclose(out.mat, rho.mat)


def test_mixture_uniform_basis():
    p0 = states.pure_density([1, 0])
    p1 = states.pure_density([0, 1])
    out = states.mixture([0.5, 0.5], [p0, p1])
    assert np.allclose(out.mat, np.eye(2) / 2)


def test_mixture_of_random_pure_states_is_valid():
    parts = [
        states.pure_density(states.random_pure(2, 1, seed).vec)
        for seed in range(4)
    ]
    out = states.mixture([0.25] * 4, parts)
    assert abs(np.trace(out.mat) - 1) < 1e-12
    assert np.min(np.linalg.eigvalsh(out.mat)) > -1e-12


def test_mixture_rejects_bad_weights():
    rho = states.random_density(2, 1, 2)
    with pytest.raises(NormalizationError):
        states.mixture([0.7, 0.7], [rho, rho])
    with pytest.raises(NormalizationError):
        states.mixture([1.5, -0.5], [rho, rho])


def test_canonical_purification_pure_state():
    rho = states.pure_density([1, 0])
    psi = states.canonical_purification(rho, 1)
    assert np.allclose(psi.vec, [1, 0])


def test_canonical_purification_maximally_mixed():
    psi = states.canonical_purification(states.make_density(np.eye(2) / 2), 2)
    reduced = linalg.partial_trace(np.outer(psi.vec, psi.vec.conj()), 2, 2, "H")
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)
    # K side is used in descending-eigenvalue computational order
    a = psi.coefficient_matrix()
    assert np.allclose(a.conj().T @ a, np.eye(2) / 2, atol=1e-12)


def test_canonical_purification_partial_trace_oracle():
    rho = states.random_density(4, 3, 22)
    psi = states.canonical_purification(rho, 4)
    reduced = linalg.partial_trace(np.outer(psi.vec, psi.vec.conj()), 4, 4, "H")
    assert np.linalg.norm(reduced - rho.mat) <= 1e-10


def test_canonical_purification_rank_error():
    rho = states.random_density(4, 3, 23)
    with pytest.raises(RankError):
        states.canonical_purification(rho, 2)


def test_purification_of_reduction_recovers_density():
    psi = states.random_pure(3, 5, 24)
    rho = states.make_density(linalg.partial_trace(np.outer(psi.vec, psi.vec.conj()), 3, 5, "H"))
    again = states.canonical_purification(rho, 5)
    reduced = linalg.partial_trace(np.outer(again.vec, again.vec.conj()), 3, 5, "H")
    assert np.linalg.norm(reduced - rho.mat) <= 1e-9


def test_random_pure_equal_spectra():
    psi = states.random_pure(3, 4, 25)
    joint = np.outer(psi.vec, psi.vec.conj())
    spec_h = np.linalg.eigvalsh(linalg.partial_trace(joint, 3, 4, "H"))
    spec_k = np.linalg.eigvalsh(linalg.partial_trace(joint, 3, 4, "K"))
    spec_h = np.sort(spec_h[spec_h > 1e-11])
    spec_k = np.sort(spec_k[spec_k > 1e-11])
    assert np.allclose(spec_h, spec_k, atol=1e-9)


def test_random_density_rank_one_is_pure():
    rho = states.random_density(2, 1, 26)
    vals = np.sort(np.linalg.eigvalsh(rho.mat))
    assert np.allclose(vals, [0.0, 1.0], atol=1e-10)


def test_random_unitary_gram():
    u = states.random_unitary(4, 27)
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10


def test_generators_bit_identical():
    assert np.array_equal(
        states.random_density(3, 2, 28).mat, states.random_density(3, 2, 28).mat
    )
    assert np.array_equal(
        states.random_unitary(3, 29), states.random_unitary(3, 29)
    )
    assert np.array_equal(
        states.random_pure(2, 3, 30).vec, states.random_pure(2, 3, 30).vec
    )


def test_random_density_rank_validation():
    with pytest.raises(RankError):
        states.random_density(3, 0, 31)
    with pytest.raises(RankError):
        states.random_density(3, 4, 31)


def test_distance_up_to_phase():
    v = states.random_pure(2, 2, 32).vec
    assert states.distance_up_to_phase(v, np.exp(0.7j) * v) <= 1e-12
    w = states.random_pure(2, 2, 33).vec
    direct = min(
        np.linalg.norm(v - np.exp(1j * t) * w)
        for t in np.linspace(0, 2 * np.pi, 20001)
    )
    assert states.distance_up_to_phase(v, w) == pytest.approx(direct, abs=1e-6)


def test_make_pures_validation():
    with pytest.raises(SizeError):
        states.make_pures([(2, 2, np.ones(3))])
    with pytest.raises(NormalizationError):
        states.make_pures([(2, 2, np.array([2.0, 0, 0, 0]))])


def _per_matrix_reference(dim, rank, seed):
    # the per-matrix construction, written out with 2-d operations only
    g = Stream(seed).complex_gauss_matrix(dim, rank)
    rho = g @ linalg.dagger(g)
    rho = rho / np.trace(rho).real
    return rho, linalg.hermitian_eig(rho, tol=1e-9)


_SMALL_SPECS = [
    (dim, rank, 1000 * dim + 10 * rank + k)
    for dim in range(1, 9)
    for rank in range(1, dim + 1)
    for k in range(3)
]


@pytest.mark.parametrize(
    "specs",
    [_SMALL_SPECS, [(192, 1, 5), (192, 7, 6), (256, 3, 7), (256, 256, 8), (192, 7, 9)]],
    ids=["d1-8", "d192-256"],
)
def test_random_densities_match_per_matrix_loop_bit_for_bit(specs):
    # shuffled so each (dim, rank) group is gathered from scattered positions
    specs = Stream(3).shuffled(specs)
    batched = states.random_densities(specs)
    assert len(batched) == len(specs)
    for spec, rho in zip(specs, batched):
        one = states.random_density(*spec)
        mat, (vals, vecs) = _per_matrix_reference(*spec)
        for got in (rho, one):
            assert np.array_equal(got.mat, mat)
            assert np.array_equal(got.eig.eigenvalues, vals)
            assert np.array_equal(got.eig.eigenvectors, vecs)
        assert not rho.mat.flags.writeable and not rho.eig.eigenvectors.flags.writeable


def test_random_density_chunks_read_lazily_in_blocks(monkeypatch):
    # a block of 2 trials of two 2x2 states each; the third batch is read
    # only once the first block is spent
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 16)
    read = []

    def trials():
        for t in range(5):
            read.append(t)
            yield (np.array([t]),), [[(2, 1 + t % 2, 10 * t), (2, 2, 10 * t + 1)]]

    out = states.random_density_chunks(trials())
    first = list(next(out))  # a chunk is emptied when the next is asked for
    assert [k.tolist() for (k,), *_ in first] == [[0, 1]] and read == [0, 1, 2]
    rest = [group for chunk in out for group in chunk]
    assert [k.tolist() for (k,), *_ in rest] == [[2, 3], [4]] and read == [0, 1, 2, 3, 4]
    for (k,), stacks, gaussians in first + rest:
        for i, t in enumerate(k.tolist()):
            want = states.random_densities([(2, 1 + t % 2, 10 * t), (2, 2, 10 * t + 1)])
            assert all(np.array_equal(s.mats[i], b.mat) for s, b in zip(stacks, want))
        assert gaussians == ()


def test_random_densities_certify_one_stack_per_dimension(monkeypatch):
    # every rank at d = 5 and d = 3, interleaved: one draw per (dim, rank),
    # but one certified eigendecomposition per dimension
    specs = Stream(6).shuffled([(dim, 1 + k % dim, 500 + k) for dim in (5, 3) for k in range(12)])
    want = [states.random_density(*spec) for spec in specs]
    calls = []
    original = linalg.hermitian_eig

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eig", counted)
    got = states.random_densities(specs)
    assert sorted(calls) == [(12, 3, 3), (12, 5, 5)]
    for rho, one in zip(got, want):
        assert rho.mat.tobytes() == one.mat.tobytes()
        assert rho.eig.eigenvalues.tobytes() == one.eig.eigenvalues.tobytes()
        assert rho.eig.eigenvectors.tobytes() == one.eig.eigenvectors.tobytes()
        assert rho.entropy == one.entropy


def _one_state_trials(dims, lo=0):
    """Batches of 64 trials of one random density each, of the given dims in turn."""
    t = np.arange(lo, lo + len(dims))
    specs = np.stack([dims, 1 + t % 2, 7 * t], axis=-1)[:, None]
    return [((t[i : i + 64],), specs[i : i + 64]) for i in range(0, len(t), 64)]


def test_random_density_chunks_hand_out_one_list_per_block(monkeypatch):
    # blocks of 100 trials of one 2x2 state each, each handed out as one list
    # whose one shape gathers the trials of two or three batches
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 400)
    chunks = states.random_density_chunks(_one_state_trials(np.full(250, 2)))
    keys = [[k.tolist() for (k,), *_ in chunk] for chunk in chunks]
    assert keys == [[list(range(0, 100))], [list(range(100, 200))], [list(range(200, 250))]]


def test_a_block_holds_small_trials_up_to_its_entries():
    # 4 entries a trial: a block holds BLOCK_ENTRIES // 4 trials, not a
    # floor's 256, and never more than BLOCK_ENTRIES entries
    trials = _one_state_trials(np.full(2 * states.BLOCK_ENTRIES // 4 + 10, 2))
    sizes = [len(k) for chunk in states.random_density_chunks(trials) for (k,), *_ in chunk]
    assert sizes == [states.BLOCK_ENTRIES // 4] * 2 + [10] and sizes[0] > 256


def test_a_block_mixing_shapes_hands_out_one_group_per_shape(monkeypatch):
    # dims 2, 3, 2, 4, ... interleaved across batches: per block one group per
    # dim, in order of first appearance, each keeping its trials' order
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 600)
    dims = np.array([2, 3, 2, 4])[np.arange(200) % 4]
    for chunk in states.random_density_chunks(_one_state_trials(dims)):
        firsts = [int(k[0]) for (k,), *_ in chunk]
        assert firsts == sorted(firsts) and len({int(dims[t]) for t in firsts}) == len(chunk) == 3
        for (k,), (stack,), _ in chunk:
            assert (np.diff(k) > 0).all() and (dims[k] == stack.mats.shape[-1]).all()
        assert sum(int(dims[t]) ** 2 for (k,), *_ in chunk for t in k) <= states.BLOCK_ENTRIES


def test_every_column_row_is_its_one_item_result(monkeypatch):
    # mixed shapes, ranks, draws and derived densities, over blocks of a few
    # trials: row i of each column is trial i's one-item result, bit for bit
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 200)
    t = np.arange(30)
    dims, seeds = 2 + t % 3, 1000 + 10 * t
    specs = np.stack([np.stack([dims, 1 + (t + p) % dims, seeds + p], -1) for p in (0, 1)], axis=1)
    draws = np.stack([np.stack([dims, 1 + t % 2, seeds + 2], -1)], axis=1)

    def derive(keys, mats):
        return [((mats[0] + mats[1]) / 2, 1e-10)]

    batches = [((t[i : i + 7],), specs[i : i + 7], draws[i : i + 7]) for i in range(0, 30, 7)]
    seen = []
    for chunk in states.random_density_chunks(batches, derive):
        for (k,), stacks, (g,) in chunk:
            for i, trial in enumerate(k.tolist()):
                seen.append(trial)
                (dim, r0, s0), (_, r1, s1) = specs[trial].tolist()
                rhos = states.random_densities([(dim, r0, s0), (dim, r1, s1)])
                rhos += states.make_densities([(rhos[0].mat + rhos[1].mat) / 2])
                for stack, rho in zip(stacks, rhos):
                    row = states.DensityMatrix(stack, i)
                    assert row.mat.tobytes() == rho.mat.tobytes()
                    assert row.eig.eigenvalues.tobytes() == rho.eig.eigenvalues.tobytes()
                    assert row.eig.eigenvectors.tobytes() == rho.eig.eigenvectors.tobytes()
                    assert row.entropy == rho.entropy
                want = Stream(seeds[trial] + 2).complex_gauss_matrix(dim, 1 + trial % 2)
                assert g[i].tobytes() == want.tobytes() and not g.flags.writeable
    assert sorted(seen) == list(range(30))


def test_random_density_chunks_name_a_derive_that_skips_trials():
    def derive(keys, mats):  # a derived density for the first trial only
        return [(mats[0][:1], 1e-10)]

    trials = [((np.arange(3),), [[(2, 1, t)] for t in range(3)])]
    with pytest.raises(SizeError, match="^derive returned 1 rows for 3 trials$"):
        list(states.random_density_chunks(trials, derive))


def test_random_densities_validate_every_rank():
    with pytest.raises(RankError):
        states.random_densities([(3, 1, 1), (3, 4, 2)])
    assert states.random_densities([]) == []


def _mixed_matrices():
    # d = 1..9 and 256, each at two tolerances; the second copy of each
    # carries a skew part that only the looser tolerance accepts
    mats, tols = [], []
    for k, dim in enumerate([*range(1, 10), 256]):
        rho = states.random_density(dim, 1 + k % dim, 300 + k).mat
        skew = rho.copy()
        if dim > 1:
            skew[0, 1] += 1e-9j
        mats += [rho, skew]
        tols += [linalg.DEFAULT_TOL, 1e-8]
    order = Stream(4).shuffled(list(range(len(mats))))
    return [mats[i] for i in order], [tols[i] for i in order]


def test_make_densities_match_make_density_loop_bit_for_bit():
    mats, tols = _mixed_matrices()
    batched = states.make_densities(mats, tols)
    assert len(batched) == len(mats)
    for mat, tol, rho in zip(mats, tols, batched):
        one = states.make_density(mat, tol)
        # the per-matrix validation, written out on the 2-d matrix
        vals, vecs = linalg.hermitian_eig(mat, tol)
        for got in (rho, one):
            assert np.array_equal(got.mat, mat)
            assert np.array_equal(got.eig.eigenvalues, vals)
            assert np.array_equal(got.eig.eigenvectors, vecs)
        assert not rho.mat.flags.writeable and not rho.eig.eigenvalues.flags.writeable
    one_tol = states.make_densities(mats[:6], 1e-8)
    assert all(np.array_equal(a.mat, b.mat) for a, b in zip(one_tol, batched))
    assert states.make_densities([]) == []


def test_make_densities_judge_mixed_tolerances_in_one_stack_per_shape(monkeypatch):
    # a skew part that only the looser tolerance accepts, beside untouched
    # matrices at the strict one: one certified stack, each matrix at its tol
    rho = states.random_density(3, 3, 71).mat
    skew = rho.copy()
    skew[0, 1] += 1e-9j
    calls = []
    original = linalg.hermitian_eig

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eig", counted)
    got = states.make_densities([rho, skew, rho], [linalg.DEFAULT_TOL, 1e-8, linalg.DEFAULT_TOL])
    assert calls == [(3, 3, 3)]
    assert [r.mat.tobytes() for r in got] == [m.tobytes() for m in (rho, skew, rho)]
    with pytest.raises(HermiticityError, match="^matrix 2 "):
        states.make_densities([rho, skew, skew], [linalg.DEFAULT_TOL, 1e-8, linalg.DEFAULT_TOL])
    with pytest.raises(ValueError):  # a matrix without a tolerance is not dropped
        states.make_densities([rho, skew, rho], [1e-8, 1e-8])


def test_make_densities_name_the_failing_matrix_by_its_index():
    # each failing matrix is the second 2x2 of the list but the fourth entry
    good = [np.eye(2) / 2, np.eye(3) / 3, np.eye(2) / 2]
    cases = [
        (np.diag([1.1, -0.1]), NotPositiveError),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), HermiticityError),
        (np.eye(2), TraceError),
    ]
    for bad, error in cases:
        with pytest.raises(error, match="^matrix 3 "):
            states.make_densities([*good, bad])
    with pytest.raises(SizeError):
        states.make_densities([np.eye(2) / 2, np.ones(2)])


def test_by_trial_draws_match_per_seed_generators(monkeypatch):
    # blocks of 64 entries hold one to three of these trials
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 64)
    specs = {t: (2 + t % 3, 3 + t % 2, 7 * t) for t in range(9)}
    draws = [[(d, 1, s), (2 * e, 1, s + 1), (d, d, s + 2), (d, e, s + 3)] for d, e, s in specs.values()]
    batch = ((np.arange(9),), np.zeros((9, 0, 3)), draws)
    out = [group for chunk in states.random_density_chunks([batch]) for group in chunk]
    assert sorted(t for (k,), *_ in out for t in k.tolist()) == list(specs)
    for (k,), dens, gaussians in out:
        assert dens == () and not any(x.flags.writeable for x in gaussians)
        for i, t in enumerate(k.tolist()):
            d, e, s = specs[t]
            g, h, z, m = (x[i] for x in gaussians)
            pairs = [
                (g, Stream(s).complex_gauss_matrix(d, 1)),
                (h, Stream(s + 1).complex_gauss_matrix(2 * e, 1)),
                (states.unitary_from_gauss(z), states.random_unitary(d, s + 2)),
                (m, Stream(s + 3).complex_gauss_matrix(d, e)),
            ]
            for got, want in pairs:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_by_trial_derived_densities_match_make_density(monkeypatch):
    # per trial one derived density at each of two tolerances, certified a
    # block at a time
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 64)
    calls = []

    def derive(keys, mats):
        (rho,) = mats
        calls.append(keys[0].tolist())
        squared = rho @ rho
        squared /= np.trace(squared, axis1=-2, axis2=-1)[:, None, None]
        return [(linalg.partial_trace(rho, 2, 2, "H"), 1e-8), (squared, 1e-10)]

    trials = [((np.arange(6),), [[(4, 1 + t % 4, 40 + t)] for t in range(6)])]
    for b, chunk in enumerate(states.random_density_chunks(trials, derive)):
        assert calls == [[0, 1, 2, 3], [4, 5]][: b + 1]
        for (k,), stacks, _ in chunk:
            for i, t in enumerate(k.tolist()):
                rho, reduced, squared = (states.DensityMatrix(s, i) for s in stacks)
                assert np.array_equal(rho.mat, states.random_density(4, 1 + t % 4, 40 + t).mat)
                wants = [
                    states.make_density(linalg.partial_trace(rho.mat, 2, 2, "H"), tol=1e-8),
                    states.make_density(rho.mat @ rho.mat / np.trace(rho.mat @ rho.mat)),
                ]
                for got, want in zip((reduced, squared), wants):
                    assert np.array_equal(got.mat, want.mat)
                    assert np.array_equal(got.eig.eigenvectors, want.eig.eigenvectors)
