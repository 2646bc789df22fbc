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
    reduced = states.reduced_state(psi, "H")
    assert np.allclose(reduced.mat, np.eye(2) / 2, atol=1e-12)
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
    rho = states.reduced_state(psi, "H")
    again = states.canonical_purification(rho, 5)
    assert np.linalg.norm(states.reduced_state(again, "H").mat - rho.mat) <= 1e-9


def test_random_pure_equal_spectra():
    psi = states.random_pure(3, 4, 25)
    spec_h = np.linalg.eigvalsh(states.reduced_state(psi, "H").mat)
    spec_k = np.linalg.eigvalsh(states.reduced_state(psi, "K").mat)
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


def test_make_pure_validation():
    with pytest.raises(SizeError):
        states.make_pure(2, 2, np.ones(3))
    with pytest.raises(NormalizationError):
        states.make_pure(2, 2, np.array([2.0, 0, 0, 0]))


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
    # a block of 2 trials of two 2x2 states each; the third trial is read
    # only once the first block is spent
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 16)
    read = []

    def trials():
        for t in range(5):
            read.append(t)
            yield t, [(2, 1 + t % 2, 10 * t), (2, 2, 10 * t + 1)]

    out = states.random_density_chunks(trials())
    first = list(next(out))  # a chunk is emptied when the next is asked for
    assert [k for k, *_ in first] == [0, 1] and read == [0, 1, 2]
    rest = [trial for chunk in out for trial in chunk]
    assert [k for k, *_ in rest] == [2, 3, 4] and read == [0, 1, 2, 3, 4]
    for t, rows, gaussians in first + rest:
        want = states.random_densities([(2, 1 + t % 2, 10 * t), (2, 2, 10 * t + 1)])
        assert all(np.array_equal(s.mats[j], b.mat) for (s, j), b in zip(rows, want))
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


def test_random_density_chunks_hand_out_one_list_per_block(monkeypatch):
    # blocks of 100 trials of one 2x2 state each, each handed out as one list
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 400)
    trials = ((t, [(2, 1 + t % 2, 7 * t)]) for t in range(250))
    keys = [[key for key, *_ in chunk] for chunk in states.random_density_chunks(trials)]
    assert keys == [list(range(0, 100)), list(range(100, 200)), list(range(200, 250))]


def test_random_density_chunks_name_a_derive_that_skips_trials():
    def derive(keys, mats_by_trial):  # a derived density for the first trial only
        return [[(mats_by_trial[0][0], 1e-10)]]

    trials = ((t, [(2, 1, t)]) for t in range(3))
    with pytest.raises(SizeError, match="^derive returned 1 lists for 3 trials$"):
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

    def trials():
        for t, (d, e, s) in specs.items():
            yield t, [], [(d, 1, s), (2 * e, 1, s + 1), (d, d, s + 2), (d, e, s + 3)]

    out = [trial for chunk in states.random_density_chunks(trials()) for trial in chunk]
    assert [key for key, *_ in out] == list(specs)
    for t, dens, (g, h, z, m) in out:
        d, e, s = specs[t]
        assert dens == ()
        pairs = [
            (states.pure_from_gauss(d, 1, g).vec, states.random_pure(d, 1, s).vec),
            (states.pure_from_gauss(2, e, h).vec, states.random_pure(2, e, s + 1).vec),
            (states.unitary_from_gauss(z), states.random_unitary(d, s + 2)),
            (m, Stream(s + 3).complex_gauss_matrix(d, e)),
        ]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not any(x.flags.writeable for x in (g, h, z, m))


def test_by_trial_derived_densities_match_make_density(monkeypatch):
    # one derived density per trial at each of two tolerances, certified a
    # block at a time
    monkeypatch.setattr(states, "BLOCK_ENTRIES", 64)
    calls = []

    def derive(keys, mats_by_trial):
        calls.append(list(keys))
        return [
            [(linalg.partial_trace(rho, 2, 2, "H"), 1e-8), (rho @ rho / np.trace(rho @ rho), 1e-10)]
            for (rho,) in mats_by_trial
        ]

    trials = ((t, [(4, 1 + t % 4, 40 + t)]) for t in range(6))
    out = (trial for chunk in states.random_density_chunks(trials, derive) for trial in chunk)
    for t, rows, _ in out:
        rho, reduced, squared = (states.DensityMatrix(*row) for row in rows)
        assert calls == [[0, 1, 2, 3], [4, 5]][: t // 4 + 1]
        assert np.array_equal(rho.mat, states.random_density(4, 1 + t % 4, 40 + t).mat)
        wants = [
            states.make_density(linalg.partial_trace(rho.mat, 2, 2, "H"), tol=1e-8),
            states.make_density(rho.mat @ rho.mat / np.trace(rho.mat @ rho.mat)),
        ]
        for got, want in zip((reduced, squared), wants):
            assert np.array_equal(got.mat, want.mat)
            assert np.array_equal(got.eig.eigenvectors, want.eig.eigenvectors)
