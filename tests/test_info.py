import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qilab import info, linalg, states
from qilab.errors import NormalizationError, SizeError
from qilab.rng import Stream, derive_seed


def test_shannon_examples():
    assert info.binary_entropy(0.5) == pytest.approx(1.0)
    assert info.binary_entropy(0.0) == 0.0
    assert info.binary_entropy(1.0) == 0.0
    assert info.shannon_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0)


def test_shannon_rejects_non_distribution():
    with pytest.raises(NormalizationError):
        info.shannon_entropy([0.5, 0.2])
    with pytest.raises(NormalizationError):
        info.shannon_entropy([1.5, -0.5])


@given(st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_binary_entropy_bounds(p):
    h = info.binary_entropy(p)
    assert -1e-12 <= h <= 1.0 + 1e-12
    assert h == pytest.approx(info.binary_entropy(1.0 - p), abs=1e-12)


def test_binary_entropy_is_the_two_entry_shannon_entropy_bitwise():
    stream = Stream(160)
    ps = np.array([0.0, 1.0, 1e-13, 1.0 - 1e-13, 0.5] + [stream.uniform() for _ in range(200)])
    rows = np.stack([ps, 1.0 - ps], axis=-1)
    for p, row in zip(ps, rows):
        h = info.binary_entropy(p)
        assert type(h) is float and h == info.shannon_entropy(row), p
    grid = ps.reshape(5, 41)
    assert np.array_equal(info.binary_entropy(grid), info.shannon_entropy(rows.reshape(5, 41, 2)))
    with pytest.raises(ValueError):
        info.binary_entropy(1.0 + 1e-9)


def test_binary_entropy_gap_examples():
    assert info.binary_entropy_gap(0.0) == pytest.approx(0.0)
    assert info.binary_entropy_gap(0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        info.binary_entropy_gap(0.7)


@given(st.floats(-0.5, 0.5))
@settings(max_examples=200, deadline=None)
def test_binary_entropy_gap_dominates_square(delta):
    assert info.binary_entropy_gap(delta) >= delta**2 - 1e-12


def test_fano_examples():
    assert info.fano_bound(0.5) == pytest.approx(1.0)
    assert info.fano_bound(0.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        info.fano_bound(-0.1)


def test_fano_against_exhaustive_channel_sweep():
    # oracle: every binary channel with uniform input and agreement
    # 1/2 + delta carries at least the entropy-gap information
    for pa in np.linspace(0, 1, 21):
        for pb in np.linspace(0, 1, 21):
            agreement = (pa + pb) / 2
            if agreement < 0.5:
                continue
            joint = 0.5 * np.array([[pa, 1 - pa], [1 - pb, pb]])
            measured = info.classical_mutual_information(joint)
            assert measured >= info.fano_bound(agreement - 0.5) - 1e-9


def test_von_neumann_pure_and_mixed():
    psi = states.random_pure(4, 1, 60)
    assert info.von_neumann_entropy(states.pure_density(psi.vec)) == pytest.approx(
        0.0, abs=1e-10
    )
    assert info.von_neumann_entropy(states.make_density(np.eye(2) / 2)) == 1.0


def test_block_state_entropy_identity():
    stream = Stream(61)
    p = np.array([stream.uniform() + 0.1 for _ in range(3)])
    p /= p.sum()
    sigmas = [states.random_density(2, 1 + stream.integer(2), derive_seed(61, i)) for i in range(3)]
    block = np.zeros((6, 6), dtype=complex)
    for i, s in enumerate(sigmas):
        block[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = p[i] * s.mat
    lhs = info.von_neumann_entropy(states.make_density(block, tol=1e-8))
    rhs = info.shannon_entropy(p) + sum(
        pi * info.von_neumann_entropy(si) for pi, si in zip(p, sigmas)
    )
    assert lhs == pytest.approx(rhs, abs=1e-9)


BASIS = [states.pure_density([1, 0]), states.pure_density([0, 1])]


def _measured(priors, rows, measurement):
    # the one-item measured_mutual_infos of states drawn with priors and a
    # list of projectors (a TwoOutcomeMeasurement is one)
    mats, projs = np.array([rho.mat for rho in rows]), np.array(list(measurement))
    return float(info.measured_mutual_infos([priors], mats[None], projs[None])[0])


def test_holevo_examples():
    rho = states.random_density(3, 2, 62)
    assert info.holevo_information([0.5, 0.5], [rho, rho]) == pytest.approx(0.0, abs=1e-10)
    assert info.holevo_information([0.5, 0.5], BASIS) == pytest.approx(1.0)
    quad = [
        *BASIS,
        states.pure_density(np.array([1, 1]) / np.sqrt(2)),
        states.pure_density(np.array([1, -1]) / np.sqrt(2)),
    ]
    assert info.holevo_information(np.full(4, 0.25), quad) == pytest.approx(1.0, abs=1e-10)
    conditional = info.conditional_entropies(np.full(4, 0.25), [s.entropy for s in quad])
    assert conditional == pytest.approx(0.0, abs=1e-10)


def test_measured_mutual_info_examples():
    assert _measured([0.5, 0.5], BASIS, [np.eye(2)]) == pytest.approx(0.0, abs=1e-12)
    comp = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    assert _measured([0.5, 0.5], BASIS, comp) == pytest.approx(1.0, abs=1e-10)
    meas, _ = __import__("qilab.metrics", fromlist=["optimal_measurement"]).optimal_measurement(
        *BASIS
    )
    assert _measured([0.5, 0.5], BASIS, meas) == pytest.approx(1.0, abs=1e-10)


def test_holevo_dominates_measured_sweep():
    for trial in range(60):
        dim = 2 + trial % 3
        seed = derive_seed(63, trial)
        stream = Stream(seed)
        k = 2 + trial % 3
        ensemble_states = [
            states.random_density(dim, 1 + stream.integer(dim), derive_seed(seed, i))
            for i in range(k)
        ]
        raw = np.array([stream.uniform() + 0.05 for _ in range(k)])
        priors = raw / raw.sum()
        u = states.random_unitary(dim, derive_seed(seed, 99))
        meas = [np.outer(u[:, c], np.conj(u[:, c])) for c in range(dim)]
        chi = info.holevo_information(priors, ensemble_states)
        assert _measured(priors, ensemble_states, meas) <= chi + 1e-9


def test_bipartite_mutual_info_examples():
    rho_a = states.random_density(2, 2, 64)
    rho_b = states.random_density(2, 1, 65)
    product = states.make_density(np.kron(rho_a.mat, rho_b.mat), tol=1e-8)
    assert info.bipartite_mutual_info(product, 2, 2) == pytest.approx(0.0, abs=1e-9)
    bell = states.pure_density(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert info.bipartite_mutual_info(bell, 2, 2) == pytest.approx(2.0, abs=1e-10)


def test_bipartite_mutual_info_pure_is_twice_marginal():
    psi = states.random_pure(2, 4, 66)
    rho = states.pure_density(psi.vec)
    s_a = info.von_neumann_entropy(states.make_density(linalg.partial_trace(rho.mat, 2, 4, "H")))
    assert info.bipartite_mutual_info(rho, 2, 4) == pytest.approx(
        2 * s_a, abs=1e-9
    )


def test_chain_identity_classical():
    stream = Stream(67)
    for _ in range(50):
        joint = np.array([stream.uniform() + 1e-3 for _ in range(12)]).reshape(2, 3, 2)
        joint /= joint.sum()
        i_x_yz = info.classical_mutual_information(joint.reshape(2, 6))
        i_x_y = info.classical_mutual_information(joint.sum(axis=2))
        i_xy_z = info.classical_mutual_information(joint.reshape(6, 2))
        i_y_z = info.classical_mutual_information(joint.sum(axis=0))
        assert i_x_yz == pytest.approx(i_x_y + i_xy_z - i_y_z, abs=1e-10)


def test_mutual_info_monotone_under_discarding():
    for trial in range(40):
        seed = derive_seed(68, trial)
        stream = Stream(seed)
        labeled = [
            states.random_density(4, 1 + stream.integer(4), derive_seed(seed, i))
            for i in range(4)
        ]
        reduced = [
            states.make_density(linalg.partial_trace(s.mat, 2, 2, "H"), tol=1e-8)
            for s in labeled
        ]
        assert (
            info.holevo_information(np.full(4, 0.25), labeled)
            >= info.holevo_information(np.full(4, 0.25), reduced) - 1e-10
        )


def test_entropy_concavity_and_subadditivity():
    stream = Stream(69)
    for trial in range(30):
        ws = np.array([stream.uniform() + 0.05 for _ in range(3)])
        ws /= ws.sum()
        parts = [
            states.random_density(3, 1 + stream.integer(3), derive_seed(69, trial, i))
            for i in range(3)
        ]
        mixed = states.make_density(states.mixture_matrix(ws, [s.mat for s in parts]))
        avg = sum(w * info.von_neumann_entropy(s) for w, s in zip(ws, parts))
        assert info.von_neumann_entropy(mixed) >= avg - 1e-9

        rho_ab = states.random_density(4, 1 + stream.integer(4), derive_seed(70, trial))
        s_a = info.von_neumann_entropy(
            states.make_density(linalg.partial_trace(rho_ab.mat, 2, 2, "H"), tol=1e-8)
        )
        s_b = info.von_neumann_entropy(
            states.make_density(linalg.partial_trace(rho_ab.mat, 2, 2, "K"), tol=1e-8)
        )
        assert info.von_neumann_entropy(rho_ab) <= s_a + s_b + 1e-9


def test_ensemble_validation():
    rho = states.random_density(2, 1, 71)
    with pytest.raises(NormalizationError):
        info.holevo_information([0.9, 0.5], [rho, rho])
    with pytest.raises(SizeError):
        info.holevo_information([0.5, 0.5], [rho, states.random_density(3, 1, 72)])
    with pytest.raises(SizeError, match="power-of-two state count, got 3"):
        info.uniform_cube_informations([[rho, rho], [rho, rho, rho]])


def test_projective_validation():
    with pytest.raises(ValueError):
        info.validate_projective([np.diag([1.0, 0.0])], 2)
    with pytest.raises(ValueError):
        info.validate_projective([np.diag([0.5, 0.0]), np.diag([0.5, 1.0])], 2)


def _masked_entropy(p):
    # the 1-d masked sum every stacked entropy must reproduce bit for bit
    p = np.asarray(p, dtype=np.float64)
    kept = p[p > 1e-12]
    return float(-np.sum(kept * np.log2(kept)))


def test_stacked_entropy_rows_match_the_masked_sum_bitwise():
    # every rank at d = 1..16, ranks mixed in each certified stack, so rows
    # with dropped (zero) eigenvalues sit beside full ones, at d >= 8 too
    for d in range(1, 17):
        specs = [(d, r, derive_seed(120, d, r, k)) for r in range(1, d + 1) for k in range(2)]
        stack = states.make_densities([rho.mat for rho in states.random_densities(specs)])
        for i, rho in enumerate(stack):
            vals = np.clip(rho.eig.eigenvalues, 0.0, 1.0)
            want = _masked_entropy(vals)
            assert info.von_neumann_entropy(rho) == want, f"d={d} density {i}"
            assert info.von_neumann_entropy(states.make_density(rho.mat)) == want, f"d={d} density {i}"
        if d >= 8:
            assert any(np.any(rho.eig.eigenvalues <= 1e-12) for rho in stack)


def _old_mutual_information(joint):
    return (
        _masked_entropy(joint.sum(axis=1))
        + _masked_entropy(joint.sum(axis=0))
        - _masked_entropy(joint.reshape(-1))
    )


@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 2), (3, 5), (8, 2)])
def test_stacked_mutual_information_matches_per_table_bitwise(shape):
    stream = Stream(derive_seed(121, *shape))
    tables = np.array([[stream.uniform() for _ in range(shape[0] * shape[1])] for _ in range(40)])
    tables[::3, 0] = 0.0  # zero cells drop out of the sums
    tables[1::4, -2:] = 0.0
    tables = (tables / tables.sum(axis=1, keepdims=True)).reshape(-1, *shape)
    stacked = info.classical_mutual_information(tables)
    for i, joint in enumerate(tables):
        assert stacked[i] == _old_mutual_information(joint), f"table {i}"
        assert info.classical_mutual_information(joint) == stacked[i], f"table {i}"
    rows = tables.reshape(len(tables), -1)
    assert [_masked_entropy(p) for p in rows] == list(info.shannon_entropy(rows))


def test_stacked_binary_entropies_match_the_scalar_calls():
    deltas = [k / 1000.0 for k in range(501)]
    assert list(info.binary_entropy_gap(np.array(deltas))) == [
        1.0 - _masked_entropy([0.5 + d, 1.0 - (0.5 + d)]) for d in deltas
    ]
    assert list(info.fano_bound(np.array(deltas))) == [info.fano_bound(d) for d in deltas]
    with pytest.raises(ValueError):
        info.fano_bound(np.array([0.1, -0.2]))
    with pytest.raises(ValueError):
        info.binary_entropy(np.array([0.5, 1.5]))


def test_measured_mutual_info_matches_the_double_loop_bitwise():
    # one stacked projector-times-state product and trace, bit for bit the
    # per-(state, projector) loop written out here
    from qilab.metrics import optimal_measurement

    for trial in range(90):
        dim = 2 + trial % 7
        seed = derive_seed(134, trial)
        stream = Stream(seed)
        k = 2 + trial % 5
        members = [
            states.random_density(dim, 1 + stream.integer(dim), derive_seed(seed, i)) for i in range(k)
        ]
        raw = np.array([stream.uniform() + 0.05 for _ in range(k)])
        priors = raw / raw.sum()
        u = states.random_unitary(dim, derive_seed(seed, 99))
        rank1 = [np.outer(u[:, c], np.conj(u[:, c])) for c in range(dim)]
        cut = 1 + trial % (dim - 1)
        for meas in (
            rank1,
            [sum(rank1[:cut]), sum(rank1[cut:])],
            [np.diag(np.arange(dim) == c).astype(float) for c in range(dim)],
            optimal_measurement(members[0], members[1])[0],
        ):
            projs = (
                [meas.projector_pos, meas.projector_neg] if hasattr(meas, "projector_pos") else meas
            )
            joint = np.zeros((k, len(projs)))
            for i, (p, s) in enumerate(zip(priors, members)):
                for c, proj in enumerate(projs):
                    joint[i, c] = p * max(np.trace(proj @ s.mat).real, 0.0)
            want = info.classical_mutual_information(joint / joint.sum())
            assert _measured(priors, members, meas) == want, f"trial {trial}"


def test_projective_validation_checks_each_list_of_a_stack():
    good = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    info.validate_projective([good, good[::-1]], 2)
    with pytest.raises(ValueError, match="sum to the identity"):
        info.validate_projective([good, [good[0], good[0]]], 2)
    with pytest.raises(ValueError, match="idempotent"):
        info.validate_projective([good, [np.eye(2) / 2, np.eye(2) / 2]], 2)
    with pytest.raises(ValueError, match="Hermitian"):
        info.validate_projective([np.array([[1.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0])], 2)
    with pytest.raises(SizeError):
        info.validate_projective([good], 3)


def _old_info_trials(seed, trials):
    """The info suite's trials as each was drawn before, through one Stream per stream."""

    def weights(stream, n, floor=0.05):
        raw = np.array([stream.uniform() + floor for _ in range(n)])
        return raw / raw.sum()

    for t in range(trials):
        dim, k = 2 + t % 3, 2 + t % 2
        trial_seed = derive_seed(seed, 20, t)
        e_stream, stream = Stream(trial_seed), Stream(derive_seed(seed, 21, t))
        specs = [(dim, 1 + e_stream.integer(dim), derive_seed(trial_seed, i)) for i in range(dim)]
        priors, p = weights(e_stream, dim), weights(stream, k)
        specs += [(k, 1 + stream.integer(k), derive_seed(trial_seed, 30 + i)) for i in range(k)]
        joint = weights(stream, 8, 1e-3).reshape(2, 2, 2)
        specs += [(4, 1 + stream.integer(4), derive_seed(trial_seed, 40 + i)) for i in range(4)]
        ws = weights(stream, 3)
        specs += [(3, 1 + stream.integer(3), derive_seed(trial_seed, 50 + i)) for i in range(3)]
        specs.append((4, 1 + stream.integer(4), derive_seed(trial_seed, 60)))
        yield (priors, p, joint, ws), specs, [(dim, dim, derive_seed(trial_seed, 1))]


def _old_info_derived(key, mats):
    priors, p, _, ws = key
    n, k = len(priors), len(p)
    e_mats, sigmas, yz, parts, ab = mats[:n], mats[n : n + k], mats[n + k : n + k + 4], mats[-4:-1], mats[-1]
    blockmat = np.zeros((k * k, k * k), dtype=np.complex128)
    for i, s in enumerate(sigmas):
        blockmat[i * k : (i + 1) * k, i * k : (i + 1) * k] = p[i] * s
    traced = [linalg.partial_trace(s, 2, 2, "H") for s in yz]
    quarter = np.full(4, 0.25)
    averages = [
        states.mixture_matrix(priors, e_mats),
        states.mixture_matrix(quarter, yz),
        states.mixture_matrix(quarter, traced),
        states.mixture_matrix(ws, parts),
    ]
    return [
        *((m, 1e-8) for m in (blockmat, *traced)),
        *((m, linalg.DEFAULT_TOL) for m in averages),
        *((linalg.partial_trace(ab, 2, 2, keep), 1e-8) for keep in "HK"),
    ]


def _old_info_checks(seed, trials):
    """The info suite's trial checks as they were tallied one trial at a time."""
    from qilab.suites import _Tally

    names = ("holevo_dominance", "block_entropy_identity", "chain_identity")
    names += ("mi_monotonicity", "entropy_concavity", "entropy_subadditivity")
    tols = (1e-9, 1e-9, 1e-10, 1e-10, 1e-9, 1e-9)
    holevo, block, chain, mono, concave, subadd = map(_Tally, names, tols)
    joints = []
    ensembles, gauss = [], []
    S = info.von_neumann_entropy

    def batches():  # each trial a batch of its own
        for key, specs, draws in _old_info_trials(seed, trials):
            yield tuple(np.array([x]) for x in key), [specs], [draws]

    def derive(keys, mats):  # the per-trial matrices, stacked per position
        per_trial = [_old_info_derived([k[i] for k in keys], [m[i] for m in mats]) for i in range(len(keys[0]))]
        return [(np.array([m for m, _ in position]), position[0][1]) for position in zip(*per_trial)]

    chunks = states.random_density_chunks(batches(), derive)
    by_trial = (
        (tuple(k[i] for k in keys), [(s, i) for s in stacks], z[i])
        for chunk in chunks
        for keys, stacks, (z,) in chunk
        for i in range(len(z))
    )
    for t, ((priors, p, joint, ws), rows, z) in enumerate(by_trial, 1):
        n, k = len(priors), len(p)
        dens = [states.DensityMatrix(*row) for row in rows]
        e_states, dens = dens[:n], dens[n:]
        sigmas, yz, parts, rho_ab = dens[:k], dens[k : k + 4], dens[k + 4 : k + 7], dens[k + 7]
        blocked, *traced = dens[k + 8 : k + 13]
        mixed, rho_a, rho_b = dens[k + 16 :]  # after the averages, which holevo_information takes
        ensembles.append((priors, e_states))
        gauss.append(z)
        rhs = info.shannon_entropy(p) + sum(w * S(s) for w, s in zip(p, sigmas))
        block.add(block.tol - abs(S(blocked) - rhs))
        joints.append(joint)
        quarter = np.full(4, 0.25)
        mono.add(info.holevo_information(quarter, yz) - info.holevo_information(quarter, traced))
        concave.add(S(mixed) - sum(w * S(s) for w, s in zip(ws, parts)))
        subadd.add(S(rho_a) + S(rho_b) - S(rho_ab))
        if len(gauss) == 64 or t == trials:
            us = states.unitaries_from_gauss(gauss)
            projs = [u.T[:, :, None] * np.conj(u.T)[:, None, :] for u in us]
            for (p_x, rows), proj in zip(ensembles, projs):
                holevo.add(info.holevo_information(p_x, rows) - _measured(p_x, rows, proj))
            ensembles.clear()
            gauss.clear()
    joints = np.array(joints)
    i_x_yz = info.classical_mutual_information(joints.reshape(-1, 2, 4))
    i_x_y = info.classical_mutual_information(joints.sum(axis=3))
    i_xy_z = info.classical_mutual_information(joints.reshape(-1, 4, 2))
    i_y_z = info.classical_mutual_information(joints.sum(axis=1))
    for slack in chain.tol - np.abs(i_x_yz - (i_x_y + i_xy_z - i_y_z)):
        chain.add(slack)
    return [t.result() for t in (holevo, block, chain, mono, concave, subadd)]


def test_holevo_information_reads_certified_rows_and_names_any_other_item():
    rho = states.random_density(2, 1, 5)
    row = (rho.stack, rho.j)  # a row, as random_density_chunks hands it out
    chi = info.holevo_information([0.5, 0.5], [rho, rho])
    assert info.holevo_information([0.5, 0.5], [rho, row]) == chi
    assert info.uniform_cube_informations([[row, rho]]) == [chi]
    with pytest.raises(TypeError, match="^state 1 is a ndarray, not a"):
        info.holevo_information([0.5, 0.5], [rho, rho.mat])
    with pytest.raises(TypeError, match="^state 0 is a tuple, not a"):
        info.uniform_cube_informations([[rho, rho], [(rho.mat, 0), rho]])


@pytest.mark.parametrize("seed, trials", [(1, 130), (2, 130), (1, 400)])
def test_info_suite_chunks_match_the_per_trial_loop(seed, trials):
    # 130 trials: one batch of draws, densities in two blocks and three chunks,
    # and runs of one shape cut short by a chunk's end; 400: two batches of draws
    from qilab.suites import SuiteConfig, run_suite

    got = {c.name: c for c in run_suite("info", SuiteConfig(seed=seed, trials=trials))}
    for want in _old_info_checks(seed, trials):
        check = got[want.name]
        assert (check.trials, check.violations) == (want.trials, want.violations) == (trials, 0)
        assert check.min_slack == want.min_slack, want.name
