import numpy as np
import pytest

from qilab import linalg, metrics, states, suites, transition
from qilab.errors import ReductionError, SizeError
from qilab.rng import Stream, derive_seed


def random_pair(seed, dim_h, dim_k):
    s1, s2 = derive_seed(seed, 0), derive_seed(seed, 1)
    r1 = states.random_density(dim_h, 1 + Stream(s1).integer(dim_h), s1)
    r2 = states.random_density(dim_h, 1 + Stream(s2).integer(dim_h), s2)
    return (
        r1,
        r2,
        states.canonical_purification(r1, dim_k),
        states.canonical_purification(r2, dim_k),
    )


def test_align_identical_states():
    psi = states.random_pure(2, 3, 80)
    res = transition.uhlmann_align(psi, psi)
    assert res.achieved_overlap_sq == pytest.approx(1.0, abs=1e-10)
    assert res.pure_distance == pytest.approx(0.0, abs=1e-5)
    assert res.bound <= 1e-4


def test_align_equal_reduced_states():
    rho = states.random_density(3, 2, 81)
    phi1 = states.canonical_purification(rho, 3)
    v = states.random_unitary(3, 82)
    phi2 = transition.apply_k_unitary(phi1, v)
    res = transition.uhlmann_align(phi1, phi2)
    assert res.achieved_overlap_sq == pytest.approx(1.0, abs=1e-9)
    aligned = transition.apply_k_unitary(phi2, res.unitary_k)
    assert states.distance_up_to_phase(aligned.vec, phi1.vec) <= 1e-9


def test_align_matches_fidelity_sweep():
    for t in range(120):
        dim_h = 2 + t % 3
        dim_k = dim_h + t % (7 - dim_h)
        r1, r2, phi1, phi2 = random_pair(derive_seed(83, t), dim_h, dim_k)
        res = transition.uhlmann_align(phi1, phi2)
        assert res.achieved_overlap_sq == pytest.approx(
            metrics.fidelity(r1, r2), abs=1e-8
        )
        assert res.pure_distance <= res.bound + 1e-8
        # realized distance agrees with the overlap formula
        aligned = transition.apply_k_unitary(phi2, res.unitary_k)
        realized = metrics.pure_trace_distances(np.array([[phi1.vec, aligned.vec]]))[0]
        assert realized == pytest.approx(res.pure_distance, abs=1e-7)


def test_align_unitary_is_unitary():
    _, _, phi1, phi2 = random_pair(84, 3, 5)
    res = transition.uhlmann_align(phi1, phi2)
    u = res.unitary_k
    assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-10


def test_align_no_random_unitary_beats_it():
    _, _, phi1, phi2 = random_pair(85, 2, 3)
    res = transition.uhlmann_align(phi1, phi2)
    for k in range(100):
        u = states.random_unitary(3, derive_seed(86, k))
        trial = abs(np.vdot(phi1.vec, transition.apply_k_unitary(phi2, u).vec)) ** 2
        assert trial <= res.achieved_overlap_sq + 1e-8


def test_align_invariant_under_k_precomposition():
    _, _, phi1, phi2 = random_pair(87, 3, 4)
    base = transition.uhlmann_align(phi1, phi2)
    w = states.random_unitary(4, 88)
    res = transition.uhlmann_align(phi1, transition.apply_k_unitary(phi2, w))
    assert res.achieved_overlap_sq == pytest.approx(
        base.achieved_overlap_sq, abs=1e-9
    )


def test_align_degenerate_spectra():
    # repeated eigenvalues on both sides
    rho1 = states.make_density(np.eye(4) / 4)
    rho2 = states.make_density(np.diag([0.3, 0.3, 0.3, 0.1]))
    phi1 = states.canonical_purification(rho1, 4)
    phi2 = transition.apply_k_unitary(
        states.canonical_purification(rho2, 4), states.random_unitary(4, 89)
    )
    res = transition.uhlmann_align(phi1, phi2)
    assert res.achieved_overlap_sq == pytest.approx(
        metrics.fidelity(rho1, rho2), abs=1e-8
    )
    assert res.pure_distance <= res.bound + 1e-8


def test_align_shape_mismatch():
    with pytest.raises(SizeError):
        transition.uhlmann_align(
            states.random_pure(2, 2, 90), states.random_pure(2, 3, 91)
        )


def test_exact_transition_construct_then_invert():
    rho = states.random_density(4, 3, 92)
    phi1 = states.canonical_purification(rho, 4)
    v = states.random_unitary(4, 93)
    phi2 = transition.apply_k_unitary(phi1, v)
    u = transition.exact_local_transition(phi1, phi2)
    aligned = transition.apply_k_unitary(phi2, u)
    assert states.distance_up_to_phase(aligned.vec, phi1.vec) <= 1e-8


def test_exact_transition_identity_case():
    psi = states.random_pure(2, 2, 94)
    u = transition.exact_local_transition(psi, psi)
    aligned = transition.apply_k_unitary(psi, u)
    assert states.distance_up_to_phase(aligned.vec, psi.vec) <= 1e-8


def test_exact_transition_bell_permutation():
    bell, swapped = states.make_pures([(2, 2, np.array(v) / np.sqrt(2)) for v in ([1, 0, 0, 1], [0, 1, 1, 0])])
    u = transition.exact_local_transition(bell, swapped)
    aligned = transition.apply_k_unitary(swapped, u)
    assert states.distance_up_to_phase(aligned.vec, bell.vec) <= 1e-10
    # the recovered unitary is the basis swap, up to phase
    assert abs(abs(u[0, 1]) - 1) < 1e-9 and abs(abs(u[1, 0]) - 1) < 1e-9


def test_exact_transition_requires_equal_reductions():
    r1, r2, phi1, phi2 = random_pair(95, 3, 3)
    assert metrics.trace_distance(r1, r2) > 1e-3
    with pytest.raises(ReductionError, match="reduced states differ"):
        transition.exact_local_transition(phi1, phi2)


def test_near_equal_reductions_give_small_distance():
    # continuity at the exact-transition point
    rho = states.random_density(3, 3, 96)
    phi1 = states.canonical_purification(rho, 3)
    bump = states.random_density(3, 1, 97)
    mat = 0.99999999999 * rho.mat + 1e-11 * bump.mat
    rho2 = states.make_density(mat / np.trace(mat).real, tol=1e-8)
    phi2 = states.canonical_purification(rho2, 3)
    res = transition.uhlmann_align(phi1, phi2)
    assert res.pure_distance <= 1e-4


def test_verify_transition_bound_identical():
    rho = states.random_density(3, 2, 98)
    phi = states.canonical_purification(rho, 3)
    res = transition.uhlmann_align(phi, phi)
    assert res.pure_distance == pytest.approx(0.0, abs=1e-6)
    assert res.bound == pytest.approx(0.0, abs=1e-5)


def test_verify_transition_bound_orthogonal():
    p0 = states.pure_density([1, 0])
    p1 = states.pure_density([0, 1])
    phi1 = states.canonical_purification(p0, 2)
    phi2 = states.canonical_purification(p1, 2)
    res = transition.uhlmann_align(phi1, phi2)
    assert res.pure_distance == pytest.approx(2.0, abs=1e-10)
    assert res.bound == pytest.approx(2 * np.sqrt(2), abs=1e-10)
    assert res.bound - res.pure_distance == pytest.approx(
        2 * np.sqrt(2) - 2, abs=1e-9
    )


def test_first_nan_slack_stays_the_minimum_with_its_seed():
    # a NaN certified nothing: it is a violation and the reported minimum,
    # under the seed of the first trial that produced it
    tally = suites._Tally("x", 1e-8)
    passed = [tally.add(slack, seed) for seed, slack in enumerate((0.5, np.nan, -1.0, np.inf, 0.1))]
    assert passed == [True, False, False, False, True]
    check = tally.result()
    assert check.violations == 3 and np.isnan(check.min_slack)
    assert check.details["worst_instance_seed"] == 1


def test_an_agreement_passes_only_within_its_tolerance():
    # slack tol - |error|, judged at >= 0: an error between tol and 2 tol fails
    tally = suites._Tally("x", 1e-8, "agree")
    errors = (0.0, -1e-8, 1e-8, 1.5e-8, -1.9e-8, np.nan)
    assert [tally.add(e, seed) for seed, e in enumerate(errors)] == [True] * 3 + [False] * 3
    check = tally.result()
    assert check.violations == 3 and np.isnan(check.min_slack)
    assert check.details["worst_instance_seed"] == 5
    tally = suites._Tally("y", 1e-8, "agree")
    tally.add(-1.5e-8)
    assert tally.result().min_slack == 1e-8 - 1.5e-8


def test_a_fidelity_off_by_less_than_twice_the_tolerance_is_a_violation(monkeypatch):
    # every fidelity x (1 - 1.9e-8) moves overlap_matches_fidelity by up to
    # 1.9e-8, within 2 tol but not within its tol of 1e-8
    real = metrics._fidelities
    monkeypatch.setattr(metrics, "_fidelities", lambda r1, r2: real(r1, r2) * (1 - 1.9e-8))
    checks = {c.name: c for c in suites.run_suite("transition", suites.SuiteConfig(trials=100))}
    agree = checks["overlap_matches_fidelity"]
    assert agree.details["tolerance"] == 1e-8
    assert agree.violations > 0 and -1e-8 < agree.min_slack < 0.0


def test_a_sweep_trial_breaking_the_chain_the_bound_or_both_is_one_violation(monkeypatch):
    # trial 0 breaks the bound by 1, trial 1 the chain 1 - F <= T, trial 2 both
    sweep_seed = derive_seed(1, 42)
    firsts = [derive_seed(sweep_seed, t, 0) for t in range(3)]
    real = transition.aligned_trials

    def broken(trials, dim_ks):
        overlap_sq, pure_distance, t, dist, f = real(trials, dim_ks)
        for i, key in enumerate(trials[0][0].tolist()):
            if key in (firsts[0], firsts[2]):
                pure_distance[i] = 2.0 * np.sqrt(t[i]) + 1.0 + (key == firsts[2])
            if key in (firsts[1], firsts[2]):
                dist[i] = (1.0 - f[i]) - 1.0
        return overlap_sq, pure_distance, t, dist, f

    monkeypatch.setattr(transition, "aligned_trials", broken)
    checks = {c.name: c for c in suites.run_suite("transition", suites.SuiteConfig(trials=10))}
    sweep = checks["transition_bound_sweep"]
    assert sweep.trials == 50 and sweep.violations == 3
    assert sweep.min_slack == pytest.approx(-2.0)
    assert sweep.details["min_chain_slack"] == pytest.approx(-1.0)
    assert sweep.details["worst_instance_seed"] == firsts[2]
    assert checks["transition_bound"].violations == 0


def test_transition_bound_sweep_at_seed_99():
    checks = {c.name: c for c in suites.run_suite("transition", suites.SuiteConfig(seed=99))}
    sweep = checks["transition_bound_sweep"]
    assert sweep.trials == 200 and sweep.violations == 0
    assert sweep.min_slack >= -1e-8
    assert sweep.details["min_chain_slack"] >= -1e-9
    assert sweep.details["tolerance"] == 1e-8
    assert isinstance(sweep.details["worst_instance_seed"], int)


def _old_alignment(phi1, phi2):
    # the per-pair formula: one certified SVD and two single reduced states
    a1, a2 = phi1.coefficient_matrix(), phi2.coefficient_matrix()
    p, s, vh = np.linalg.svd(linalg.dagger(a1) @ a2, full_matrices=False)
    u = np.conj(p) @ linalg.dagger(vh).T
    overlap_sq = min(float(np.sum(s)) ** 2, 1.0)
    reduced = [states.make_density(a @ linalg.dagger(a), tol=1e-8) for a in (a1, a2)]
    t = float(np.sum(np.linalg.svd(reduced[0].mat - reduced[1].mat, compute_uv=False, hermitian=True)))
    return u, overlap_sq, 2.0 * float(np.sqrt(max(1.0 - overlap_sq, 0.0))), t


def test_stacked_alignments_match_the_pair_formula_bitwise():
    # mixed shapes, ranks and degenerate (canonical) purifications in one call
    pairs = []
    for t in range(60):
        dim_h, dim_k = 2 + t % 3, 2 + t % 5
        if t % 2:
            pairs.append(random_pair(derive_seed(140, t), dim_h, max(dim_h, dim_k))[2:])
        else:
            pairs.append(tuple(states.random_pure(dim_h, dim_k, derive_seed(141, t, i)) for i in (0, 1)))
    for i, (res, pair) in enumerate(zip(transition.uhlmann_aligns(pairs), pairs)):
        single = transition.uhlmann_align(*pair)
        u, overlap_sq, pure_distance, t = _old_alignment(*pair)
        assert np.array_equal(res.unitary_k, u) and np.array_equal(single.unitary_k, u), f"pair {i}"
        got = (res.achieved_overlap_sq, res.pure_distance, res.t)
        assert got == (overlap_sq, pure_distance, t), f"pair {i}"
        assert got == (single.achieved_overlap_sq, single.pure_distance, single.t), f"pair {i}"
    exact_pairs = [
        (phi, transition.apply_k_unitary(phi, states.random_unitary(phi.dim_k, 142))) for phi, _ in pairs
    ]
    found = transition.exact_local_transitions(exact_pairs)
    assert len(found) == len(pairs)
    for i, ((phi1, phi2), (u, residual)) in enumerate(zip(exact_pairs, found)):
        aligned = transition.apply_k_unitary(phi2, u)
        assert residual == states.distance_up_to_phase(aligned.vec, phi1.vec), f"pair {i}"


def test_stacked_alignments_name_the_failing_pair():
    good = tuple(states.random_pure(2, 2, 143 + i) for i in (0, 1))
    bad = (states.random_pure(2, 2, 145), states.random_pure(2, 3, 146))
    with pytest.raises(SizeError, match="^pair 2: "):
        transition.uhlmann_aligns([good, good, bad])
    phi = good[0]
    other = states.random_pure(2, 2, 147)
    with pytest.raises(ReductionError, match="^pair 1: "):
        transition.exact_local_transitions([(phi, phi), (phi, other)])
