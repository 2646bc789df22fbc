import inspect
import textwrap

import numpy as np
import pytest

from qilab import info, linalg, metrics, states, suites
from qilab.errors import NormalizationError, SizeError
from qilab.rng import Stream, derive_seed

SQRT2 = np.sqrt(2.0)

KET0 = states.pure_density([1, 0])
KET1 = states.pure_density([0, 1])
PLUS = states.pure_density(np.array([1, 1]) / SQRT2)


def random_pair(seed, dim):
    r1 = states.random_density(dim, 1 + Stream(derive_seed(seed, 0)).integer(dim), derive_seed(seed, 0))
    r2 = states.random_density(dim, 1 + Stream(derive_seed(seed, 1)).integer(dim), derive_seed(seed, 1))
    return r1, r2


def test_trace_norm_of_density_is_one():
    for seed in range(5):
        rho = states.random_density(4, 2 + seed % 3, seed)
        assert metrics.trace_norm(rho.mat) == pytest.approx(1.0, abs=1e-10)


def test_trace_norm_of_a_stack_is_per_matrix():
    stack = Stream(44).complex_gauss_matrix(2 * 3 * 4, 4).reshape(2, 3, 4, 4)
    norms = metrics.trace_norm(stack)
    assert norms.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert norms[idx] == metrics.trace_norm(stack[idx])
    assert metrics.trace_norm(np.zeros((0, 3, 3))).shape == (0,)


def test_trace_norm_rejects_non_finite_and_vectors():
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        mat = np.eye(3, dtype=complex)
        mat[1, 2] = bad
        with pytest.raises(ValueError):
            metrics.trace_norm(mat)
        with pytest.raises(ValueError):
            metrics.trace_norm(np.stack([np.eye(3), mat]))
    with pytest.raises(SizeError):
        metrics.trace_norm(np.ones(3))


def test_trace_distance_zero_and_orthogonal():
    assert metrics.trace_distance(KET0, KET0) == pytest.approx(0.0, abs=1e-12)
    assert metrics.trace_distance(KET0, KET1) == pytest.approx(2.0, abs=1e-12)


def test_trace_distance_zero_vs_plus():
    assert metrics.trace_distance(KET0, PLUS) == pytest.approx(SQRT2, abs=1e-12)


def test_trace_norm_multiplicative():
    a = Stream(40).complex_gauss_matrix(2, 2)
    b = Stream(41).complex_gauss_matrix(3, 3)
    assert metrics.trace_norm(np.kron(a, b)) == pytest.approx(
        metrics.trace_norm(a) * metrics.trace_norm(b), rel=1e-10
    )


def _density_route(pairs):
    """The trace distances of the pure densities of each pair: the independent reference."""
    return metrics.trace_distances([tuple(states.pure_densities(pq)) for pq in pairs])


def test_pure_trace_distances_match_the_density_route():
    pairs = np.array(
        [[states.random_pure(3, 1, derive_seed(42, seed, side)).vec for side in (0, 1)] for seed in range(10)]
    )
    np.testing.assert_allclose(metrics.pure_trace_distances(pairs), _density_route(pairs), atol=1e-9)


def test_pure_trace_distances_edge_cases():
    v = states.random_pure(4, 1, 43).vec
    assert metrics.pure_trace_distances(np.array([[v, v]]))[0] == pytest.approx(0.0, abs=1e-7)
    assert metrics.pure_trace_distances(np.array([[[1, 0], [0, 1]]]))[0] == pytest.approx(2.0)


def test_pure_trace_distances_reject_bad_vectors():
    # a non-unit vector used to read 2.0 and a NaN entry nan, silently
    good = ([1, 0], [0, 1])
    with pytest.raises(NormalizationError, match=r"^matrix \(1, 0\) has norm 0\.5,"):
        metrics.pure_trace_distances(np.array([good, ([0.5, 0], [0, 1])]))
    with pytest.raises(NormalizationError, match=r"^matrix \(2, 1\) has norm nan,"):
        metrics.pure_trace_distances(np.array([good, good, ([1, 0], [np.nan, 0])]))
    with pytest.raises(NormalizationError, match=r"^matrix \(0, 0\) "):
        metrics.pure_trace_distances(np.array([([0.5, 0], [0, 1])]))


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_pure_trace_distances_take_a_stack_of_pairs_as_it_is(dim):
    # the metrics suite's pure pairs as one (pairs, 2, d) array, as its kernel
    # makes them: each row bit for bit its one-pair stack
    g = np.stack([states.random_pure(dim, 1, derive_seed(47, i)).vec for i in range(60)])
    v = g.reshape(30, 2, dim)
    v[3, 1] = v[3, 0]  # a pair at distance 0
    stacked = metrics.pure_trace_distances(v)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (30,)
    assert stacked.tolist() == [metrics.pure_trace_distances(pq[None])[0] for pq in v]
    np.testing.assert_allclose(stacked, _density_route(v), atol=1e-9)
    real = np.zeros((2, 2, dim))
    real[:, 0, 0] = real[:, 1, 1] = 1.0
    assert metrics.pure_trace_distances(real).tolist() == [2.0, 2.0]
    v[17, 0, 0] = np.nan
    with pytest.raises(NormalizationError, match=r"^matrix \(17, 0\) has norm nan,"):
        metrics.pure_trace_distances(v)
    v[4, 1] *= 2.0
    with pytest.raises(NormalizationError, match=r"^matrix \(4, 1\) has norm 2,"):
        metrics.pure_trace_distances(v)
    for shape in [(3, dim), (4, 3, dim), (2, 2, 2, dim)]:
        with pytest.raises(SizeError, match=r"\(pairs, 2, d\)"):
            metrics.pure_trace_distances(np.zeros(shape, dtype=complex))


def test_fidelity_self_is_one():
    rho = states.random_density(4, 3, 44)
    assert metrics.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_pure_formula():
    for seed in range(6):
        v = states.random_pure(3, 1, derive_seed(45, seed)).vec
        rho = states.random_density(3, 2, derive_seed(46, seed))
        expected = float(np.real(np.conj(v) @ rho.mat @ v))
        assert metrics.fidelity(states.pure_density(v), rho) == pytest.approx(
            expected, abs=1e-8
        )


def _overlap_sq(phi1, phi2, u):
    a2 = phi2.coefficient_matrix() @ u.T
    return abs(np.vdot(phi1.vec, a2.reshape(-1))) ** 2


def _su2(alpha, beta, gamma):
    return np.array(
        [
            [np.exp(1j * beta) * np.cos(alpha), np.exp(1j * gamma) * np.sin(alpha)],
            [-np.exp(-1j * gamma) * np.sin(alpha), np.exp(-1j * beta) * np.cos(alpha)],
        ]
    )


def test_fidelity_against_purification_oracle():
    # oracle: maximize the purification overlap over K-side unitaries by
    # dense grid plus local refinement (qubit case only)
    for seed in (47, 48):
        r1, r2 = random_pair(seed, 2)
        phi1 = states.canonical_purification(r1, 2)
        phi2 = states.canonical_purification(r2, 2)
        grid = np.linspace(0, np.pi, 15)
        best, best_args = -1.0, None
        for a in grid:
            for b in np.linspace(-np.pi, np.pi, 15):
                for c in np.linspace(-np.pi, np.pi, 15):
                    val = _overlap_sq(phi1, phi2, _su2(a, b, c))
                    if val > best:
                        best, best_args = val, [a, b, c]
        step = 0.25
        for _ in range(40):
            for k in range(3):
                for cand in best_args[k] + np.linspace(-step, step, 9):
                    args = list(best_args)
                    args[k] = cand
                    val = _overlap_sq(phi1, phi2, _su2(*args))
                    if val > best:
                        best, best_args = val, args
            step *= 0.7
        assert metrics.fidelity(r1, r2) == pytest.approx(best, abs=1e-6)


def test_optimal_measurement_identical_states():
    rho = states.random_density(3, 2, 49)
    meas, achieved = metrics.optimal_measurement(rho, rho)
    info.validate_projective(list(meas), 3)
    assert achieved == pytest.approx(0.0, abs=1e-10)


def test_a_non_projector_measurement_fails_validate_projective():
    meas = metrics.TwoOutcomeMeasurement(np.diag([0.5, 0.0]), np.diag([0.5, 1.0]))
    with pytest.raises(ValueError):
        info.validate_projective(list(meas), 2)


def test_optimal_measurement_orthogonal_states():
    meas, achieved = metrics.optimal_measurement(KET0, KET1)
    assert achieved == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(meas.projector_pos, np.diag([1.0, 0.0]), atol=1e-12)


def test_optimal_measurement_achieves_trace_distance():
    for seed in range(20):
        r1, r2 = random_pair(derive_seed(50, seed), 2 + seed % 5)
        meas, achieved = metrics.optimal_measurement(r1, r2)
        info.validate_projective(list(meas), r1.dim)
        assert achieved == pytest.approx(
            metrics.trace_distance(r1, r2), abs=1e-9
        )


def test_random_measurements_never_beat_trace_distance():
    for seed in range(30):
        dim = 2 + seed % 4
        r1, r2 = random_pair(derive_seed(51, seed), dim)
        u = states.random_unitary(dim, derive_seed(52, seed))
        l1 = 0.0
        for k in range(dim):
            proj = np.outer(u[:, k], np.conj(u[:, k]))
            l1 += abs(np.trace(proj @ (r1.mat - r2.mat)).real)
        assert l1 <= metrics.trace_distance(r1, r2) + 1e-9


def test_bayes_success():
    assert metrics.bayes_success(KET0, KET0) == pytest.approx(0.5)
    assert metrics.bayes_success(KET0, KET1) == pytest.approx(1.0)
    assert metrics.bayes_success(KET0, PLUS) == pytest.approx(
        0.5 + SQRT2 / 4.0, abs=1e-12
    )


def bounds(r1, r2):
    return metrics.fidelity_distance_bounds(
        metrics.fidelity(r1, r2), metrics.trace_distance(r1, r2)
    )


def test_fidelity_distance_bounds_edges():
    rho = states.random_density(3, 2, 53)
    lo, up = bounds(rho, rho)
    assert lo == pytest.approx(0.0, abs=1e-7)
    assert up == pytest.approx(0.0, abs=1e-7)
    lo, up = bounds(KET0, KET1)
    assert lo == pytest.approx(0.0, abs=1e-10)
    assert up == pytest.approx(0.0, abs=1e-10)


def test_fidelity_distance_bounds_sweep():
    worst = np.inf
    for seed in range(300):
        r1, r2 = random_pair(derive_seed(54, seed), 2 + seed % 7)
        lo, up = bounds(r1, r2)
        worst = min(worst, lo, up)
    assert worst >= -1e-9


def test_symmetry():
    r1, r2 = random_pair(55, 4)
    assert metrics.trace_distance(r1, r2) == pytest.approx(
        metrics.trace_distance(r2, r1), abs=1e-10
    )
    assert metrics.fidelity(r1, r2) == pytest.approx(
        metrics.fidelity(r2, r1), abs=1e-10
    )


def test_unitary_invariance():
    r1, r2 = random_pair(56, 3)
    u = states.random_unitary(3, 57)
    c1 = states.make_density(u @ r1.mat @ u.conj().T, tol=1e-8)
    c2 = states.make_density(u @ r2.mat @ u.conj().T, tol=1e-8)
    assert metrics.trace_distance(c1, c2) == pytest.approx(
        metrics.trace_distance(r1, r2), abs=1e-9
    )
    assert metrics.fidelity(c1, c2) == pytest.approx(
        metrics.fidelity(r1, r2), abs=1e-9
    )


def test_distance_monotone_under_partial_trace():
    for seed in range(20):
        r1, r2 = random_pair(derive_seed(58, seed), 4)
        t_full = metrics.trace_distance(r1, r2)
        p1 = states.make_density(linalg.partial_trace(r1.mat, 2, 2, "H"), tol=1e-8)
        p2 = states.make_density(linalg.partial_trace(r2.mat, 2, 2, "H"), tol=1e-8)
        assert metrics.trace_distance(p1, p2) <= t_full + 1e-9


def test_dimension_mismatch():
    with pytest.raises(SizeError):
        metrics.trace_distance(KET0, states.random_density(3, 1, 59))


def _sliced_fidelity(r1, r2):
    # the per-pair formula: each side's factor keeps only its eigenvalues above 1e-14
    a1, a2 = (vecs[:, vals > 1e-14] * np.sqrt(vals[vals > 1e-14]) for vals, vecs in (r1.eig, r2.eig))
    root_f = float(np.sum(np.linalg.svd(linalg.dagger(a1) @ a2, compute_uv=False)))
    return float(min(max(root_f**2, 0.0), 1.0))


def test_stacked_distances_and_fidelities_match_the_pair_formulas():
    # a stack zeroes the noise-level eigenvalues a pair's own factor drops, so
    # its SVD sees zero rows and columns: a fidelity may move by a few ulps
    pairs = [random_pair(derive_seed(131, t), 2 + t % 7) for t in range(80)]
    pairs += [(KET0, KET1), (KET0, KET0), (PLUS, KET1)]
    dists, fids = metrics.trace_distances(pairs), metrics.fidelities(pairs)
    for i, (r1, r2) in enumerate(pairs):
        diff = np.linalg.svd(r1.mat - r2.mat, compute_uv=False, hermitian=True)
        assert dists[i] == float(np.sum(diff)) == metrics.trace_distance(r1, r2), f"pair {i}"
        assert abs(fids[i] - _sliced_fidelity(r1, r2)) <= 1e-15, f"pair {i}"
        assert metrics.fidelity(r1, r2) == metrics.fidelities([(r1, r2)])[0], f"pair {i}"
    # a lone pair of its dimension keeps exactly its own factors
    r1, r2 = random_pair(136, 203)
    assert metrics.fidelities([(KET0, KET1), (r1, r2)])[1] == _sliced_fidelity(r1, r2)


def test_stacked_calls_name_the_failing_item_by_its_index():
    with pytest.raises(SizeError, match="^pair 1: "):
        metrics.trace_distances([(KET0, KET1), (KET0, states.random_density(3, 1, 132))])


def test_a_lone_matrix_of_its_shape_goes_to_the_svd_as_a_view(monkeypatch):
    # a one-member shape group used to copy its matrix into a new stack
    seen = []
    trace_norm = metrics.trace_norm

    def noting(a, hermitian=False):
        seen.append((a, hermitian))
        return trace_norm(a, hermitian)

    monkeypatch.setattr(metrics, "trace_norm", noting)
    # a lone d = 203 difference of densities goes the Hermitian route as a view
    r1, r2 = random_pair(134, 203)
    dists = metrics.trace_distances([(KET0, KET1), (r1, r2)])
    assert [h for _, h in seen] == [True, True]
    lone = seen[1][0]
    assert lone.shape == (1, 203, 203) and lone.base is not None and lone.base.shape == (203, 203)
    assert dists[1] == float(np.sum(np.linalg.svd(r1.mat - r2.mat, compute_uv=False, hermitian=True)))


def _svd_trace_norm(a):
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def test_trace_distances_agree_with_the_general_svd():
    # densities of every rank pair at d = 2..8, pure pairs and one d = 203 pair
    specs = [
        (d, r, derive_seed(135, d, r1, r2, k))
        for d in range(2, 9)
        for r1 in range(1, d + 1)
        for r2 in range(1, d + 1)
        for k, r in enumerate((r1, r2))
    ]
    rhos = states.random_densities(specs)
    pairs = list(zip(rhos[::2], rhos[1::2]))
    stream = Stream(136)
    kets = [stream.complex_gauss_matrix(2 + t // 2 % 7, 1) for t in range(42)]
    pures = states.pure_densities([k / np.linalg.norm(k) for k in kets])
    pairs += list(zip(pures[::2], pures[1::2])) + [random_pair(137, 203)]
    for i, ((r1, r2), dist) in enumerate(zip(pairs, metrics.trace_distances(pairs))):
        assert abs(dist - _svd_trace_norm(r1.mat - r2.mat)) <= 1e-13, f"pair {i}"


@pytest.mark.parametrize("dim", range(2, 9))
def test_an_asymmetric_density_moves_its_trace_distance_by_at_most_d_eps(dim):
    # eigvalsh reads the lower triangle: a density certified at tol=1e-8 whose
    # upper triangle is off by up to eps reads as its Hermitian lower part
    eps = 1e-9
    rho, sigma = random_pair(derive_seed(138, dim), dim)
    upper = np.triu(Stream(derive_seed(139, dim)).complex_gauss_matrix(dim, dim), 1)
    tilted = states.make_density(rho.mat + eps * upper / np.abs(upper).max(), tol=1e-8)
    assert np.abs(tilted.mat - linalg.dagger(tilted.mat)).max() == pytest.approx(eps)
    dist = metrics.trace_distance(tilted, sigma)
    assert dist == metrics.trace_distance(rho, sigma)
    assert abs(dist - _svd_trace_norm(tilted.mat - sigma.mat)) <= dim * eps


def test_a_general_matrix_keeps_the_svd():
    # its lower triangle is zero: eigenvalues would read a trace norm of 0
    assert metrics.trace_norm([[0, 1], [0, 0]]) == 1.0


def test_the_helstrom_l1_value_agrees_with_the_trace_distance():
    # optimal_measurements reads eigh's spectrum, trace_distances eigvalsh's
    pairs = [random_pair(derive_seed(140, t), 2 + t % 7) for t in range(70)]
    pairs += [random_pair(141, 64), random_pair(142, 203), (KET0, KET1), (KET0, KET0)]
    dists = metrics.trace_distances(pairs)
    for i, ((_, l1), dist) in enumerate(zip(metrics.optimal_measurements(pairs), dists)):
        assert abs(l1 - dist) <= 1e-12, f"pair {i}"


def _mutant(func, old, new):
    """``func`` compiled from its source with ``old`` replaced by ``new``, in its module."""
    source = textwrap.dedent(inspect.getsource(func))
    assert old in source
    namespace = dict(vars(inspect.getmodule(func)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
    return namespace[func.__name__]


# the metrics suite reads ||r1 - r2||_t and the measurement attaining it from
# one certified spectrum per difference: a mutant of that step still fails
_HELSTROM_MUTANTS = {
    "P+ missing its top eigenvector": ("dim - k :]", "dim - k : -1]", {"measurement_tightness"}),
    "sum |eigenvalues| x (1 + 1e-6)": (
        "[..., ::-1], axis=-1)", "[..., ::-1], axis=-1) * (1 + 1e-6)",
        {"fvg_upper", "measurement_tightness"},
    ),
}


@pytest.mark.parametrize("mutant", [None, *_HELSTROM_MUTANTS])
def test_the_checks_on_the_shared_spectrum_can_fail(monkeypatch, mutant):
    if mutant is not None:
        old, new, _ = _HELSTROM_MUTANTS[mutant]
        monkeypatch.setattr(metrics, "_helstrom", _mutant(metrics._helstrom, old, new))
    checks = suites.run_suite("metrics", suites.SuiteConfig(seed=1, trials=100))
    failed = {c.name for c in checks if c.violations}
    if mutant is None:
        assert failed == set()
    else:
        assert failed and failed <= _HELSTROM_MUTANTS[mutant][2]
