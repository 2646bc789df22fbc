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
