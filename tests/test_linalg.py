import numpy as np
import pytest

from qilab import linalg
from qilab.errors import ConvergenceError, HermiticityError, SizeError
from qilab.rng import Stream
from qilab.states import random_unitary


def random_complex(rows, cols, seed):
    return Stream(seed).complex_gauss_matrix(rows, cols)


def test_as_matrix_takes_matrices_and_stacks_but_not_vectors():
    assert linalg.as_matrix(np.eye(2)).shape == (2, 2)
    assert linalg.as_matrix(np.zeros((3, 2, 2))).dtype == np.complex128
    with pytest.raises(SizeError):
        linalg.as_matrix(np.ones(4))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_eig_diagonal():
    vals, vecs = linalg.hermitian_eig(np.diag([2.0, 1.0]))
    assert np.allclose(vals, [1.0, 2.0])
    assert np.allclose(np.abs(vecs), [[0, 1], [1, 0]])


def test_eig_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    vals, vecs = linalg.hermitian_eig(x)
    assert np.allclose(vals, [-1.0, 1.0])
    for k, lam in enumerate(vals):
        assert np.allclose(x @ vecs[:, k], lam * vecs[:, k], atol=1e-12)


def test_eig_random_residual():
    g = random_complex(6, 6, 5)
    a = (g + g.conj().T) / 2
    vals, vecs = linalg.hermitian_eig(a)
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-10 * np.linalg.norm(a)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(6)) <= 1e-10
    assert np.all(np.diff(vals) >= -1e-14)


def test_eig_invariant_under_conjugation():
    g = random_complex(5, 5, 6)
    a = (g + g.conj().T) / 2
    u = random_unitary(5, 7)
    vals_a, _ = linalg.hermitian_eig(a)
    vals_b, _ = linalg.hermitian_eig(u @ a @ u.conj().T)
    assert np.allclose(vals_a, vals_b, atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_svd_identity():
    _, s, _ = linalg.svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_rank_one():
    u = random_complex(4, 1, 8).reshape(-1)
    u /= np.linalg.norm(u)
    v = random_complex(3, 1, 9).reshape(-1)
    v /= np.linalg.norm(v)
    _, s, _ = linalg.svd(np.outer(u, np.conj(v)))
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(s[1:] <= 1e-12)


def test_svd_cross_check_trace_norm():
    # oracle: trace norm as the sum of square roots of eig(a^dag a)
    a = random_complex(4, 3, 10)
    _, s, _ = linalg.svd(a)
    vals = np.linalg.eigvalsh(a.conj().T @ a)
    assert np.sum(s) == pytest.approx(np.sum(np.sqrt(np.clip(vals, 0.0, None))), abs=1e-10)


def test_svd_reconstruction():
    a = random_complex(5, 4, 11)
    u, s, v = linalg.svd(a)
    assert np.linalg.norm(a - (u * s) @ v.conj().T) <= 1e-10 * np.linalg.norm(a)


def test_svd_hermitian_psd_matches_eigenvalues():
    g = random_complex(5, 5, 12)
    a = g @ g.conj().T
    a /= np.trace(a).real
    _, s, _ = linalg.svd(a)
    vals, _ = linalg.hermitian_eig(a)
    assert np.allclose(s, vals[::-1], atol=1e-10)


def test_partial_trace_product_state():
    ga = random_complex(2, 2, 14)
    gb = random_complex(3, 3, 15)
    rho_a = ga @ ga.conj().T
    rho_a /= np.trace(rho_a).real
    rho_b = gb @ gb.conj().T
    rho_b /= np.trace(rho_b).real
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(linalg.partial_trace(joint, 2, 3, "H"), rho_a, atol=1e-12)
    assert np.allclose(linalg.partial_trace(joint, 2, 3, "K"), rho_b, atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(linalg.partial_trace(rho, 2, 2, "H"), np.eye(2) / 2)


def test_partial_trace_equal_spectra():
    # oracle: both reduced matrices of a pure state share nonzero spectrum
    v = random_complex(12, 1, 16).reshape(-1)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    spec_h = np.linalg.eigvalsh(linalg.partial_trace(rho, 3, 4, "H"))
    spec_k = np.linalg.eigvalsh(linalg.partial_trace(rho, 3, 4, "K"))
    spec_h = np.sort(spec_h[spec_h > 1e-12])
    spec_k = np.sort(spec_k[spec_k > 1e-12])
    assert np.allclose(spec_h, spec_k, atol=1e-10)


def test_partial_trace_dimension_error():
    with pytest.raises(SizeError):
        linalg.partial_trace(np.eye(5), 2, 2, "H")


def _hermitian_stack(shape, d, seed):
    g = Stream(seed).complex_gauss_matrix(int(np.prod(shape)) * d, d)
    g = g.reshape(shape + (d, d))
    return g + linalg.dagger(g)


@pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
@pytest.mark.parametrize("d", [1, 2, 5, 8])
def test_stacked_hermitian_eig_is_per_matrix(shape, d):
    stack = _hermitian_stack(shape, d, 17 + d)
    vals, vecs = linalg.hermitian_eig(stack)
    assert vals.shape == shape + (d,) and vecs.shape == shape + (d, d)
    for idx in np.ndindex(shape):
        one_vals, one_vecs = linalg.hermitian_eig(stack[idx])
        assert np.array_equal(vals[idx], one_vals)
        assert np.array_equal(vecs[idx], one_vecs)


def test_stacked_hermitian_eig_names_the_failing_matrix():
    stack = _hermitian_stack((4,), 3, 5)
    skew = stack.copy()
    skew[2, 0, 1] += 1.0
    with pytest.raises(HermiticityError, match="matrix 2 "):
        linalg.hermitian_eig(skew)
    bad = stack.copy()
    bad[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="matrix 1 "):
        linalg.hermitian_eig(bad)
    grid = _hermitian_stack((2, 3), 2, 6)
    grid[1, 0, 0, 1] = np.inf
    with pytest.raises(ValueError, match=r"matrix \(1, 0\) "):
        linalg.hermitian_eig(grid)
    # one matrix keeps its unnumbered messages
    with pytest.raises(HermiticityError, match="^matrix is not Hermitian"):
        linalg.hermitian_eig(skew[2])
    with pytest.raises(ValueError, match="^matrix contains non-finite"):
        linalg.hermitian_eig(bad[1])


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (4, 2), (2, 5), (8, 8)])
def test_stacked_svd_is_per_matrix(rows, cols):
    stack = random_complex(6 * rows, cols, 40 + rows).reshape(6, rows, cols)
    u, s, v = linalg.svd(stack)
    for i in range(6):
        one = linalg.svd(stack[i])
        assert all(np.array_equal(a[i], b) for a, b in zip((u, s, v), one)), f"matrix {i}"


def test_stacked_svd_names_the_matrix_it_cannot_certify(monkeypatch):
    real = np.linalg.svd

    def off(a, *args, **kwargs):
        u, s, vh = real(a, *args, **kwargs)
        s[2] *= 1.5
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", off)
    with pytest.raises(ConvergenceError, match="^matrix 2 has SVD residual"):
        linalg.svd(random_complex(12, 3, 45).reshape(4, 3, 3))
