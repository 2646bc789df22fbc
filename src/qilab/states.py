"""Validated quantum state types and seeded generators.

Density matrices and bipartite pure states are thin frozen wrappers
around numpy arrays; construction goes through the ``make_*`` functions
which validate the defining invariants. Random generators take explicit
seeds and are bit-reproducible (see :mod:`qilab.rng`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    NormalizationError,
    NotPositiveError,
    RankError,
    SizeError,
    TraceError,
)
from .linalg import DEFAULT_TOL, dagger
from .rng import Stream


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix representing a mixed state."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def eig(self) -> linalg.EigDecomposition:
        """Certified eigendecomposition, read-only; make_density seeds it."""
        return _read_only(linalg.hermitian_eig(self.mat))


def _read_only(dec: linalg.EigDecomposition) -> linalg.EigDecomposition:
    for arr in dec:
        arr.setflags(write=False)
    return dec


@dataclass(frozen=True)
class BipartitePureState:
    """Unit vector on H (x) K with the factor dimensions recorded.

    The amplitude of |i>_H |j>_K sits at index ``i * dim_k + j`` (H most
    significant), matching :func:`qilab.linalg.tensor`.
    """

    dim_h: int
    dim_k: int
    vec: np.ndarray

    def coefficient_matrix(self) -> np.ndarray:
        """Reshape to (dim_h, dim_k); rows index H, columns index K."""
        return self.vec.reshape(self.dim_h, self.dim_k)


def make_density(mat, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Validate Hermiticity, unit trace and, on the cached ``eig``, positivity."""
    dec = linalg.hermitian_eig(mat, tol)
    mat = np.asarray(mat, dtype=np.complex128)
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > max(tol, 1e-12) * mat.shape[0]:
        raise TraceError(f"trace {tr} differs from 1 beyond tolerance")
    if dec.eigenvalues[0] < -tol:
        raise NotPositiveError(
            f"density matrix has eigenvalue {dec.eigenvalues[0]:.3e} below -tol"
        )
    rho = DensityMatrix(_frozen(mat))
    rho.__dict__["eig"] = _read_only(dec)
    return rho


def pure_density(vec, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Rank-one density |v><v| from a unit vector."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > max(tol, 1e-9):
        raise NormalizationError(f"vector norm {nrm} is not 1 within tol")
    return DensityMatrix(_frozen(np.outer(v, np.conj(v))))


def mixture(weights, states, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Convex mixture sum_i w_i rho_i, revalidated."""
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(states):
        raise SizeError("one weight per state required")
    if np.any(w < -tol):
        raise NormalizationError("mixture weights must be non-negative")
    if abs(float(np.sum(w)) - 1.0) > max(tol, 1e-9):
        raise NormalizationError(f"weights sum to {np.sum(w)}, expected 1")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise SizeError(f"states have mixed dimensions {sorted(dims)}")
    acc = np.zeros((dims.pop(),) * 2, dtype=np.complex128)
    for wi, si in zip(w, states):
        acc += wi * si.mat
    return make_density(acc, tol)


def make_pure(dim_h: int, dim_k: int, vec, tol: float = DEFAULT_TOL) -> BipartitePureState:
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if v.shape[0] != dim_h * dim_k:
        raise SizeError(
            f"vector length {v.shape[0]} does not match {dim_h}x{dim_k}"
        )
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > max(tol, 1e-9):
        raise NormalizationError(f"state norm {nrm} is not 1 within tol")
    return BipartitePureState(int(dim_h), int(dim_k), _frozen(v / nrm))


def reduced_state(psi: BipartitePureState, keep: str = "H") -> DensityMatrix:
    """Reduced density matrix of a bipartite pure state."""
    a = psi.coefficient_matrix()
    if keep == "H":
        return make_density(a @ dagger(a), tol=1e-8)
    if keep == "K":
        return make_density(a.T @ np.conj(a), tol=1e-8)
    raise ValueError(f"keep must be 'H' or 'K', got {keep!r}")


def _phase_normalized(vec: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate global phase so the first non-negligible entry is real positive."""
    for z in vec:
        if abs(z) > tol:
            return vec * (np.conj(z) / abs(z))
    return vec


def canonical_purification(rho: DensityMatrix, dim_k: int) -> BipartitePureState:
    """Purification sum_i sqrt(l_i) |e_i>_H |i>_K over a fresh K register.

    Eigenvalues are taken in descending order and the K side uses the
    computational basis in that order. Ties are broken by a secondary sort
    on the phase-normalized leading entry of each eigenvector, so the
    output is deterministic.
    """
    vals, vecs = rho.eig
    cols = [_phase_normalized(vecs[:, i]) for i in range(len(vals))]
    secondary = np.array(
        [next((abs(z) for z in c if abs(z) > 1e-12), 0.0) for c in cols]
    )
    order = np.lexsort((secondary, -vals))
    vals = vals[order]
    cols = [cols[i] for i in order]
    rank = max(int(np.sum(vals > DEFAULT_TOL)), 1)
    if dim_k < rank:
        raise RankError(f"dim_k={dim_k} is below the state rank {rank}")
    a = np.zeros((rho.dim, dim_k), dtype=np.complex128)
    for i in range(rank):
        a[:, i] = np.sqrt(max(vals[i], 0.0)) * cols[i]
    vec = a.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return BipartitePureState(rho.dim, int(dim_k), _frozen(vec))


def distance_up_to_phase(v, w) -> float:
    """min over phases of || v - e^{i t} w ||_2.

    Computed by rotating w onto the optimal phase and subtracting, which
    stays accurate near zero where the closed form 2 - 2|<v,w>| cancels.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    w = np.asarray(w, dtype=np.complex128).reshape(-1)
    if v.shape != w.shape:
        raise SizeError("vectors must have equal length")
    inner = np.vdot(v, w)
    if abs(inner) == 0.0:
        return float(np.sqrt(np.linalg.norm(v) ** 2 + np.linalg.norm(w) ** 2))
    phase = np.conj(inner) / abs(inner)
    return float(np.linalg.norm(v - phase * w))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary from a QR-corrected complex Gaussian."""
    stream = Stream(seed)
    z = stream.complex_gauss_matrix(dim, dim)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = d / np.abs(d)
    u = q * phases
    if linalg.frobenius(dagger(u) @ u - np.eye(dim)) > 1e-10:
        raise NormalizationError("generated matrix failed the unitarity check")
    return u


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Gram matrix of ``rank`` complex Gaussian columns, trace-normalized."""
    if not 1 <= rank <= dim:
        raise RankError(f"rank must be in [1, {dim}], got {rank}")
    stream = Stream(seed)
    g = stream.complex_gauss_matrix(dim, rank)
    rho = g @ dagger(g)
    rho = rho / np.trace(rho).real
    return make_density(rho, tol=1e-9)


def random_pure(dim_h: int, dim_k: int, seed: int) -> BipartitePureState:
    """Uniformly random unit vector on H (x) K."""
    stream = Stream(seed)
    v = stream.complex_gauss_matrix(dim_h * dim_k, 1).reshape(-1)
    return make_pure(dim_h, dim_k, v / np.linalg.norm(v))
