"""Validated quantum state types and seeded generators.

Density matrices and bipartite pure states are thin frozen wrappers
around numpy arrays; construction goes through the ``make_*`` functions
which validate the defining invariants. Random generators take explicit
seeds and are bit-reproducible (see :mod:`qilab.rng`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

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
from .rng import Stream, complex_gauss_stack

# Most matrix entries one stacked build holds at once, so batching keeps
# memory flat; a matrix above it is built on its own.
BLOCK_ENTRIES = 2**14
NORM_TOL = 1e-9  # how far from 1 a vector's norm or a mixture's weight sum may be


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays themselves, made read-only in place (views of them too)."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


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
        vals, vecs = linalg.hermitian_eig(self.mat)
        return linalg.EigDecomposition(*_read_only(vals, vecs))


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
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2:
        raise SizeError(f"expected a 2-d matrix, got shape {mat.shape}")
    vals, vecs = _validated(mat, tol)
    return _density(_frozen(mat), *_read_only(vals, vecs))


def _validated(mats: np.ndarray, tol: float) -> linalg.EigDecomposition:
    """Check each matrix of ``mats`` (one, or a stack) is a density matrix;
    return the certified decomposition the checks were judged on."""
    dec = linalg.hermitian_eig(mats, tol)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    linalg.check_each(
        np.abs(tr - 1.0) > max(tol, 1e-12) * mats.shape[-1],
        TraceError,
        "{name} has trace {value} differing from 1 beyond tolerance",
        tr,
    )
    lowest = dec.eigenvalues[..., 0]
    linalg.check_each(
        lowest < -tol,
        NotPositiveError,
        "{name} has eigenvalue {value:.3e} below -tol",
        lowest,
    )
    return dec


def _density(mat: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> DensityMatrix:
    """A validated density with its ``eig`` cache seeded, from read-only
    arrays that no caller can write through."""
    rho = DensityMatrix(mat)
    rho.__dict__["eig"] = linalg.EigDecomposition(vals, vecs)
    return rho


def pure_density(vec) -> DensityMatrix:
    """Rank-one density |v><v| from a unit vector."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > NORM_TOL:
        raise NormalizationError(f"vector norm {nrm} is not 1 within tol")
    return DensityMatrix(_frozen(np.outer(v, np.conj(v))))


def mixture(weights, states) -> DensityMatrix:
    """Convex mixture sum_i w_i rho_i, revalidated."""
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(states):
        raise SizeError("one weight per state required")
    if np.any(w < -DEFAULT_TOL):
        raise NormalizationError("mixture weights must be non-negative")
    if abs(float(np.sum(w)) - 1.0) > NORM_TOL:
        raise NormalizationError(f"weights sum to {np.sum(w)}, expected 1")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise SizeError(f"states have mixed dimensions {sorted(dims)}")
    acc = np.zeros((dims.pop(),) * 2, dtype=np.complex128)
    for wi, si in zip(w, states):
        acc += wi * si.mat
    return make_density(acc)


def make_pure(dim_h: int, dim_k: int, vec) -> BipartitePureState:
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    if v.shape[0] != dim_h * dim_k:
        raise SizeError(
            f"vector length {v.shape[0]} does not match {dim_h}x{dim_k}"
        )
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > NORM_TOL:
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
    return random_densities([(dim, rank, seed)])[0]


def random_densities(specs) -> list[DensityMatrix]:
    """``[random_density(dim, rank, seed) for dim, rank, seed in specs]``,
    bit for bit, built in stacks.

    Specs of one ``(dim, rank)`` share one batched draw, one stacked
    product and trace and one stacked certified eigendecomposition, in
    blocks of at most :data:`BLOCK_ENTRIES` matrix entries. Each density's
    arrays are read-only views into its block's stacks.
    """
    return [_density_at(*row) for row in _random_stacks(specs)]


def random_densities_by_trial(trials):
    """For each ``(key, specs)`` in ``trials``, yield ``(key, densities)``:
    the random densities of its ``(dim, rank, seed)`` specs, in order.

    Trials are read lazily, and consecutive trials are built together in
    blocks of at most :data:`BLOCK_ENTRIES` matrix entries (a larger trial
    is a block of its own), so a sweep batches its draws while holding one
    block at a time.
    """
    block: list[tuple] = []
    entries = 0
    for key, specs in trials:
        specs = tuple(specs)
        size = sum(dim * dim for dim, _, _ in specs)
        if block and entries + size > BLOCK_ENTRIES:
            yield from _by_trial(block)
            block, entries = [], 0
        block.append((key, specs))
        entries += size
    if block:
        yield from _by_trial(block)


def _by_trial(block: list[tuple]):
    rows = iter(_random_stacks([spec for _, specs in block for spec in specs]))
    for key, specs in block:
        yield key, tuple(_density_at(*row) for row in islice(rows, len(specs)))


def _random_stacks(specs) -> list[tuple[tuple, int]]:
    """Per spec, ``(stack, j)``: its density and certified eigendecomposition
    are row ``j`` of the arrays ``stack = (mats, eigenvalues, eigenvectors)``,
    built as :func:`random_densities` describes."""
    specs = [(int(dim), int(rank), int(seed)) for dim, rank, seed in specs]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (dim, rank, _) in enumerate(specs):
        if not 1 <= rank <= dim:
            raise RankError(f"rank must be in [1, {dim}], got {rank}")
        groups.setdefault((dim, rank), []).append(i)
    out: list = [None] * len(specs)
    for (dim, rank), members in groups.items():
        step = max(1, BLOCK_ENTRIES // (dim * dim))
        for lo in range(0, len(members), step):
            block = members[lo : lo + step]
            g = complex_gauss_stack([specs[i][2] for i in block], dim, rank)
            rho = g @ dagger(g)
            rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
            stack = _read_only(rho, *_validated(rho, 1e-9))
            for j, i in enumerate(block):
                out[i] = (stack, j)
    return out


def _density_at(stack: tuple, j: int) -> DensityMatrix:
    mats, vals, vecs = stack
    return _density(mats[j], vals[j], vecs[j])


def random_pure(dim_h: int, dim_k: int, seed: int) -> BipartitePureState:
    """Uniformly random unit vector on H (x) K."""
    stream = Stream(seed)
    v = stream.complex_gauss_matrix(dim_h * dim_k, 1).reshape(-1)
    return make_pure(dim_h, dim_k, v / np.linalg.norm(v))
