"""Validated quantum state types and seeded generators.

Density matrices and bipartite pure states are thin frozen wrappers
around numpy arrays; construction goes through the ``make_*`` functions
which validate the defining invariants. Random generators take explicit
seeds and are bit-reproducible (see :mod:`qilab.rng`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import linalg
from .errors import (
    NormalizationError,
    NotPositiveError,
    QilabError,
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
CHUNK_TRIALS = 64  # trials per stacked chunk: few enough to keep the working set flat
ZERO_CUT = 1e-12  # probabilities and eigenvalues at or below it count as 0 in entropies


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

    @cached_property
    def entropy(self) -> float:
        """Von Neumann entropy in bits. A density certified in a stack reads
        its row of the stack's entropies, computed together at the first read."""
        vals, j, memo = self.__dict__.get("_row") or (self.eig.eigenvalues, (), {})
        if "rows" not in memo:
            memo["rows"] = entropy_rows(np.clip(vals, 0.0, 1.0))
        return float(memo["rows"][j])


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the entries above :data:`ZERO_CUT` of each row (last
    axis) of the clipped ``p``; each row bit for bit its 1-d masked sum."""
    mask = p > ZERO_CUT
    out = -np.sum(np.where(mask, p * np.log2(np.where(mask, p, 1.0)), 0.0), axis=-1)
    if p.shape[-1] < 8 or mask.all():
        return out
    # numpy's pairwise sum unrolls at 8 entries, where a zero standing in for
    # a dropped entry regroups the sum: such rows keep the 1-d masked sum
    out = np.array(out)
    for i in map(tuple, np.argwhere(~mask.all(axis=-1))):
        out[i] = -np.sum(p[i][mask[i]] * np.log2(p[i][mask[i]]))
    return out


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
    """Validate Hermiticity, unit trace and, on the cached ``eig``, positivity.

    ``make_densities([mat], tol)[0]`` bit for bit, for one-off states: a stack
    of one costs about 15% more per call (numpy 2.4.6, x86-64). Seed-1 suite
    passes make few: 31 in protocol, none in sweep, encoding or large-d.
    """
    mat = _frozen(_matrix(mat))
    return _density(mat, *_read_only(*_validated(mat, tol)))


def make_densities(mats, tol=DEFAULT_TOL) -> list[DensityMatrix]:
    """``[make_density(mat, t) for mat, t in zip(mats, tols)]`` bit for bit,
    with one certified stacked validation per matrix shape and tolerance.

    ``tol`` is one tolerance or one per matrix. A failing matrix's error
    names its index in ``mats``.
    """
    return [_density_at(*row) for row in _certified_stacks(mats, tol)]


def _matrix(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2:
        raise SizeError(f"expected a 2-d matrix, got shape {mat.shape}")
    return mat


def _certified_stacks(mats, tol) -> list[tuple[tuple, int]]:
    mats = [_matrix(mat) for mat in mats]

    def build(key, members):
        return _certified(np.array([mats[i] for i in members]), key[1])

    tols = [tol] * len(mats) if isinstance(tol, (int, float)) else list(tol)
    keys = [(mat.shape, float(t)) for mat, t in zip(mats, tols)]
    return stacked(keys, build, lambda key: key[0][0] * key[0][1])


def _certified(mats: np.ndarray, tol: float) -> tuple:
    """``(mats, eigenvalues, eigenvectors, memo)`` of a validated stack; the
    memo keeps its entropies once one is read."""
    vals, vecs = _validated(mats, tol)
    return (*_read_only(mats, vals, vecs), {})


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
    """Rank-one density |v><v| from a unit vector: the one-vector :func:`pure_densities`."""
    return pure_densities([vec])[0]


def pure_densities(vecs) -> list[DensityMatrix]:
    """Per unit vector v, |v><v|, stacked per length; a failing vector names its index."""
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vecs]

    def build(n, members):
        v = np.array([vecs[i] for i in members])
        _unit_norms(v)
        return _read_only(v[:, :, None] * np.conj(v)[:, None, :])

    return [DensityMatrix(m[j]) for (m,), j in stacked([len(v) for v in vecs], build, np.square)]


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of the complex stack ``v``, bit for bit."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _unit_norms(v: np.ndarray) -> np.ndarray:
    """:func:`_norms`, each checked to be 1 within :data:`NORM_TOL` (NaN fails)."""
    nrm = _norms(v)
    bad = ~(np.abs(nrm - 1.0) <= NORM_TOL)
    linalg.check_each(bad, NormalizationError, "{name} has norm {value}, not 1 within tol", nrm)
    return nrm


def mixture(weights, states) -> DensityMatrix:
    """Convex mixture sum_i w_i rho_i, revalidated."""
    return make_density(mixture_matrix(weights, [s.mat for s in states]))


def mixture_matrix(weights, mats) -> np.ndarray:
    """sum_i w_i mats[i], after :func:`mixture`'s checks on the weights and
    dimensions; certifying it is left to the caller. The ``mats[i]`` may be
    equal-shape stacks, mixed entry by entry."""
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(mats):
        raise SizeError("one weight per state required")
    if not np.all(w >= -DEFAULT_TOL):
        raise NormalizationError("mixture weights must be non-negative")
    if not abs(float(np.sum(w)) - 1.0) <= NORM_TOL:
        raise NormalizationError(f"weights sum to {np.sum(w)}, expected 1")
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise SizeError(f"states have mixed dimensions {sorted(s[-1] for s in shapes)}")
    acc = np.zeros(shapes.pop(), dtype=np.complex128)
    for wi, mi in zip(w, mats):
        acc += wi * mi
    return acc


def make_pure(dim_h: int, dim_k: int, vec) -> BipartitePureState:
    """``vec`` as a state on H (x) K: the one-state :func:`make_pures`."""
    return make_pures([(dim_h, dim_k, vec)])[0]


def make_pures(items, rescale: bool = False) -> list[BipartitePureState]:
    """Per ``(dim_h, dim_k, vec)``, ``vec`` over its norm, which must be 1 within
    :data:`NORM_TOL` (``rescale`` first divides it by its norm: a Gaussian made
    a state), stacked per shape; a failing vector's error names its index."""
    items = [(int(h), int(k), np.asarray(v, dtype=np.complex128).reshape(-1)) for h, k, v in items]

    def build(key, members):
        h, k, n = key
        if n != h * k:
            raise SizeError(f"vector length {n} does not match {h}x{k}")
        v = np.array([items[i][2] for i in members])
        v = v / _norms(v)[:, None] if rescale else v
        return _read_only(v / _unit_norms(v)[:, None])

    keys = [(h, k, len(v)) for h, k, v in items]
    out = zip(keys, stacked(keys, build, lambda key: key[2]))
    return [BipartitePureState(h, k, v[j]) for (h, k, _), ((v,), j) in out]


def reduced_state(psi: BipartitePureState, keep: str = "H") -> DensityMatrix:
    """Reduced density matrix of a bipartite pure state."""
    a = psi.coefficient_matrix()
    if keep == "H":
        return make_density(a @ dagger(a), tol=1e-8)
    if keep == "K":
        return make_density(a.T @ np.conj(a), tol=1e-8)
    raise ValueError(f"keep must be 'H' or 'K', got {keep!r}")


def canonical_purification(rho: DensityMatrix, dim_k: int) -> BipartitePureState:
    """The one-density :func:`canonical_purifications`."""
    return canonical_purifications([rho], [dim_k])[0]


def canonical_purifications(rhos, dim_ks) -> list[BipartitePureState]:
    """Per density and ``dim_k``, the purification sum_i sqrt(l_i) |e_i>_H |i>_K
    over a fresh K register, one stacked pass per (dim, dim_k) group.

    Eigenvalues descend, the K side in that order. Each eigenvector's phase
    makes its first entry above 1e-12 in modulus real positive, and ties are
    broken by that entry's modulus. A RankError names the item's index.
    """
    rhos = list(rhos)
    keys = [(rho.dim, int(k)) for rho, k in zip(rhos, dim_ks)]

    def build(key, members):
        dim, dim_k = key
        vals, vecs = (np.array([rhos[i].eig[k] for i in members]) for k in (0, 1))
        rows, ix = np.arange(len(members))[:, None], np.arange(dim)
        first = vecs[rows, _first_rows(vecs), ix]
        cols = vecs * (np.conj(first) / np.hypot(first.real, first.imag))[:, None, :]
        lead = cols[rows, _first_rows(cols), ix]
        order = np.lexsort((np.hypot(lead.real, lead.imag), -vals), axis=-1)
        vals, cols = vals[rows, order], cols[rows[..., None], ix[:, None], order[:, None, :]]
        rank = np.maximum(np.sum(vals > DEFAULT_TOL, axis=-1), 1)
        message = f"{{name}} has rank {{value}} above dim_k={dim_k}"
        linalg.check_each(rank > dim_k, RankError, message, rank)
        n = min(dim, dim_k)
        a = np.zeros((len(members), dim, dim_k), dtype=np.complex128)
        scaled = cols[..., :n] * np.sqrt(np.maximum(vals[:, None, :n], 0.0))
        a[..., :n] = np.where(ix[:n] < rank[:, None, None], scaled, 0.0)
        vec = a.reshape(len(members), -1)
        return _read_only(vec / _norms(vec)[:, None])

    out = zip(keys, stacked(keys, build, np.prod))
    return [BipartitePureState(*key, vec[j]) for key, ((vec,), j) in out]


def _first_rows(vecs: np.ndarray) -> np.ndarray:
    """Per column, the row of its first entry above 1e-12 in modulus. Moduli by
    hypot, as abs() of one entry; np.abs of an array may differ by an ulp."""
    return np.argmax(np.hypot(vecs.real, vecs.imag) > 1e-12, axis=-2)


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
    return unitary_from_gauss(Stream(seed).complex_gauss_matrix(dim, dim))


def unitary_from_gauss(z: np.ndarray) -> np.ndarray:
    """:func:`random_unitary`'s unitary of ``z``: the one-matrix :func:`unitaries_from_gauss`."""
    return unitaries_from_gauss([z])[0]


def unitaries_from_gauss(zs) -> list[np.ndarray]:
    """Per square complex Gaussian z, its QR factor with R's diagonal phases moved
    into Q, stacked per shape; a z failing the unitarity check (a singular or
    non-finite one) names its index."""
    zs = [np.asarray(z, dtype=np.complex128) for z in zs]

    def build(shape, members):
        q, r = np.linalg.qr(np.array([zs[i] for i in members]))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        u = q * (d / np.abs(d))[:, None, :]
        off = linalg.frobenius(dagger(u) @ u - np.eye(shape[0]))
        linalg.check_each(~(off <= 1e-10), NormalizationError, "{name} is not unitary")
        return (u,)

    return [u[j] for (u,), j in stacked([z.shape for z in zs], build, np.prod)]


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


def random_densities_by_trial(trials, derive=None):
    """For each ``(key, specs)`` in ``trials``, yield ``(key, densities)``:
    the random densities of its ``(dim, rank, seed)`` specs, in order. A
    trial ``(key, specs, draws)`` yields ``(key, densities, gaussians)``,
    with ``Stream(seed).complex_gauss_matrix(rows, cols)``, bit for bit and
    read-only, for each ``(rows, cols, seed)`` of ``draws``.

    Trials are read lazily and built together in blocks of at most
    :data:`BLOCK_ENTRIES` matrix entries, densities and draws alike (a
    larger trial is a block of its own): its densities as
    :func:`random_densities` builds them, and one
    :func:`~qilab.rng.complex_gauss_stack` per draw shape.

    With ``derive``, ``derive(key, mats)`` maps a trial's density matrices
    to a list of ``(matrix, tol)`` pairs, and the trial's densities go on
    with those matrices made densities, as :func:`make_densities` makes
    them for the whole block. Densities are wrapped only as their trial is
    yielded.
    """
    for block in _blocks(trials):
        yield from _block_trials(block, derive)


def random_density_chunks(trials, derive=None):
    """:func:`random_densities_by_trial`'s trials in lists of at most
    :data:`CHUNK_TRIALS` from one block, each emptied when the next is asked
    for: a spent block is freed before the next is built."""
    for block in _blocks(trials):
        built = _block_trials(block, derive)
        while chunk := list(islice(built, CHUNK_TRIALS)):
            yield chunk
            chunk.clear()


def _block_trials(block: list, derive):
    # a generator of its own, so that a spent block's arrays are freed
    # before the next block is built
    drawn = iter(_gauss_stacks([draw for *_, draws in block for draw in draws or ()]))
    stacks = iter(_random_stacks([spec for _, specs, _ in block for spec in specs]))
    rows = [list(islice(stacks, len(specs))) for _, specs, _ in block]
    if derive is not None:
        _add_derived(block, rows, derive)
    for (key, _, draws), r in zip(block, rows):
        densities = tuple(_density_at(*row) for row in r)
        if draws is None:
            yield key, densities
        else:
            yield key, densities, tuple(g[j] for (g,), j in islice(drawn, len(draws)))


def _add_derived(block: list, rows: list, derive) -> None:
    """Extend each trial's rows with those of its derived densities (the raw
    matrices are freed on return, before the block's trials run)."""
    pairs = [derive(key, [s[0][j] for s, j in r]) for (key, *_), r in zip(block, rows)]
    flat = [pair for trial in pairs for pair in trial]
    stacks = iter(_certified_stacks([m for m, _ in flat], [t for _, t in flat]))
    for r, trial in zip(rows, pairs):
        r.extend(islice(stacks, len(trial)))


def _blocks(trials):
    """Consecutive trials as ``(key, specs, draws or None)``, in lists of at
    most :data:`BLOCK_ENTRIES` matrix entries (a larger trial is a list of
    its own); trials are read only as a list is filled."""
    block: list[tuple] = []
    size = 0
    for key, specs, *draws in trials:
        specs = tuple(specs)
        draws = tuple(draws[0]) if draws else None
        n = sum(dim * dim for dim, _, _ in specs) + sum(r * c for r, c, _ in draws or ())
        if block and size + n > BLOCK_ENTRIES:
            yield block
            block, size = [], 0
        block.append((key, specs, draws))
        size += n
    if block:
        yield block


def stacked(keys: list, build, entries) -> list[tuple[tuple, int]]:
    """Per item, ``(stack, j)``: its arrays are row ``j`` of the arrays of
    ``stack = build(key, members)``, which items of equal ``key`` share, at
    most :data:`BLOCK_ENTRIES` matrix entries (``entries(key)`` each) to a
    stack. An error naming "matrix i" (or "matrix (i, ...)") of a stack names item i's index."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(keys)
    for key, members in groups.items():
        step = max(1, BLOCK_ENTRIES // entries(key))
        for lo in range(0, len(members), step):
            chunk = members[lo : lo + step]
            try:
                stack = build(key, chunk)
            except (QilabError, ValueError) as exc:
                name = r"^(matrix \(?)(\d+)"
                msg = re.sub(name, lambda m: m[1] + str(chunk[int(m[2])]), str(exc))
                raise type(exc)(msg) from None
            for j, i in enumerate(chunk):
                out[i] = (stack, j)
    return out


def _gauss_stacks(draws) -> list[tuple[tuple, int]]:
    def build(shape, members):
        return _read_only(complex_gauss_stack([draws[i][2] for i in members], *shape))

    return stacked([(int(r), int(c)) for r, c, _ in draws], build, lambda rc: rc[0] * rc[1])


def _random_stacks(specs) -> list[tuple[tuple, int]]:
    """Per ``(dim, rank, seed)`` spec, ``(stack, j)`` with ``stack = (mats,
    eigenvalues, eigenvectors)`` of its density and certified decomposition."""
    for dim, rank, _ in specs:
        if not 1 <= rank <= dim:
            raise RankError(f"rank must be in [1, {dim}], got {rank}")

    def build(shape, members):
        g = complex_gauss_stack([specs[i][2] for i in members], *shape)
        rho = g @ dagger(g)
        rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        return _certified(rho, 1e-9)

    keys = [(int(dim), int(rank)) for dim, rank, _ in specs]
    return stacked(keys, build, lambda shape: shape[0] ** 2)


def _density_at(stack: tuple, j: int) -> DensityMatrix:
    mats, vals, vecs, memo = stack
    rho = _density(mats[j], vals[j], vecs[j])
    rho.__dict__["_row"] = (vals, j, memo)
    return rho


def random_pure(dim_h: int, dim_k: int, seed: int) -> BipartitePureState:
    """Uniformly random unit vector on H (x) K."""
    return pure_from_gauss(dim_h, dim_k, Stream(seed).complex_gauss_matrix(dim_h * dim_k, 1))


def pure_from_gauss(dim_h: int, dim_k: int, g: np.ndarray) -> BipartitePureState:
    """The state :func:`random_pure` makes of the complex Gaussian column ``g``."""
    return make_pures([(dim_h, dim_k, g)], rescale=True)[0]
