"""Validated quantum state types and seeded generators.

Density matrices are certified a stack at a time: a :class:`CertifiedStack`
holds the matrices with their eigendecomposition and entropies, a density is
its ``(stack, j)`` row, and a :class:`DensityMatrix` is a one-item view of
that row. Bipartite pure states are thin frozen wrappers around numpy arrays.
Construction goes through the ``make_*`` functions, which validate the
defining invariants. Random generators take explicit seeds and are
bit-reproducible (see :mod:`qilab.rng`).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from typing import NamedTuple

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
from .rng import Stream, _u64, complex_gauss_stack

# Most matrix entries one stacked build holds at once, so batching keeps
# memory flat; a matrix above it is built on its own.
BLOCK_ENTRIES = 2**14
NORM_TOL = 1e-9  # how far from 1 a vector's norm or a mixture's weight sum may be
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


@dataclass(frozen=True, eq=False)
class CertifiedStack:
    """Matrices checked together to be density matrices, read-only: the
    matrices, their certified eigendecomposition (eigenvalues ascending) and
    their von Neumann entropies in bits, computed for the stack when first read."""

    mats: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rows_of: tuple = ()  # (stack, rows) for stack[rows], which reads stack's entropies

    @cached_property
    def entropies(self) -> np.ndarray:
        if self.rows_of:
            return self.rows_of[0].entropies[self.rows_of[1]]
        return _read_only(entropy_rows(np.clip(self.eigenvalues, 0.0, 1.0)))[0]

    def __getitem__(self, rows: slice) -> CertifiedStack:
        views = (a[rows] for a in (self.mats, self.eigenvalues, self.eigenvectors))
        return CertifiedStack(*views, (self, rows))


class DensityMatrix(NamedTuple):
    """Hermitian, PSD, unit-trace matrix representing a mixed state: a
    read-only one-item view of row ``j`` of a certified stack. As a tuple it
    is the ``(stack, j)`` row the stacked kernels read."""

    stack: CertifiedStack
    j: int

    @property
    def mat(self) -> np.ndarray:
        return self.stack.mats[self.j]

    @property
    def dim(self) -> int:
        return self.stack.mats.shape[-1]

    @property
    def eig(self) -> linalg.EigDecomposition:
        """Certified eigendecomposition, read-only."""
        stack, j = self
        return linalg.EigDecomposition(stack.eigenvalues[j], stack.eigenvectors[j])

    @property
    def entropy(self) -> float:
        """Von Neumann entropy in bits: the stack's entropy row ``j``."""
        return float(self.stack.entropies[self.j])


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
    """Validate Hermiticity, unit trace and, on the cached ``eig``, positivity:
    the one-matrix :func:`make_densities`, so an error names "matrix 0"."""
    return make_densities([mat], tol)[0]


def make_densities(mats, tol=DEFAULT_TOL) -> list[DensityMatrix]:
    """Per matrix, a validated density with its certified ``eig``, from one
    stacked validation per matrix shape, each matrix judged at its tolerance.

    ``tol`` is one tolerance or one per matrix. A failing matrix's error
    names its index in ``mats``.
    """
    return [DensityMatrix(*row) for row in _certified_stacks([_matrix(m)[None] for m in mats], tol)]


def _matrix(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2:
        raise SizeError(f"expected a 2-d matrix, got shape {mat.shape}")
    return mat


def _certified_stacks(stacks, tol) -> list[tuple[CertifiedStack, int]]:
    """Per stack of matrices (``tol`` for all or one each), its certified rows' ``(stack, j)``."""
    tols = np.ones(len(stacks)) * tol

    def build(shape, members):
        mats = np.concatenate([stacks[i] for i in members], dtype=np.complex128)
        return _certified(mats, np.repeat(tols[members], [len(stacks[i]) for i in members]))

    return stacked([m.shape[1:] for m in stacks], build, np.prod, [len(m) for m in stacks])


def _certified(mats: np.ndarray, tol: float | np.ndarray) -> CertifiedStack:
    """The stack ``mats`` checked to hold density matrices, judged on its
    certified decomposition at ``tol``, one for all or one per matrix."""
    vals, vecs = linalg.hermitian_eig(mats, tol)
    tr = np.trace(mats, axis1=-2, axis2=-1)
    linalg.check_each(
        np.abs(tr - 1.0) > np.maximum(tol, 1e-12) * mats.shape[-1],
        TraceError,
        "{name} has trace {value} differing from 1 beyond tolerance",
        tr,
    )
    lowest = vals[..., 0]
    linalg.check_each(
        lowest < -tol,
        NotPositiveError,
        "{name} has eigenvalue {value:.3e} below -tol",
        lowest,
    )
    return CertifiedStack(*_read_only(mats, vals, vecs))


def pure_density(vec) -> DensityMatrix:
    """Rank-one density |v><v| from a unit vector: the one-vector :func:`pure_densities`."""
    return pure_densities([vec])[0]


def pure_densities(vecs) -> list[DensityMatrix]:
    """Per unit vector v, |v><v|, certified in stacks per length (the trace
    within the norm's tolerance); a failing vector names its index."""
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vecs]

    def build(n, members):
        v = np.array([vecs[i] for i in members])
        _unit_norms(v)
        return _certified(v[:, :, None] * np.conj(v)[:, None, :], 1e-8)

    return [DensityMatrix(*row) for row in stacked([len(v) for v in vecs], build, np.square)]


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of the complex stack ``v``, bit for bit."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _unit_norms(v: np.ndarray) -> np.ndarray:
    """:func:`_norms`, each checked to be 1 within :data:`NORM_TOL` (NaN fails)."""
    nrm = _norms(v)
    bad = ~(np.abs(nrm - 1.0) <= NORM_TOL)
    # the norm rounded: its last bits differ between BLAS kernels
    linalg.check_each(bad, NormalizationError, "{name} has norm {value:.12g}, not 1 within tol", nrm)
    return nrm


def mixture(weights, states) -> DensityMatrix:
    """Convex mixture sum_i w_i rho_i, revalidated."""
    return make_density(mixture_matrix(weights, [s.mat for s in states]))


def mixture_matrix(weights, mats) -> np.ndarray:
    """sum_i w_i mats[i], after :func:`mixture`'s checks on the weights and
    dimensions; certifying it is left to the caller. The ``mats[i]`` may be
    equal-shape stacks, mixed entry by entry, with one row of weights each."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[-1:] != (len(mats),):
        raise SizeError("one weight per state required")
    linalg.check_weights(w, DEFAULT_TOL, NORM_TOL, "mixture weights")
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise SizeError(f"states have mixed dimensions {sorted(s[-1] for s in shapes)}")
    acc = np.zeros(shapes.pop(), dtype=np.complex128)
    for wi, mi in zip(w.T[..., None, None], mats):
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
    """Per density (a ``(stack, j)`` row) and ``dim_k``, the purification
    sum_i sqrt(l_i) |e_i>_H |i>_K over a fresh K register of :func:`_purified`,
    one stacked pass per (dim, dim_k) group; a RankError names the item's index."""
    rhos = list(rhos)
    keys = [(s.mats.shape[-1], int(k)) for (s, _), k in zip(rhos, dim_ks)]

    def build(key, members):
        a = _purified(*_gathered([rhos[i] for i in members], "eigenvalues", "eigenvectors"), key[1])
        return _read_only(a.reshape(len(members), -1))

    out = zip(keys, stacked(keys, build, np.prod))
    return [BipartitePureState(*key, vec[j]) for key, ((vec,), j) in out]


def _purified(vals: np.ndarray, vecs: np.ndarray, dim_k: int) -> np.ndarray:
    """The unit coefficient matrices (..., dim, dim_k) of the canonical
    purifications of the eigenpairs ``vals`` (..., dim), ascending, and ``vecs``
    (..., dim, dim): eigenvalues descend, the K side in that order, and each
    eigenvector's phase makes its first entry above 1e-12 in modulus real
    positive, ties broken by that entry's modulus. A RankError names the matrix."""
    lead, dim = vals.shape[:-1], vals.shape[-1]
    vals, vecs = vals.reshape(-1, dim), vecs.reshape(-1, dim, dim)
    rows, ix = np.arange(len(vals))[:, None], np.arange(dim)
    first = vecs[rows, _first_rows(vecs), ix]
    cols = vecs * (np.conj(first) / np.hypot(first.real, first.imag))[:, None, :]
    top = cols[rows, _first_rows(cols), ix]
    order = np.lexsort((np.hypot(top.real, top.imag), -vals), axis=-1)
    vals, cols = vals[rows, order], cols[rows[..., None], ix[:, None], order[:, None, :]]
    rank = np.maximum(np.sum(vals > DEFAULT_TOL, axis=-1), 1)
    message = f"{{name}} has rank {{value}} above dim_k={dim_k}"
    linalg.check_each(rank.reshape(lead) > dim_k, RankError, message, rank.reshape(lead))
    n = min(dim, dim_k)
    a = np.zeros((len(vals), dim, dim_k), dtype=np.complex128)
    scaled = cols[..., :n] * np.sqrt(np.maximum(vals[:, None, :n], 0.0))
    a[..., :n] = np.where(ix[:n] < rank[:, None, None], scaled, 0.0)
    vec = a.reshape(len(vals), -1)
    return (vec / _norms(vec)[:, None]).reshape(*lead, dim, dim_k)


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

    Specs of one ``(dim, rank)`` share one batched draw and one stacked
    product; specs of one dim share one stacked trace and one certified
    eigendecomposition, in blocks of at most :data:`BLOCK_ENTRIES` matrix
    entries. Each density's arrays are read-only views into its block's stacks.
    """
    cols = [(int(dim), np.array([rank]), _u64(seed)) for dim, rank, seed in specs]
    return [DensityMatrix(*row) for row in _random_stacks(cols)]


def random_density_chunks(trials, derive=None):
    """The batches' trials ``(keys, specs)`` or ``(keys, specs, draws)`` as
    columns: per block of :func:`_blocks`, a list of one ``(keys, stacks,
    gaussians)`` per trial shape (its specs' and draws' dims), row ``i`` of each
    array trial ``i``'s. ``keys`` is a tuple of arrays, ``specs`` a ``(trials,
    P, 3)`` array of ``(dim, rank, seed)``, ``draws`` a ``(trials, Q, 3)`` one
    of ``(rows, cols, seed)``; ``stacks[p]`` certifies spec ``p``'s densities as
    :func:`random_densities` does, ``gaussians[q]`` holds draw ``q``'s read-only
    ``Stream(seed).complex_gauss_matrix(rows, cols)``. A list is emptied when
    the next is asked for. ``derive(keys, mats)`` maps a shape's keys and spec
    stacks to one ``(stack, tol)`` per derived position, a row per trial (else
    SizeError), certified onto ``stacks`` as :func:`make_densities` does.
    Trials keep the batches' order, the caller's to choose: a block makes its
    stacked calls once per shape in it, so batches sorted by shape make few."""
    for block in _blocks(trials):
        chunk = _block_columns(block, derive)
        yield chunk
        chunk.clear()


def _blocks(trials):
    """Consecutive trials of the batches, each batch read only when a block
    needs it, in lists of ``(keys, specs, draws)`` slices of at most
    :data:`BLOCK_ENTRIES` matrix entries (a larger trial is a list of its own)."""
    block, size = [], 0
    for keys, specs, *draws in trials:
        specs = np.asarray(specs, dtype=np.uint64)
        draws = np.asarray(draws[0] if draws else np.zeros((len(specs), 0, 3)), dtype=np.uint64)
        n = np.sum(specs[..., 0] ** 2, axis=-1) + np.sum(draws[..., 0] * draws[..., 1], axis=-1)
        ends, lo = [0, *np.cumsum(n).tolist()], 0
        while lo < len(specs):
            hi = max(bisect_right(ends, ends[lo] + BLOCK_ENTRIES - size) - 1, lo + (not block))
            if hi > lo:  # without a trial in the block, a larger one goes alone
                block.append((tuple(k[lo:hi] for k in keys), specs[lo:hi], draws[lo:hi]))
                size, lo = size + ends[hi] - ends[lo], hi
            if lo < len(specs):
                yield block
                block, size = [], 0
    if block:
        yield block


def _block_columns(block: list, derive) -> list[tuple]:
    """The block's trials, a ``(keys, stacks, gaussians)`` per trial shape in
    order of first appearance: densities certified a stack per dim for the whole
    block, each column a run of a stack's rows, and draws a stack per column."""
    shapes: dict = {}
    for keys, specs, draws in block:
        dims = np.concatenate([specs[..., 0], draws[..., :2].reshape(len(draws), -1)], axis=1)
        found, first, which = np.unique(dims, axis=0, return_index=True, return_inverse=True)
        for u in np.argsort(first):
            part = (*(k[which == u] for k in keys), specs[which == u], draws[which == u])
            shapes.setdefault((specs.shape[1], *found[u].tolist()), []).append(part)
    groups = [[np.concatenate(x) for x in zip(*parts)] for parts in shapes.values()]
    stacks = iter(_random_stacks(  # a column (dim, ranks, seeds) per spec position
        [(int(s[0, p, 0]), *s[:, p, 1:].T) for *_, s, _ in groups for p in range(s.shape[1])]))
    out = []
    for *keys, s, d in groups:
        cols = [stack[j : j + len(s)] for stack, j in islice(stacks, s.shape[1])]
        drawn = (complex_gauss_stack(d[:, q, 2], *map(int, d[0, q, :2])) for q in range(d.shape[1]))
        out.append((tuple(keys), cols, _read_only(*drawn)))
    made = []  # per derived column: its stack, tolerance and shape's columns
    for keys, cols, _ in out if derive is not None else ():
        for m, tol in derive(keys, [c.mats for c in cols]):
            if len(m) != len(keys[0]):
                raise SizeError(f"derive returned {len(m)} rows for {len(keys[0])} trials")
            made.append((m, tol, cols))
    derived = _certified_stacks([m for m, _, _ in made], [tol for _, tol, _ in made])
    for (m, _, cols), (stack, j) in zip(made, derived):
        cols.append(stack[j : j + len(m)])
    return [(keys, tuple(cols), gaussians) for keys, cols, gaussians in out]


def stacked(keys: list, build, entries, sizes=None) -> list[tuple[tuple, int]]:
    """Per item, ``(stack, j)``: its arrays are rows ``j ... j + sizes[i] - 1``
    (one row by default) of the arrays of ``stack = build(key, members)``,
    which items of equal ``key`` share in order, at most :data:`BLOCK_ENTRIES`
    matrix entries (``entries(key)`` a row) to a stack unless one item alone
    holds more. An error naming "matrix r" (or "matrix (r, ...)") of a stack
    names the index of the item that holds row r."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(keys)
    for key, members in groups.items():
        cap = max(1, BLOCK_ENTRIES // entries(key))  # rows to a stack
        ends = [0, *accumulate(sizes[i] for i in members)] if sizes else range(len(members) + 1)
        lo = 0
        while lo < len(members):
            hi = max(lo + 1, bisect_right(ends, ends[lo] + cap) - 1)
            chunk = members[lo:hi]
            try:
                stack = build(key, chunk)
            except (QilabError, ValueError) as exc:
                owner = np.repeat(chunk, np.diff(ends[lo : hi + 1]))
                name = r"^(matrix \(?)(\d+)"
                msg = re.sub(name, lambda m: m[1] + str(owner[int(m[2])]), str(exc))
                raise type(exc)(msg) from None
            for k in range(lo, hi):
                out[members[k]] = (stack, ends[k] - ends[lo])
            lo = hi
    return out


def _gathered(rows, *fields: str) -> list[np.ndarray]:
    """Each named field (``mats``, ``eigenvalues``, ...) of the ``(stack, j)``
    rows, stacked: by one index when the rows share a stack, a lone row's as
    a view (at large d a copy shows in peak memory)."""
    stack = rows[0][0]
    if all(s is stack for s, _ in rows):
        at = [j for _, j in rows] if len(rows) > 1 else slice(rows[0][1], rows[0][1] + 1)
        return [getattr(stack, name)[at] for name in fields]
    return [np.array([getattr(s, name)[j] for s, j in rows]) for name in fields]


def _random_stacks(specs) -> list[tuple[CertifiedStack, int]]:
    """Per column ``(dim, ranks, seeds)`` of specs of one dim, ``(stack, j)``:
    its densities are rows ``j ... j + len(ranks) - 1`` of a certified stack per dim."""

    def build(dim, members):
        ranks, seeds = (np.concatenate([specs[i][k] for i in members]) for k in (1, 2))
        if len(bad := ranks[(ranks < 1) | (ranks > dim)]):
            raise RankError(f"rank must be in [1, {dim}], got {bad[0]}")
        rho = np.empty((len(ranks), dim, dim), dtype=np.complex128)  # the dim's one stack
        for rank in set(ranks.tolist()):
            g = complex_gauss_stack(seeds[ranks == rank], dim, rank)
            rho[ranks == rank] = g @ dagger(g)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        return _certified(rho, 1e-9)

    return stacked([dim for dim, _, _ in specs], build, np.square, [len(r) for _, r, _ in specs])


def random_pure(dim_h: int, dim_k: int, seed: int) -> BipartitePureState:
    """Uniformly random unit vector on H (x) K."""
    return pure_from_gauss(dim_h, dim_k, Stream(seed).complex_gauss_matrix(dim_h * dim_k, 1))


def pure_from_gauss(dim_h: int, dim_k: int, g: np.ndarray) -> BipartitePureState:
    """The state :func:`random_pure` makes of the complex Gaussian column ``g``."""
    return make_pures([(dim_h, dim_k, g)], rescale=True)[0]
