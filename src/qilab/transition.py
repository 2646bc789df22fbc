"""Constructive local transitions between bipartite purifications.

Given two pure states on H (x) K, a unitary acting on K alone can rotate
the second state so its overlap with the first reaches the fidelity of
the two reduced states on H. When the reduced states coincide the match
is exact (up to a global phase); in general the remaining pure-state
trace distance is at most 2 * sqrt(trace distance of the reduced states).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, metrics
from .errors import ReductionError, SizeError
from .linalg import dagger
from .states import (
    BipartitePureState,
    _certified,
    _purified,
    distance_up_to_phase,
    make_pures,
    stacked,
)


@dataclass(frozen=True)
class TransitionResult:
    """Outcome of aligning one purification against another.

    ``pure_distance`` is the trace distance between the first state and
    the rotated second state; ``t`` is the trace distance of the reduced
    states, and ``bound`` = 2 * sqrt(t) always dominates ``pure_distance``.
    """

    unitary_k: np.ndarray
    achieved_overlap_sq: float
    pure_distance: float
    t: float

    @property
    def bound(self) -> float:
        return 2.0 * float(np.sqrt(self.t))


def apply_k_unitary(psi: BipartitePureState, u: np.ndarray) -> BipartitePureState:
    """The one-state :func:`apply_k_unitaries`."""
    return apply_k_unitaries([(psi, u)])[0]


def apply_k_unitaries(pairs) -> list[BipartitePureState]:
    """Per ``(psi, u)``, the bipartite pure state (I (x) U) psi; the results
    are made states by one :func:`~qilab.states.make_pures` call."""
    items = []
    for psi, u in pairs:
        if u.shape != (psi.dim_k, psi.dim_k):
            raise SizeError(f"unitary shape {u.shape} does not match dim_k {psi.dim_k}")
        items.append((psi.dim_h, psi.dim_k, psi.coefficient_matrix() @ u.T))
    return make_pures(items)


def uhlmann_aligns(pairs) -> list[TransitionResult]:
    """Per pair ``(phi1, phi2)``, the K-side unitary rotating phi2 into the best
    match with phi1, by :func:`_alignments` and :func:`_reduced_distances` per
    (dim_h, dim_k) shape; errors name the pair's index."""
    coeffs = [(phi1.coefficient_matrix(), phi2.coefficient_matrix()) for phi1, phi2 in pairs]

    def build(shapes, members):  # the first pair of unequal shapes is the first of its group
        if shapes[0] != shapes[1]:
            raise SizeError(f"pair {members[0]}: states must share the same (dim_h, dim_k) shape")
        a1, a2 = (np.array([coeffs[i][k] for i in members]) for k in (0, 1))
        u, overlap_sq, distance, grams = _alignments(a1, a2)
        return u, overlap_sq, distance, _reduced_distances(grams)

    aligned = stacked([(a1.shape, a2.shape) for a1, a2 in coeffs], build, lambda s: np.prod(s[0]))
    return [TransitionResult(u[j], *map(float, (o[j], d[j], t[j]))) for (u, o, d, t), j in aligned]


def _alignments(a1: np.ndarray, a2: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(U, overlap^2, pure distance, grams)`` of each pair of coefficient
    matrices A1, A2, rows of the stacks ``a1``, ``a2`` (n, dim_h, dim_k): the
    Uhlmann alignment by one certified SVD, and the reduced states' uncertified
    Gram pair (A1 A1^dag, A2 A2^dag). The overlap after I (x) U on phi2, Tr(A1^dag
    A2 U^T), peaks at the trace norm of C = A1^dag A2 (squared: the fidelity),
    attained at U = conj(P) Q^T for the SVD C = P S Q^dag. Errors name the row."""
    p, s, q = linalg.svd(dagger(a1) @ a2)
    # Null directions of the cross matrix are completed to a unitary by
    # the SVD factors themselves; the overlap does not depend on them.
    u = np.conj(p) @ np.swapaxes(q, -1, -2)
    del p, q  # at the peak of the transition suite's memory
    overlap = np.sum(s, axis=-1)
    realized = np.sum(np.conj(a1) * (a2 @ np.swapaxes(u, -1, -2)), axis=(-2, -1))
    bad = np.abs(realized - overlap) > linalg.CERT_TOL
    linalg.check_each(bad, ReductionError, "{name} has overlap {value} != trace norm", realized)
    overlap_sq = np.minimum(np.float_power(overlap, 2), 1.0)  # libm pow, as float ** 2
    distance = 2.0 * np.sqrt(np.maximum(1.0 - overlap_sq, 0.0))
    return u, overlap_sq, distance, np.stack([a1 @ dagger(a1), a2 @ dagger(a2)], axis=1)


def _reduced_distances(grams: np.ndarray) -> np.ndarray:
    """The trace distance t of each Gram pair of the stack ``grams`` (n, 2, d,
    d), both sides certified as one stack at 1e-8: the reduced states'."""
    grams = _certified(grams, 1e-8).mats
    return metrics.trace_norm(grams[:, 0] - grams[:, 1], hermitian=True)


def uhlmann_align(phi1: BipartitePureState, phi2: BipartitePureState) -> TransitionResult:
    """The one-pair :func:`uhlmann_aligns`."""
    return uhlmann_aligns([(phi1, phi2)])[0]


def exact_local_transitions(pairs) -> list[tuple[np.ndarray, float]]:
    """For each pair ``(phi1, phi2)``, the K-side unitary U with
    (I (x) U) phi2 = phi1 up to a global phase, by :func:`uhlmann_aligns`,
    and the residual ``distance_up_to_phase`` it leaves.

    Requires the reduced states on H to agree within 1e-8 in trace
    distance; use :func:`uhlmann_aligns` when they differ.
    """
    pairs = list(pairs)
    results = uhlmann_aligns(pairs)
    aligned = apply_k_unitaries((phi2, r.unitary_k) for (_, phi2), r in zip(pairs, results))
    out = []
    for i, ((phi1, _), result, a) in enumerate(zip(pairs, results, aligned)):
        gap = result.t
        if gap > 1e-8:
            raise ReductionError(
                f"pair {i}: reduced states differ by {gap:.3e}; exact transition needs equality"
            )
        residual = distance_up_to_phase(a.vec, phi1.vec)
        # Continuity: a reduced-state gap g can leave a residual ~ sqrt(g).
        if residual > max(100.0 * np.sqrt(max(gap, 1e-16)), 1e-6):
            raise ReductionError(f"pair {i}: exact transition residual {residual:.3e} too large")
        out.append((result.unitary_k, residual))
    return out


def exact_local_transition(phi1: BipartitePureState, phi2: BipartitePureState) -> np.ndarray:
    """The unitary of the one-pair :func:`exact_local_transitions`."""
    return exact_local_transitions([(phi1, phi2)])[0][0]


def aligned_trials(trials, dim_ks) -> tuple[np.ndarray, ...]:
    """``(overlap_sq, pure_distance, t, dist, f)`` arrays, a row per trial of the
    ``(keys, stacks, gaussians)`` columns ``trials`` whose first two stacks are
    pairs of densities of one dim: a :class:`TransitionResult`'s numbers for
    their purifications into ``dim_ks`` (one per trial, or one), by a
    :func:`_purified` and :func:`_alignments` stack per dim_k, the reduced states
    certified where they lie, then the pair's trace distance and fidelity."""
    rho1, rho2 = trials[1][:2]
    n, dim = rho1.mats.shape[:2]
    dim_ks = np.broadcast_to(dim_ks, n)
    overlap_sq, distance = np.empty(n), np.empty(n)
    grams = np.empty((n, 2, dim, dim), dtype=np.complex128)
    for k in set(dim_ks.tolist()):
        at = np.flatnonzero(dim_ks == k)
        a1, a2 = (_purified(rho.eigenvalues[at], rho.eigenvectors[at], k) for rho in (rho1, rho2))
        _, overlap_sq[at], distance[at], grams[at] = _alignments(a1, a2)
    dist = metrics.trace_norm(rho1.mats - rho2.mats, hermitian=True)
    return overlap_sq, distance, _reduced_distances(grams), dist, metrics._fidelities(rho1, rho2)
