"""Constructive local transitions between bipartite purifications.

Given two pure states on H (x) K, a unitary acting on K alone can rotate
the second state so its overlap with the first reaches the fidelity of
the two reduced states on H. When the reduced states coincide the match
is exact (up to a global phase); in general the remaining pure-state
trace distance is at most 2 * sqrt(trace distance of the reduced states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, metrics
from .errors import ReductionError, SizeError
from .linalg import dagger
from .rng import derive_seed, mix64
from .states import (
    BipartitePureState,
    canonical_purifications,
    distance_up_to_phase,
    make_densities,
    make_pures,
    random_density_chunks,
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
    """Per pair ``(phi1, phi2)``: the K-side unitary rotating phi2 into the best match with phi1.

    Writing each state as a dim_h x dim_k coefficient matrix A, the
    overlap after applying I (x) U to phi2 is Tr(A1^dag A2 U^T). Its
    maximum over unitaries is the trace norm of the cross matrix
    C = A1^dag A2, attained at U = conj(P) Q^T for the SVD C = P S Q^dag;
    the squared maximum equals the fidelity of the reduced states. The
    phase is fixed so the achieved overlap is real and non-negative.

    Pairs of one shape share one certified stacked SVD, whose errors name
    the pair's index; all reduced states (2i, 2i + 1 for pair i) go to one
    ``make_densities`` call.
    """
    coeffs = [(phi1.coefficient_matrix(), phi2.coefficient_matrix()) for phi1, phi2 in pairs]
    for i, (a1, a2) in enumerate(coeffs):
        if a1.shape != a2.shape:
            raise SizeError(f"pair {i}: states must share the same (dim_h, dim_k) shape")

    def build(shape, members):
        a1, a2 = (np.array([coeffs[i][k] for i in members]) for k in (0, 1))
        p, s, q = linalg.svd(dagger(a1) @ a2)
        # Null directions of the cross matrix are completed to a unitary by
        # the SVD factors themselves; the overlap does not depend on them.
        u = np.conj(p) @ np.swapaxes(q, -1, -2)
        overlap = np.sum(s, axis=-1)
        realized = np.sum(np.conj(a1) * (a2 @ np.swapaxes(u, -1, -2)), axis=(-2, -1))
        bad = np.abs(realized - overlap) > linalg.CERT_TOL
        linalg.check_each(bad, ReductionError, "{name} has overlap {value} != trace norm", realized)
        return u, overlap, a1 @ dagger(a1), a2 @ dagger(a2)

    aligned = stacked([a.shape for a, _ in coeffs], build, np.prod)
    reduced = make_densities([g[j] for (_, _, *grams), j in aligned for g in grams], tol=1e-8)
    ts = metrics.trace_distances(zip(reduced[::2], reduced[1::2]))
    out = []
    for ((u, overlap, *_), j), t in zip(aligned, ts):
        overlap_sq = min(float(overlap[j]) ** 2, 1.0)
        pure_distance = 2.0 * float(np.sqrt(max(1.0 - overlap_sq, 0.0)))
        out.append(TransitionResult(u[j], overlap_sq, pure_distance, t))
    return out


def uhlmann_align(phi1: BipartitePureState, phi2: BipartitePureState) -> TransitionResult:
    """The one-pair :func:`uhlmann_aligns`."""
    return uhlmann_aligns([(phi1, phi2)])[0]


def exact_local_transitions(pairs) -> list[np.ndarray]:
    """For each pair ``(phi1, phi2)``, the K-side unitary with
    (I (x) U) phi2 = phi1 up to a global phase, by :func:`uhlmann_aligns`.

    Requires the reduced states on H to agree within 1e-8 in trace
    distance; use :func:`uhlmann_aligns` when they differ.
    """
    pairs = list(pairs)
    results = uhlmann_aligns(pairs)
    aligned = apply_k_unitaries((phi2, r.unitary_k) for (_, phi2), r in zip(pairs, results))
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
    return [r.unitary_k for r in results]


def exact_local_transition(phi1: BipartitePureState, phi2: BipartitePureState) -> np.ndarray:
    """The one-pair :func:`exact_local_transitions`."""
    return exact_local_transitions([(phi1, phi2)])[0]


def verify_transition_bound(
    trials: int, dims: tuple[int, int], seed: int
) -> dict:
    """Randomized sweep of the alignment bound on canonical purifications.

    Per trial: draw two random densities on H, purify both into the same
    K, align, and record bound - pure_distance. Also tracks the chain
    1 - F <= trace distance of the reduced states.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    dim_h, dim_k = dims
    min_slack = np.inf
    min_chain_slack = np.inf
    violations = 0
    worst_seed = 0
    pairs = ((derive_seed(seed, t, 0), derive_seed(seed, t, 1)) for t in range(trials))
    specs = (
        (pair[0], [(dim_h, 1 + _derived_rank(s, dim_h), s) for s in pair]) for pair in pairs
    )
    for chunk in random_density_chunks(specs):
        for s1, result, tdist, fid in aligned_trials(chunk, lambda key, rho: dim_k):
            slack = result.bound - result.pure_distance
            chain = tdist - (1.0 - fid)
            # A non-finite slack is a violation, and as NaN it stays the minimum
            # (``x < nan`` is False) with the seed of the trial that made it.
            slack, chain = (x if math.isfinite(x) else math.nan for x in (slack, chain))
            if slack < min_slack or (math.isnan(slack) and not math.isnan(min_slack)):
                min_slack = slack
                worst_seed = s1
            if math.isnan(chain) or chain < min_chain_slack:
                min_chain_slack = chain
            if not (slack >= -1e-8 and chain >= -1e-9):
                violations += 1
    return {
        "trials": trials,
        "min_slack": float(min_slack),
        "min_chain_slack": float(min_chain_slack),
        "violations": violations,
        "worst_instance_seed": int(worst_seed),
    }


def aligned_trials(chunk, dim_k) -> list[tuple]:
    """Per trial ``(key, (rho1, rho2))`` of ``chunk``: ``(key, alignment,
    trace distance, fidelity)``, the alignment of the states' canonical
    purifications into ``dim_k(key, rho1)`` and the pair's distance and
    fidelity, each kind in stacked calls. The result holds no state."""
    pairs = [dens for _, dens in chunk]
    dim_ks = [dim_k(key, r1) for key, (r1, _) in chunk]
    purified = canonical_purifications([r for pair in pairs for r in pair], np.repeat(dim_ks, 2))
    aligned = uhlmann_aligns(zip(purified[::2], purified[1::2]))
    keys = [key for key, _ in chunk]
    return list(zip(keys, aligned, metrics.trace_distances(pairs), metrics.fidelities(pairs)))


def _derived_rank(seed: int, dim: int) -> int:
    return mix64(seed) % dim
