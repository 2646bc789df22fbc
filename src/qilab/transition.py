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
    canonical_purification,
    distance_up_to_phase,
    make_densities,
    make_pure,
    random_densities_by_trial,
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
    """Apply I (x) U to a bipartite pure state."""
    if u.shape != (psi.dim_k, psi.dim_k):
        raise SizeError(
            f"unitary shape {u.shape} does not match dim_k {psi.dim_k}"
        )
    a = psi.coefficient_matrix() @ u.T
    return make_pure(psi.dim_h, psi.dim_k, a.reshape(-1))


def uhlmann_align(phi1: BipartitePureState, phi2: BipartitePureState) -> TransitionResult:
    """K-side unitary rotating phi2 into the best match with phi1.

    Writing each state as a dim_h x dim_k coefficient matrix A, the
    overlap after applying I (x) U to phi2 is Tr(A1^dag A2 U^T). Its
    maximum over unitaries is the trace norm of the cross matrix
    C = A1^dag A2, attained at U = conj(P) Q^T for the SVD C = P S Q^dag;
    the squared maximum equals the fidelity of the reduced states. The
    phase is fixed so the achieved overlap is real and non-negative.
    """
    if (phi1.dim_h, phi1.dim_k) != (phi2.dim_h, phi2.dim_k):
        raise SizeError("states must share the same (dim_h, dim_k) shape")
    a1 = phi1.coefficient_matrix()
    a2 = phi2.coefficient_matrix()
    cross = dagger(a1) @ a2
    p, s, q = linalg.svd(cross)
    # Null directions of the cross matrix are completed to a unitary by
    # the SVD factors themselves; the overlap does not depend on them.
    u = np.conj(p) @ q.T
    overlap = float(np.sum(s))
    overlap_sq = min(overlap**2, 1.0)
    aligned = apply_k_unitary(phi2, u)
    realized = np.vdot(phi1.vec, aligned.vec)
    if abs(realized - overlap) > linalg.CERT_TOL:
        raise ReductionError(
            f"alignment overlap {realized} disagrees with trace norm {overlap}"
        )
    pure_distance = 2.0 * float(np.sqrt(max(1.0 - overlap_sq, 0.0)))
    rho1, rho2 = make_densities([a @ dagger(a) for a in (a1, a2)], tol=1e-8)
    t = metrics.trace_distance(rho1, rho2)
    return TransitionResult(u, overlap_sq, pure_distance, t)


def exact_local_transition(phi1: BipartitePureState, phi2: BipartitePureState) -> np.ndarray:
    """K-side unitary with (I (x) U) phi2 = phi1 up to a global phase.

    Requires the reduced states on H to agree within 1e-8 in trace
    distance; use :func:`uhlmann_align` when they differ.
    """
    result = uhlmann_align(phi1, phi2)
    gap = result.t
    if gap > 1e-8:
        raise ReductionError(
            f"reduced states differ by {gap:.3e}; exact transition needs equality"
        )
    aligned = apply_k_unitary(phi2, result.unitary_k)
    residual = distance_up_to_phase(aligned.vec, phi1.vec)
    # Continuity: a reduced-state gap g can leave a residual ~ sqrt(g).
    if residual > max(100.0 * np.sqrt(max(gap, 1e-16)), 1e-6):
        raise ReductionError(
            f"exact transition residual {residual:.3e} too large"
        )
    return result.unitary_k


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
    for s1, (rho1, rho2) in random_densities_by_trial(specs):
        phi1 = canonical_purification(rho1, dim_k)
        phi2 = canonical_purification(rho2, dim_k)
        result = uhlmann_align(phi1, phi2)
        slack = result.bound - result.pure_distance
        tdist = metrics.trace_distance(rho1, rho2)
        chain = tdist - (1.0 - metrics.fidelity(rho1, rho2))
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


def _derived_rank(seed: int, dim: int) -> int:
    return mix64(seed) % dim
