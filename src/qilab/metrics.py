"""Distance and fidelity functionals on density matrices.

Fidelity follows the squared-overlap convention F = || sqrt(r1) sqrt(r2) ||_t^2,
so F(r, r) = 1 and for a pure r1 = |p><p| it equals <p| r2 |p>."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import SizeError
from .info import validate_projective
from .linalg import DEFAULT_TOL, dagger
from .states import BipartitePureState, DensityMatrix, stacked


@dataclass(frozen=True)
class TwoOutcomeMeasurement:
    """Pair of complementary orthogonal projectors."""

    projector_pos: np.ndarray
    projector_neg: np.ndarray

    def __iter__(self):  # the projector list (P+, P-)
        return iter((self.projector_pos, self.projector_neg))

    def validate(self) -> None:
        validate_projective(list(self), self.projector_pos.shape[0])


def trace_norm(a) -> float | np.ndarray:
    """Sum of singular values; for a stack (..., rows, cols), an array."""
    norms = np.sum(linalg.singular_values(a), axis=-1)
    return norms if norms.ndim else float(norms)


def trace_norms(mats) -> list[float]:
    """``[trace_norm(a) for a in mats]`` bit for bit, with one batched call
    per matrix shape; a failing matrix's error names its index in ``mats``."""

    def build(shape, members):  # a lone matrix of its shape goes as a view, not a copy
        stack = [mats[i] for i in members]
        return (trace_norm(stack[0][None] if len(stack) == 1 else np.array(stack)),)

    return [float(norms[j]) for (norms,), j in stacked([a.shape for a in mats], build, np.prod)]


def _checked_pairs(pairs) -> list[tuple[DensityMatrix, DensityMatrix]]:
    pairs = list(pairs)
    for i, (r1, r2) in enumerate(pairs):
        if r1.dim != r2.dim:
            raise SizeError(f"pair {i}: dimension mismatch: {r1.dim} vs {r2.dim}")
    return pairs


def trace_distances(pairs) -> list[float]:
    """|| r1 - r2 ||_t, in [0, 2], of each pair ``(r1, r2)``, by :func:`trace_norms`."""
    return trace_norms([r1.mat - r2.mat for r1, r2 in _checked_pairs(pairs)])


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """|| r1 - r2 ||_t, in [0, 2]: the one-pair :func:`trace_distances`."""
    return trace_distances([(r1, r2)])[0]


def _as_vector(phi) -> np.ndarray:
    if isinstance(phi, BipartitePureState):
        return phi.vec
    return np.asarray(phi, dtype=np.complex128).reshape(-1)


def pure_trace_distance(phi1, phi2) -> float:
    """Trace distance between two pure states: 2 sqrt(1 - |<p1|p2>|^2)."""
    v1 = _as_vector(phi1)
    v2 = _as_vector(phi2)
    if v1.shape != v2.shape:
        raise SizeError("pure states must have equal dimension")
    overlap_sq = abs(np.vdot(v1, v2)) ** 2
    return 2.0 * float(np.sqrt(max(1.0 - overlap_sq, 0.0)))


def _sqrt_factor(rho: DensityMatrix) -> np.ndarray:
    # Columns V_i sqrt(l_i) with noise-level eigenvalues dropped: keeping
    # them would inject sqrt(eps)-sized spurious directions into the
    # product below.
    vals, vecs = rho.eig
    keep = vals > 1e-14
    return vecs[:, keep] * np.sqrt(vals[keep])


def fidelities(pairs) -> list[float]:
    """Squared-overlap fidelity of each pair ``(r1, r2)``, clamped to [0, 1].

    Equals || sqrt(r1) sqrt(r2) ||_t^2; evaluated on the spectral factors
    A_i = V_i sqrt(L_i), whose cross matrix A_1^dag A_2 has exactly the
    singular values of sqrt(r1) sqrt(r2). The cross matrices' trace norms
    go through :func:`trace_norms`.
    """
    crosses = [dagger(_sqrt_factor(r1)) @ _sqrt_factor(r2) for r1, r2 in _checked_pairs(pairs)]
    return [float(min(max(norm**2, 0.0), 1.0)) for norm in trace_norms(crosses)]


def fidelity(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Squared-overlap fidelity: the one-pair :func:`fidelities`."""
    return fidelities([(r1, r2)])[0]


def optimal_measurement(
    r1: DensityMatrix, r2: DensityMatrix
) -> tuple[TwoOutcomeMeasurement, float]:
    """The one-pair :func:`optimal_measurements`."""
    return optimal_measurements([(r1, r2)])[0]


def optimal_measurements(pairs) -> list[tuple[TwoOutcomeMeasurement, float]]:
    """Per pair ``(r1, r2)``, the measurement onto the eigenspaces of r1 - r2
    and the l1 distance |Tr P+ (r1-r2)| + |Tr P- (r1-r2)| it achieves: the trace
    distance, the best any measurement can do. Eigenvalues within DEFAULT_TOL of
    zero go to P+. One certified stacked eigendecomposition per dimension; its
    errors name the pair's index."""
    diffs = [r1.mat - r2.mat for r1, r2 in _checked_pairs(pairs)]

    def build(shape, members):  # a lone pair's difference as a view: at large d a copy faults
        diff = [diffs[i] for i in members]
        diff = diff[0][None] if len(diff) == 1 else np.array(diff)
        vals, vecs = linalg.hermitian_eig(diff, tol=1e-8)
        kept = np.sum(vals >= -DEFAULT_TOL, axis=-1)  # ascending: the last ``kept`` columns
        p_pos = np.empty_like(diff)
        for k in set(kept.tolist()):
            rows = kept == k
            if rows.all():  # one count for the stack: no masked copies, the product in place
                cols = vecs[..., shape[0] - k :]
                np.matmul(cols, dagger(cols), out=p_pos)
            else:
                cols = vecs[rows][..., shape[0] - k :]
                p_pos[rows] = cols @ dagger(cols)
        p_neg = np.eye(shape[0]) - p_pos
        traces = [np.abs(np.trace(p @ diff, axis1=-2, axis2=-1).real) for p in (p_pos, p_neg)]
        return p_pos, p_neg, traces[0] + traces[1]

    out = stacked([a.shape for a in diffs], build, np.prod)
    return [(TwoOutcomeMeasurement(pos[j], neg[j]), float(val[j])) for (pos, neg, val), j in out]


def bayes_success(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Success probability 1/2 + ||r1 - r2||_t / 4 of the Bayes strategy.

    This is the best chance of guessing which of two equiprobable states
    was handed over, using the optimal measurement plus the majority rule.
    """
    return 0.5 + trace_distance(r1, r2) / 4.0


def fidelity_distance_bounds(f: float, t: float) -> tuple[float, float]:
    """Slack of the two-sided bound 1 - sqrt(F) <= t/2 <= sqrt(1 - F).

    Takes the fidelity ``f`` and the trace distance ``t`` of one pair of
    states and returns (lower_slack, upper_slack); both are non-negative
    up to numerics when the pair are valid density matrices.
    """
    half_dist = t / 2.0
    lower_slack = half_dist - (1.0 - np.sqrt(f))
    upper_slack = np.sqrt(max(1.0 - f, 0.0)) - half_dist
    return float(lower_slack), float(upper_slack)
