"""Distance and fidelity functionals on density matrices.

Fidelity follows the squared-overlap convention F = || sqrt(r1) sqrt(r2) ||_t^2,
so F(r, r) = 1 and for a pure r1 = |p><p| it equals <p| r2 |p>."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import SizeError
from .linalg import DEFAULT_TOL, EigDecomposition, dagger
from .states import DensityMatrix, _gathered, _unit_norms, stacked


@dataclass(frozen=True)
class TwoOutcomeMeasurement:
    """Pair of complementary orthogonal projectors."""

    projector_pos: np.ndarray
    projector_neg: np.ndarray

    def __iter__(self):  # the projector list (P+, P-)
        return iter((self.projector_pos, self.projector_neg))


def trace_norm(a, hermitian: bool = False) -> float | np.ndarray:
    """Sum of singular values; for a stack (..., rows, cols), an array. With
    ``hermitian``, sum |eigenvalues| from ``eigvalsh``, which is faster and
    reads one triangle: the route for differences of densities. Fidelity
    cross matrices and Kronecker factors are not Hermitian and keep the SVD."""
    norms = np.sum(linalg.singular_values(a, hermitian), axis=-1)
    return norms if norms.ndim else float(norms)


def _checked_pairs(pairs) -> list[tuple[tuple, tuple]]:
    """The pairs of densities, each a ``(stack, j)`` row of a certified stack
    (a :class:`~qilab.states.DensityMatrix` is one), of equal dimensions."""
    pairs = list(pairs)
    for i, ((s1, _), (s2, _)) in enumerate(pairs):
        d1, d2 = s1.mats.shape[-1], s2.mats.shape[-1]
        if d1 != d2:
            raise SizeError(f"pair {i}: dimension mismatch: {d1} vs {d2}")
    return pairs


def _per_difference(pairs, kernel) -> list[tuple[object, int]]:
    """Per pair ``(r1, r2)``, ``(kernel(diffs), j)``: ``diffs`` stacks r1 - r2 of
    the pairs of one dimension, made by one indexed subtraction of their
    certified stacks, and row ``j`` is this pair's; an error names its index."""
    pairs = _checked_pairs(pairs)

    def build(dim, at):
        (m1,), (m2,) = (_gathered([pairs[i][side] for i in at], "mats") for side in (0, 1))
        if len(at) == 1:  # a lone pair: its (d, d) difference of two views, as a stack of one
            return kernel((m1[0] - m2[0])[None])
        m1 -= m2  # a copy, so in place
        return kernel(m1)

    return stacked([s.mats.shape[-1] for (s, _), _ in pairs], build, np.square)


def trace_distances(pairs) -> list[float]:
    """|| r1 - r2 ||_t, in [0, 2], of each pair ``(r1, r2)``: a stacked
    :func:`trace_norm` per dimension on the Hermitian route."""
    return [float(n[j]) for n, j in _per_difference(pairs, lambda d: trace_norm(d, hermitian=True))]


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """|| r1 - r2 ||_t, in [0, 2]: the one-pair :func:`trace_distances`."""
    return trace_distances([(r1, r2)])[0]


def pure_trace_distances(pairs: np.ndarray) -> np.ndarray:
    """2 sqrt(1 - |<p1|p2>|^2) for each row ``(p1, p2)`` of a ``(pairs, 2, d)``
    array of unit vectors, taken as it is; a NormalizationError (a norm not
    1, or NaN) names the pair's index."""
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise SizeError(f"a stack of pairs has shape (pairs, 2, d), got {pairs.shape}")
    v = pairs.astype(complex, copy=False)
    _unit_norms(v)  # names "matrix (i, side)": pair i
    dot = np.vecdot(v[:, 0], v[:, 1])  # modulus by hypot and square by libm pow, as scalars
    overlap_sq = np.float_power(np.hypot(dot.real, dot.imag), 2)
    return 2.0 * np.sqrt(np.maximum(1.0 - overlap_sq, 0.0))


def fidelities(pairs) -> list[float]:
    """Squared-overlap fidelity of each pair ``(r1, r2)``, clamped to [0, 1]:
    :func:`_fidelities` of the pairs of one dimension, one stacked SVD per dimension."""
    pairs = _checked_pairs(pairs)

    def build(dim, members):
        sides = ([pairs[i][side] for i in members] for side in (0, 1))
        eigs = (EigDecomposition(*_gathered(rows, "eigenvalues", "eigenvectors")) for rows in sides)
        return (_fidelities(*eigs),)

    out = stacked([s.mats.shape[-1] for (s, _), _ in pairs], build, np.square)
    return [float(f[j]) for (f,), j in out]


def _fidelities(rho1, rho2) -> np.ndarray:
    """The fidelity of each pair of rows of two stacks of one dimension, each
    with its ``eigenvalues`` and ``eigenvectors``: || sqrt(r1) sqrt(r2) ||_t^2,
    the trace norm of the cross matrix A_1^dag A_2 of the spectral factors A_i
    = V_i sqrt(L_i), squared by libm pow as ``float ** 2`` and clamped to [0,
    1], from one stacked SVD. Eigenvalues at or below 1e-14 are zeroed (their roots
    would add spurious directions) and each side is cut to its widest kept
    count in the stack, so a lone pair's factors are exactly its kept columns."""

    def factor(rho):
        vals, vecs = rho.eigenvalues, rho.eigenvectors
        kept = vals > 1e-14
        cut = vals.shape[-1] - int(np.max(np.sum(kept, axis=-1)))  # eigenvalues ascend
        return vecs[..., cut:] * np.sqrt(np.where(kept, vals, 0.0))[:, None, cut:]

    # the factors are freed before the SVD: at large d they show in peak RSS
    norms = trace_norm(dagger(factor(rho1)) @ factor(rho2))
    return np.minimum(np.maximum(np.float_power(norms, 2), 0.0), 1.0)


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
    out = _per_difference(pairs, _helstrom)
    return [(TwoOutcomeMeasurement(pos[j], neg[j]), float(val[j])) for (pos, neg, val, _), j in out]


def _helstrom(diffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`optimal_measurements`' P+, P- and l1 distance of each difference D
    of the stack ``diffs``, each Tr P D the elementwise sum of P * D^T, O(d^2); and
    ||D||_t, the sum of |eigenvalues| of the same certified spectrum, descending
    as :func:`trace_norm` sums them."""
    dim = diffs.shape[-1]
    vals, vecs = linalg.hermitian_eig(diffs, tol=1e-8)
    kept = np.sum(vals >= -DEFAULT_TOL, axis=-1)  # ascending: the last ``kept`` columns
    p_pos = np.empty_like(diffs)
    for k in set(kept.tolist()):
        rows = kept == k
        if rows.all():  # one count for the stack: no masked copies, the product in place
            cols = vecs[..., dim - k :]
            np.matmul(cols, dagger(cols), out=p_pos)
        else:
            cols = vecs[rows][..., dim - k :]
            p_pos[rows] = cols @ dagger(cols)
    p_neg = np.eye(dim) - p_pos
    traces = [np.abs(np.sum(p * diffs.mT, axis=(-2, -1)).real) for p in (p_pos, p_neg)]
    return p_pos, p_neg, traces[0] + traces[1], np.sum(np.sort(np.abs(vals))[..., ::-1], axis=-1)


def bayes_success(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Success probability 1/2 + ||r1 - r2||_t / 4 of the Bayes strategy.

    This is the best chance of guessing which of two equiprobable states
    was handed over, using the optimal measurement plus the majority rule.
    """
    return 0.5 + trace_distance(r1, r2) / 4.0


def fidelity_distance_bounds(f, t):
    """Slack of the two-sided bound 1 - sqrt(F) <= t/2 <= sqrt(1 - F).

    Takes the fidelities ``f`` and trace distances ``t`` of pairs of states
    (scalars, or arrays that broadcast) and returns (lower_slack,
    upper_slack); both are non-negative up to numerics when the pairs are
    valid density matrices.
    """
    half_dist = t / 2.0
    return half_dist - (1.0 - np.sqrt(f)), np.sqrt(np.maximum(1.0 - f, 0.0)) - half_dist
