"""Entropy and mutual-information calculators.

All logarithms are base 2, so entropies are in bits and qubit registers
of m qubits carry at most m bits. Eigenvalues below 1e-12 are treated as
exact zeros inside entropy sums to keep -x log x noise out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import NormalizationError, SizeError
from .states import DensityMatrix, _frozen, entropy_rows, make_densities, mixture, stacked


def _within(x, lo: float, hi: float, message: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all((lo <= arr) & (arr <= hi)):
        raise ValueError(f"{message}, got {x}")
    return arr


def shannon_entropy(p) -> float | np.ndarray:
    """Shannon entropy of a probability vector in bits; of a stack of them
    (..., n), one per row."""
    arr = np.asarray(p, dtype=np.float64)
    if not np.all(arr >= -1e-9):  # NaN fails too
        raise NormalizationError("probabilities must be non-negative")
    total = np.sum(arr, axis=-1)
    bad = ~(np.abs(total - 1.0) <= 1e-9)
    linalg.check_each(bad, NormalizationError, "probabilities sum to {value}, expected 1", total)
    out = entropy_rows(np.clip(arr, 0.0, None))
    return out if out.ndim else float(out)


def binary_entropy(p):
    """H(p, 1 - p) in bits, of a probability or elementwise of an array."""
    p = np.clip(_within(p, -1e-12, 1.0 + 1e-12, "p must lie in [0, 1]"), 0.0, 1.0)
    return shannon_entropy(np.stack([p, 1.0 - p], axis=-1))


def binary_entropy_gap(delta):
    """1 - H(1/2 + delta); at least delta^2 on [-1/2, 1/2]. Elementwise on an array."""
    delta = _within(delta, -0.5 - 1e-12, 0.5 + 1e-12, "delta must lie in [-1/2, 1/2]")
    delta = np.clip(delta, -0.5, 0.5)
    return 1.0 - binary_entropy(0.5 + delta)


def fano_bound(delta):
    """Lower bound 1 - H(1/2 + delta) on I(X:Y) for a binary predictor.

    Applies when X is a uniform bit and Y predicts it with success
    probability at least 1/2 + delta. Elementwise on an array.
    """
    delta = _within(delta, 0.0, 0.5 + 1e-12, "delta must lie in [0, 1/2]")
    return binary_entropy_gap(np.minimum(delta, 0.5))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Shannon entropy of the eigenvalue spectrum in bits: ``rho.entropy``."""
    return rho.entropy


@dataclass(frozen=True)
class CQEnsemble:
    """Classical-to-quantum encoding: a prior over labels, one state each."""

    labels: tuple[str, ...]
    priors: np.ndarray
    states: tuple[DensityMatrix, ...]

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @cached_property
    def mats(self) -> np.ndarray:
        """The states' matrices as one read-only (n, dim, dim) stack."""
        return _frozen([s.mat for s in self.states])

    @cached_property
    def average_state(self) -> DensityMatrix:
        return mixture(self.priors, self.states)


def make_ensemble(labels, priors, states, average=None) -> CQEnsemble:
    """A validated ensemble. ``average``, if given, seeds ``average_state``;
    it must be ``mixture(priors, states)`` certified, as
    :func:`~qilab.states.make_densities` certifies it."""
    labels = tuple(str(x) for x in labels)
    priors = np.asarray(priors, dtype=np.float64)
    states = tuple(states)
    if not (len(labels) == len(priors) == len(states)):
        raise SizeError("labels, priors and states must have equal length")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if not np.all(priors >= -1e-12):
        raise NormalizationError("priors must be non-negative")
    if not abs(float(np.sum(priors)) - 1.0) <= 1e-9:
        raise NormalizationError("priors must sum to 1")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise SizeError("all encoded states must share one dimension")
    frozen = np.array(priors, copy=True)
    frozen.setflags(write=False)
    e = CQEnsemble(labels, frozen, states)
    if average is not None:
        e.__dict__["average_state"] = average
    return e


def uniform_cube_ensemble(states, average=None) -> CQEnsemble:
    """Uniform ensemble labeled by all m-bit strings; ``average`` as for make_ensemble."""
    n = len(states)
    m = n.bit_length() - 1
    if 2**m != n:
        raise SizeError(f"need a power-of-two state count, got {n}")
    labels = [format(x, f"0{m}b") if m > 0 else "" for x in range(n)]
    return make_ensemble(labels, np.full(n, 1.0 / n), states, average)


def conditional_entropy(e: CQEnsemble) -> float:
    """Average encoded-state entropy sum_x p_x S(sigma_x)."""
    return float(
        sum(p * von_neumann_entropy(s) for p, s in zip(e.priors, e.states))
    )


def holevo_information(e: CQEnsemble) -> float:
    """S(mean state) - sum_x p_x S(sigma_x); bounds extractable bits."""
    chi = von_neumann_entropy(e.average_state) - conditional_entropy(e)
    return float(max(chi, 0.0))


def validate_projective(projectors, dim: int) -> None:
    """Check a list of orthogonal projectors that sums to the identity, or
    each list of a stack of them (..., outcomes, dim, dim), in one pass; a
    failing list of a stack is named "matrix i"."""
    tol = linalg.CERT_TOL
    p = linalg.as_matrix(projectors, stack=True)
    if p.shape[-2:] != (dim, dim):
        raise SizeError(f"projector shape {p.shape[-2:]} does not match dim {dim}")
    for off, what in (
        (p - linalg.dagger(p), "a projector that is not Hermitian"),
        (p @ p - p, "a projector that is not idempotent"),
        (p.sum(axis=-3, keepdims=True) - np.eye(dim), "projectors that do not sum to the identity"),
    ):
        bad = ~np.all(linalg.frobenius(off) <= tol, axis=-1)  # NaN fails too
        linalg.check_each(bad, ValueError, "{name} has " + what)


def classical_mutual_information(joint: np.ndarray) -> float | np.ndarray:
    """I(X:Y) of a 2-d joint probability table; of a stack of them
    (..., x, y), one per table."""
    joint = np.asarray(joint, dtype=np.float64)
    px = joint.sum(axis=-1)
    py = joint.sum(axis=-2)
    return (
        shannon_entropy(px)
        + shannon_entropy(py)
        - shannon_entropy(joint.reshape(joint.shape[:-2] + (-1,)))
    )


def measured_mutual_info(e: CQEnsemble, measurement) -> float:
    """The one-item :func:`measured_mutual_infos`."""
    return measured_mutual_infos([(e, measurement)])[0]


def measured_mutual_infos(items) -> list[float]:
    """Per ``(ensemble, measurement)``, the classical I(X:Y) between labels and
    the outcomes of a list of orthogonal projectors summing to the identity (a
    TwoOutcomeMeasurement is one), at most the Holevo information. One
    validation, product and trace per (states, dim, outcomes) shape; errors
    name the item's index."""
    items = [(e, np.asarray(list(m), dtype=np.complex128)) for e, m in items]

    def build(key, members):
        projs = np.array([items[i][1] for i in members])
        validate_projective(projs, key[1])
        mats = np.array([items[i][0].mats for i in members])
        traces = np.trace(projs[:, None] @ mats[:, :, None], axis1=-2, axis2=-1).real
        joint = np.array([items[i][0].priors for i in members])[..., None] * np.maximum(traces, 0.0)
        return (classical_mutual_information(joint / joint.sum(axis=(-2, -1), keepdims=True)),)

    keys = [(len(e.states), e.dim, p.shape) for e, p in items]
    out = stacked(keys, build, lambda key: key[0] * np.prod(key[2]))
    return [float(mi[j]) for (mi,), j in out]


def bipartite_mutual_info(rho_ab: DensityMatrix, dim_a: int, dim_b: int) -> float:
    """S(A) + S(B) - S(AB) from the reduced states, PSD up to rounding noise."""
    if dim_a * dim_b != rho_ab.dim:
        raise SizeError(
            f"dims ({dim_a}, {dim_b}) do not multiply to {rho_ab.dim}"
        )
    rho_a, rho_b = make_densities(
        [linalg.partial_trace(rho_ab.mat, dim_a, dim_b, keep) for keep in "HK"], tol=1e-8
    )
    return (
        von_neumann_entropy(rho_a)
        + von_neumann_entropy(rho_b)
        - von_neumann_entropy(rho_ab)
    )

