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
from .states import CertifiedStack, DensityMatrix, _frozen, entropy_rows, make_densities, mixture
from .states import mixture_matrix


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
    # each row [p, 1 - p] is a distribution: shannon_entropy's checks would pass
    out = entropy_rows(np.stack([p, 1.0 - p], axis=-1))
    return out if out.ndim else float(out)


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

    @cached_property
    def mats(self) -> np.ndarray:
        """The states' matrices as one read-only (n, dim, dim) stack."""
        return _frozen([s.mat for s in self.states])

    @cached_property
    def average_state(self) -> DensityMatrix:
        return mixture(self.priors, self.states)


def _view(row, name: str) -> DensityMatrix:
    """A ``(CertifiedStack, j)`` row (a view is one) as its view; TypeError names any other item."""
    if not (isinstance(row, tuple) and len(row) == 2 and isinstance(row[0], CertifiedStack)):
        raise TypeError(f"{name} is a {type(row).__name__}, not a (CertifiedStack, j) row")
    return DensityMatrix(*row)


def make_ensemble(labels, priors, states, average=None) -> CQEnsemble:
    """A validated ensemble of ``(CertifiedStack, j)`` rows, held as views.
    ``average``, a row, seeds ``average_state``; it must be ``mixture(priors,
    states)`` certified, as :func:`~qilab.states.make_densities` certifies it."""
    labels = tuple(str(x) for x in labels)
    priors = np.asarray(priors, dtype=np.float64)
    states = tuple(_view(row, f"state {i}") for i, row in enumerate(states))
    if not (len(labels) == len(priors) == len(states)):
        raise SizeError("labels, priors and states must have equal length")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    linalg.check_weights(priors, 1e-12, 1e-9, "priors")
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise SizeError("all encoded states must share one dimension")
    e = CQEnsemble(labels, _frozen(priors), states)
    if average is not None:
        e.__dict__["average_state"] = _view(average, "average")
    return e


def uniform_cube_ensemble(states, average=None) -> CQEnsemble:
    """Uniform ensemble labeled by all m-bit strings; rows and ``average`` as for make_ensemble."""
    n = len(states)
    return make_ensemble(_cube_labels(n)[1], np.full(n, 1.0 / n), states, average)


def _cube_labels(n: int) -> tuple[int, list[str]]:
    """``(m, labels)`` for a cube of ``n`` states: the m-bit strings in binary order."""
    m = n.bit_length() - 1
    if 2**m != n:
        raise SizeError(f"need a power-of-two state count, got {n}")
    return m, [format(x, f"0{m}b") if m > 0 else "" for x in range(n)]


def conditional_entropies(priors, entropies):
    """Average encoded-state entropy sum_x p_x S(sigma_x), summed over the
    last axis of priors and entropies, which must have one shape."""
    priors, entropies = np.asarray(priors), np.asarray(entropies)
    if priors.shape != entropies.shape:
        raise SizeError(f"priors of shape {priors.shape} but entropies {entropies.shape}")
    out = 0.0
    for p, s in zip(np.moveaxis(priors, -1, 0), np.moveaxis(entropies, -1, 0)):
        out = out + p * s
    return out


def holevo_information(e: CQEnsemble) -> float:
    """S(mean state) - sum_x p_x S(sigma_x), which bounds the extractable bits:
    the one-row :func:`holevo_informations`."""
    ent, avg = [von_neumann_entropy(s) for s in e.states], von_neumann_entropy(e.average_state)
    return float(holevo_informations([e.priors], [ent], [avg])[0])


def holevo_informations(priors, entropies, average_entropies) -> np.ndarray:
    """Per ensemble of a stack, :func:`holevo_information` from its row of priors
    (checked once per stack), its states' and its average's entropies."""
    priors, avg = np.asarray(priors, dtype=np.float64), np.asarray(average_entropies)
    linalg.check_weights(priors, 1e-12, 1e-9, "priors")
    if avg.shape != priors.shape[:-1]:
        raise SizeError(f"priors of shape {priors.shape} but average entropies {avg.shape}")
    chi = avg - conditional_entropies(priors, entropies)
    return np.where(chi < 0.0, 0.0, chi)  # max(chi, 0.0), NaN and -0.0 kept


def uniform_cube_informations(cubes) -> list[float]:
    """Per list of ``(stack, j)`` rows, ``holevo_information(uniform_cube_ensemble(
    rows))`` bit for bit: the averages of every list certified in one
    :func:`~qilab.states.make_densities` call, then one :func:`holevo_informations`
    per list length and dim."""
    cubes = [[_view(row, f"state {i}") for i, row in enumerate(c)] for c in cubes]
    groups: dict = {}
    for k, states in enumerate(cubes):
        _cube_labels(len(states))  # a power-of-two count, as uniform_cube_ensemble needs
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise SizeError("all encoded states must share one dimension")
        groups.setdefault((len(states), dims.pop()), []).append(k)
    priors = {n: np.full(n, 1.0 / n) for n, _ in groups}
    averages = [  # one stack per group, the cubes' i-th states mixed entry by entry
        mixture_matrix(priors[n], [np.array([cubes[k][i].mat for k in ks]) for i in range(n)])
        for (n, _), ks in groups.items()
    ]
    certified = iter(make_densities([m for stack in averages for m in stack]))
    out = [0.0] * len(cubes)
    for (n, _), ks in groups.items():
        avg = [next(certified).entropy for _ in ks]
        ent = [[s.entropy for s in cubes[k]] for k in ks]
        for k, chi in zip(ks, holevo_informations(np.tile(priors[n], (len(ks), 1)), ent, avg)):
            out[k] = float(chi)
    return out


def validate_projective(projectors, dim: int) -> None:
    """Check a list of orthogonal projectors that sums to the identity, or
    each list of a stack of them (..., outcomes, dim, dim), in one pass; a
    failing list of a stack is named "matrix i"."""
    tol = linalg.CERT_TOL
    p = linalg.as_matrix(projectors)
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
    """The one-item :func:`measured_mutual_infos` of an ensemble and a list of
    projectors (a TwoOutcomeMeasurement is one)."""
    projs = np.asarray(list(measurement), dtype=np.complex128)
    return float(measured_mutual_infos(e.priors[None], e.mats[None], projs[None])[0])


def measured_mutual_infos(priors, states, projectors) -> np.ndarray:
    """Per row of a stack, the classical I(X:Y) between labels drawn with the
    priors ``(rows, n)`` and the outcomes of measuring their states ``(rows,
    n, dim, dim)`` with orthogonal projectors ``(rows, outcomes, dim, dim)``
    summing to the identity: at most the Holevo information. One validation,
    product and trace for the stack; errors name the failing row."""
    priors = np.asarray(priors, dtype=np.float64)
    # C-contiguous: the products' last bits depend on the layout
    mats, projs = (np.ascontiguousarray(a, dtype=np.complex128) for a in (states, projectors))
    if mats.shape[:2] != priors.shape or projs.shape[:1] != priors.shape[:1]:
        raise SizeError(f"priors {priors.shape}, states {mats.shape} and projectors {projs.shape}")
    linalg.check_weights(priors, 1e-12, 1e-9, "priors")
    validate_projective(projs, mats.shape[-1])
    traces = np.trace(projs[:, None] @ mats[:, :, None], axis1=-2, axis2=-1).real
    joint = priors[..., None] * np.maximum(traces, 0.0)
    return classical_mutual_information(joint / joint.sum(axis=(-2, -1), keepdims=True))


def bipartite_mutual_info(rho_ab: DensityMatrix, dim_a: int, dim_b: int) -> float:
    """S(A) + S(B) - S(AB) from the reduced states, PSD up to rounding noise."""
    if dim_a * dim_b != rho_ab.dim:
        raise SizeError(f"dims ({dim_a}, {dim_b}) do not multiply to {rho_ab.dim}")
    rho_a, rho_b = make_densities(
        [linalg.partial_trace(rho_ab.mat, dim_a, dim_b, keep) for keep in "HK"], tol=1e-8
    )
    return von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b) - von_neumann_entropy(rho_ab)

