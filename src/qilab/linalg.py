"""Dense complex linear algebra primitives.

All other modules sit on top of these operations. Matrices are plain
``numpy.ndarray`` objects with ``complex128`` entries. The tensor-product
index convention is fixed here once: the FIRST factor occupies the most
significant index positions, i.e. ``tensor(a, b)[ia*rows_b + ib,
ja*cols_b + jb] == a[ia, ja] * b[ib, jb]``. Register/qubit 0 throughout
the package is therefore the most significant position.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    HermiticityError,
    NormalizationError,
    SizeError,
)

# Hard cap on matrix dimension; everything here is meant for desk-scale
# instances, not bulk numerics.
MAX_DIM = 256

# Default absolute tolerance for input validation.
DEFAULT_TOL = 1e-10
# Default tolerance when certifying a factorization post-condition.
CERT_TOL = 1e-8


class EigDecomposition(NamedTuple):
    """Hermitian eigendecomposition with eigenvalues sorted ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex array, or with ``stack`` to any stack of
    matrices (ndim >= 2), rejecting non-finite entries."""
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 and not (stack and mat.ndim > 2):
        raise SizeError(f"expected a 2-d matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        check_each(
            ~np.isfinite(mat).all(axis=(-2, -1)),
            ValueError,
            "{name} contains non-finite entries",
        )
    return mat


def check_each(bad: np.ndarray, error: type[Exception], template: str, values=None) -> None:
    """Raise ``error`` for the first matrix flagged in ``bad``, if any.

    ``bad`` holds one flag per matrix: 0-d for a single matrix, or the
    leading shape of a stack. The message is ``template`` formatted with
    ``name`` ("matrix", or "matrix i" for entry i of a stack) and
    ``value``, that matrix's entry of ``values``.
    """
    if not bad.any():
        return
    where = tuple(int(i) for i in np.argwhere(bad)[0])
    name = "matrix" if not where else f"matrix {where[0] if len(where) == 1 else where}"
    value = None if values is None else values[where]
    raise error(template.format(name=name, value=value))


def check_weights(w: np.ndarray, neg_tol: float, sum_tol: float, what: str) -> None:
    """Check that ``w``, or each row of a stack, is a distribution; name a failing row."""
    ok = (w >= -neg_tol).all(axis=-1) & (abs(w.sum(axis=-1) - 1.0) <= sum_tol)
    if not ok.all():
        at = tuple(int(i) for i in np.argwhere(~ok)[0])  # as check_each names a matrix
        where = "" if not at else f" in row {at[0] if len(at) == 1 else at}"
        raise NormalizationError(f"{what}{where} must be non-negative and sum to 1, got {w[at]}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat).real)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the first factor most significant."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_DIM:
        raise SizeError(
            f"tensor product would be {rows}x{cols}, above the cap {MAX_DIM}"
        )
    return np.kron(a, b)


def hermitian_eig(a, tol: float = DEFAULT_TOL) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack ``(..., d, d)`` in one batched LAPACK call.

    Each matrix is certified on its own, against its own Frobenius scale:
    HermiticityError if it is not Hermitian within ``tol`` (relative; an
    array holds one per matrix), and ConvergenceError if the solver fails,
    or the reconstruction residual or the eigenvectors' distance from
    orthonormal is above the certification tolerance. For a stack, the
    message names the first failing matrix.
    """
    a = as_matrix(a, stack=True)
    dim = a.shape[-1]
    if a.shape[-2] != dim:
        raise SizeError(f"expected square matrices, got shape {a.shape}")
    scale = np.maximum(frobenius(a), 1.0)
    check_each(
        frobenius(a - dagger(a)) > tol * scale,
        HermiticityError,
        "{name} is not Hermitian within tolerance",
    )
    h = (a + dagger(a)) / 2.0
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    residual = frobenius(a @ vecs - vecs * vals[..., None, :])
    check_each(
        residual > CERT_TOL * scale,
        ConvergenceError,
        "{name} has eigendecomposition residual {value:.3e} above tolerance",
        residual,
    )
    ortho = frobenius(dagger(vecs) @ vecs - np.eye(dim))
    check_each(
        ortho > CERT_TOL,
        ConvergenceError,
        "{name} has eigenvectors not orthonormal: {value:.3e}",
        ortho,
    )
    return EigDecomposition(vals, vecs)


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``a = U diag(s) V^dag`` of a matrix, or
    of each matrix of a stack in one batched LAPACK call.

    Returns (U, s, V) with orthonormal columns in U and V and ``s``
    non-negative descending. Each matrix is certified on its own.
    """
    a = as_matrix(a, stack=True)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    residual = frobenius(a - (u * s[..., None, :]) @ vh)
    bad = residual > CERT_TOL * np.maximum(frobenius(a), 1.0)
    check_each(bad, ConvergenceError, "{name} has SVD residual {value:.3e} too large", residual)
    return u, s, dagger(vh)


def singular_values(a, hermitian: bool = False) -> np.ndarray:
    """Singular values only, descending along the last axis; a stack of
    matrices (..., rows, cols) goes to LAPACK in one batched call. With
    numpy's ``hermitian`` flag they are the |eigenvalues| of one batched
    ``eigvalsh``, 1.6-2.4x faster at d = 2..8; it reads the lower triangle
    only, so set it only for matrices Hermitian by construction."""
    return np.linalg.svd(as_matrix(a, stack=True), compute_uv=False, hermitian=hermitian)


def partial_trace(
    a, dim_h: int, dim_k: int, keep: Literal["H", "K"] = "H"
) -> np.ndarray:
    """Partial trace of an operator on H (x) K, or of each of a stack.

    ``a`` must be square of dimension ``dim_h * dim_k`` under the tensor
    convention of :func:`tensor` (H most significant).
    """
    a = as_matrix(a, stack=True)
    dim = dim_h * dim_k
    if a.shape[-2:] != (dim, dim):
        raise SizeError(
            f"expected shape ({dim}, {dim}) for dims ({dim_h}, {dim_k}), "
            f"got {a.shape}"
        )
    four = a.reshape(a.shape[:-2] + (dim_h, dim_k, dim_h, dim_k))
    if keep == "H":
        return np.einsum("...ikjk->...ij", four)
    if keep == "K":
        return np.einsum("...kikj->...ij", four)
    raise ValueError(f"keep must be 'H' or 'K', got {keep!r}")
