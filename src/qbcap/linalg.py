"""Pauli matrices, a checked eigendecomposition and Haar-random unitaries.

Everything here works on plain complex ndarrays of qubit (2x2) or qubit-pair
(4x4) matrices, single or stacked. The package forms Kronecker products,
partial traces, partial transposes and Pauli expectations as broadcast
products, fixed reshapes and contractions where it needs them; it makes no
``np.kron`` call.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericError, raise_first
from .tolerances import RECONSTRUCTION_TOL

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_1, SIGMA_2, SIGMA_3)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_BASIS = np.stack([IDENTITY_2, *PAULIS])  # (I, s1, s2, s3), the operators of a qubit's Pauli expansion

for _m in (*PAULIS, IDENTITY_2, PAULI_BASIS):
    _m.setflags(write=False)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a square matrix, or a stack of them, whose Hermiticity the caller has checked.

    Returns
    -------
    (values, vectors)
        Ascending eigenvalues and eigenvector columns of each matrix. Each
        matrix satisfies the reconstruction bound ``max|h - V diag(w) V^dagger|
        <= 1e-11``, where h is the Hermitian matrix LAPACK decomposes: the
        lower triangle of the matrix, mirrored, with the real part of its
        diagonal. The first matrix in stack order that misses it raises
        (``raise_first``).
    """
    values, vectors = decompose(m)
    err = reconstruction_errors(m, values, vectors)
    raise_first(err > RECONSTRUCTION_TOL, lambda *i: reconstruction_failure(err[i]))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a stack, its failure to converge raised as a ``NumericError``; nothing checked."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition did not converge: {exc}") from exc


def reconstruction_failure(err: float) -> NumericError:
    """The error of a decomposition whose reconstruction error ``err`` misses the bound."""
    return NumericError(f"eigendecomposition reconstruction error {err:.3e} exceeds {RECONSTRUCTION_TOL:g}")


@functools.cache
def _lower_triangle(d: int) -> np.ndarray:
    """Ones on and below the diagonal of a d x d matrix, zeros above, as a read-only (d, d, 1) mask."""
    mask = np.tri(d)[:, :, None]
    mask.setflags(write=False)
    return mask


def reconstruction_errors(m: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """max|h - sum_k w_k v_k v_k^dagger| of each matrix, h its lower triangle mirrored with the real diagonal.

    Both sides are Hermitian, the sum up to round-off, so the entries on and
    below the diagonal measure it. The stack runs along the last axis of every
    operand, so that each rank-1 term is one pass over contiguous memory
    rather than a stacked small matmul.
    """
    d = m.shape[-1]
    columns = vectors.reshape(-1, d, d).transpose(2, 1, 0).copy()  # [k, i, n]: entry i of v_k
    conjugate = columns.conj()
    columns *= values.reshape(-1, d).T[:, None]  # w_k v_k
    diff = m.transpose(m.ndim - 2, m.ndim - 1, *range(m.ndim - 2)).copy().reshape(d, d, -1)  # [i, j, n], one copy
    diff.reshape(d * d, -1)[:: d + 1].imag = 0.0  # the diagonal of h is real
    term = np.empty_like(diff)
    for k in range(d):
        diff -= np.multiply(columns[k, :, None], conjugate[k, None], out=term)
    err = np.abs(diff, out=term.real)
    err *= _lower_triangle(d)
    return err.max(axis=(0, 1)).reshape(values.shape[:-1])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a complex Ginibre matrix.

    The R-diagonal phases are absorbed into the columns of Q, which removes
    the phase ambiguity of the factorization and makes the result exactly
    Haar-distributed.
    """
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
