"""Dense complex linear algebra for small Hermitian problems.

Everything here works on plain ``numpy`` arrays of ``complex128`` and is sized
for qubit-space matrices up to 256 x 256.  All functions are pure.  The
eigendecomposition and PSD projection take a matrix or a ``(..., d, d)``
stack of them and treat each matrix on its own; this module keeps only what
numpy lacks: the finiteness and Hermiticity checks before ``eigh``, whose one
caller :func:`hermitian_eig` symmetrizes only input not exactly Hermitian and
solves a single exactly diagonal matrix (a computational-basis state) by
sorting, the truncating projection, and :func:`kron_map`, the n-fold tensor
power of a one-qubit map that every tomography contraction is.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-9
PSD_CLAMP = 1e-8


class DimensionError(ValueError):
    """Matrix shape or symmetry does not match what the operation requires."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge or produced garbage."""


class DegenerateInputError(ValueError):
    """Input carries no usable positive spectral weight."""


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or (..., d, d) stack by LAPACK.

    Returns ``numpy.linalg.eigh``'s ``(eigenvalues, eigenvectors)`` pair:
    ascending real eigenvalues, orthonormal eigenvector columns.  The input is
    checked for finiteness and Hermiticity and symmetrized unless exactly
    Hermitian.  A single exactly Hermitian matrix with no nonzero off-diagonal
    entry skips LAPACK: its real diagonal in stable ascending order, with the
    identity's columns in that order.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"hermitian_eig expects square matrices, got shape {a.shape}")
    if a.size == 0:
        raise DimensionError(f"hermitian_eig expects non-empty matrices, got shape {a.shape}")
    adjoint = a.conj().swapaxes(-1, -2)
    dev = np.max(np.abs(a - adjoint))
    if not dev < np.inf:  # a non-finite entry gives a NaN or infinite deviation
        raise NumericError(f"hermitian_eig expects finite entries; max |A - A†| = {dev}")
    if dev > HERMITICITY_TOL:
        raise DimensionError(
            f"hermitian_eig expects a Hermitian matrix; max |A - A†| = {dev:.3e}"
        )
    if dev == 0.0 and a.ndim == 2 and np.count_nonzero(a) == np.count_nonzero(a.diagonal()):
        order = np.argsort(a.diagonal().real, kind="stable")
        vectors = np.zeros_like(a)  # set d entries, not copy d^2 of an identity
        vectors[order, np.arange(len(a))] = 1.0
        return a.diagonal().real[order], vectors
    return np.linalg.eigh(a if dev == 0.0 else (a + adjoint) / 2.0)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply.

    One broadcast product forms the same entrywise products as ``np.kron``,
    so the result is identical to it, without its general-rank bookkeeping."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def kron_map(m: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """The n-fold tensor power of the one-qubit map ``m[b1, b2, a1, a2]`` applied
    to (..., a1^n, a2^n) arrays, giving (..., b1^n, b2^n); each index group
    lists qubit n-1 first.  Each of n rounds maps the leading qubit's index pair
    with one matmul and rotates it to the end: no a^n x b^n matrix is formed.
    """
    b1, b2, a1, a2 = m.shape
    batch = x.shape[:-2]
    y = x.reshape((-1,) + (a1,) * n + (a2,) * n)
    y = y.transpose(0, *(1 + g * n + q for q in range(n) for g in (0, 1)))
    step = m.reshape(b1 * b2, a1 * a2)
    for _ in range(n):
        y = (step @ y.reshape(len(y), a1 * a2, -1)).swapaxes(1, 2)
    y = y.reshape((-1,) + (b1, b2) * n).transpose(0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    return y.reshape(batch + (b1**n, b2**n))


def psd_project(a: np.ndarray, target_trace: float) -> np.ndarray:
    """Project a Hermitian matrix, or each of a (..., d, d) stack, onto the PSD
    cone with a prescribed trace.

    Eigenvalue truncation with redistribution: walking up from the most
    negative eigenvalue, zero it while it stays negative after its share of
    the deficit so far, and spread the deficit uniformly over the
    eigenvalues still standing; finally rescale the spectrum to
    ``target_trace``.  Raises :class:`DegenerateInputError` if any matrix
    keeps no positive weight.
    """
    if target_trace <= 0.0:
        raise DegenerateInputError(f"target_trace must be positive, got {target_trace}")
    ascending, vectors = hermitian_eig(a)
    d = ascending.shape[-1]
    # deficit[..., j] sums the j lowest eigenvalues in ascending order, as a
    # walk up the spectrum adds them; d - j eigenvalues are still standing.
    deficit = np.concatenate(
        [np.zeros(ascending.shape[:-1] + (1,)), np.cumsum(ascending[..., :-1], axis=-1)],
        axis=-1,
    )
    negative = ascending + deficit / np.arange(d, 0, -1) < 0.0
    cut = np.logical_and.accumulate(negative, axis=-1).sum(axis=-1)
    if (cut == d).any():
        raise DegenerateInputError(
            "psd_project: no positive spectral weight remains after truncation"
        )
    shift = np.take_along_axis(deficit, cut[..., None], axis=-1) / (d - cut)[..., None]
    standing = np.arange(d) >= cut[..., None]
    # Summed and rebuilt in descending order: the order moves the last bits.
    values = np.where(standing, ascending + shift, 0.0)[..., ::-1]
    vectors = vectors[..., ::-1]
    total = values.sum(axis=-1)
    if (total <= 0.0).any():
        raise DegenerateInputError(
            f"psd_project: truncated spectrum has non-positive trace {total.min():.3e}"
        )
    values *= (target_trace / total)[..., None]
    out = (vectors * values[..., None, :]) @ vectors.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0
