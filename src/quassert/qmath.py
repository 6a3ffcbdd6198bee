"""Dense complex linear algebra for small Hermitian problems.

Everything here works on plain ``numpy`` arrays of ``complex128`` and is sized
for qubit-space matrices up to 256 x 256.  All functions are pure.  The
eigendecomposition and PSD projection take a matrix or a ``(..., d, d)``
stack of them and treat each matrix on its own; this module keeps only what
numpy lacks: the finiteness and Hermiticity checks before ``eigh``, whose one
caller :func:`hermitian_eig` symmetrizes only input not exactly Hermitian and
solves by sorting a single exactly Hermitian matrix that its caller passes as
diagonal (a computational-basis state), the integer scan :func:`diagonal_words`
by which that caller finds such a matrix, the truncating projection, and
:func:`kron_map`, the n-fold tensor power of a one-qubit map that every
tomography contraction is.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-9
PSD_CLAMP = 1e-8
# A complex128 entry as its two uint64 words; a same-size view reads any layout.
_WORDS = np.dtype((np.uint64, 2))


class DimensionError(ValueError):
    """Matrix shape or symmetry does not match what the operation requires."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge or produced garbage."""


class DegenerateInputError(ValueError):
    """Input carries no usable positive spectral weight."""


def diagonal_words(a: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the square complex128 matrix ``a`` is
    the all-zero word ``+0.0+0.0j``: one integer count over its ``uint64``
    words against the same count on its diagonal.  A ``-0.0`` entry is a
    nonzero word, so False does not mean a nonzero entry."""
    return np.count_nonzero(a.view(_WORDS)) == np.count_nonzero(a.diagonal().view(_WORDS))


def hermitian_eig(
    a: np.ndarray, deviation: float | None = None, diagonal: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or (..., d, d) stack by LAPACK.

    Returns ``numpy.linalg.eigh``'s ``(eigenvalues, eigenvectors)`` pair:
    ascending real eigenvalues, orthonormal eigenvector columns.  The input is
    checked for finiteness and Hermiticity and symmetrized unless exactly
    Hermitian.  A caller that has checked ``a`` already passes its
    ``deviation``, max |A - A†|, which is then not computed again.  A caller
    that has found every off-diagonal word of a single matrix ``+0.0``
    (:func:`diagonal_words`) passes ``diagonal``; if the matrix is also
    exactly Hermitian, LAPACK is skipped: its real diagonal in stable
    ascending order, with the identity's columns in that order.
    """
    a = np.asarray(a, dtype=np.complex128)
    dev = deviation
    if dev is None:
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise DimensionError(f"hermitian_eig expects square matrices, got shape {a.shape}")
        if a.size == 0:
            raise DimensionError(f"hermitian_eig expects non-empty matrices, got shape {a.shape}")
        dev = np.max(np.abs(a - a.conj().swapaxes(-1, -2)))
        if not dev < np.inf:  # a non-finite entry gives a NaN or infinite deviation
            raise NumericError(f"hermitian_eig expects finite entries; max |A - A†| = {dev}")
        if dev > HERMITICITY_TOL:
            raise DimensionError(
                f"hermitian_eig expects a Hermitian matrix; max |A - A†| = {dev:.3e}"
            )
    if diagonal and dev == 0.0:
        order = np.argsort(a.diagonal().real, kind="stable")
        vectors = np.zeros_like(a)  # set d entries, not copy d^2 of an identity
        vectors[order, np.arange(len(a))] = 1.0
        return a.diagonal().real[order], vectors
    return np.linalg.eigh(a if dev == 0.0 else (a + a.conj().swapaxes(-1, -2)) / 2.0)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices; dimensions multiply.

    One broadcast product forms the same entrywise products as ``np.kron``,
    so the result is identical to it, without its general-rank bookkeeping."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def kron_map(m: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """The n-fold tensor power of the one-qubit map ``m[b1, ..., bk, a1, ..., ag]``
    applied to a (B, a1^n, ..., ag^n) array, g = x.ndim - 1, giving (B, b1^n,
    ..., bk^n); each index group lists qubit n-1 first.  Each of n rounds maps
    the leading qubit's g indices with one matmul and rotates its k outputs to
    the end: no a^n x b^n matrix is formed.
    """
    g = x.ndim - 1
    outs, ins = m.shape[:-g], m.shape[-g:]
    y = x.reshape(len(x), *[a for a in ins for _ in range(n)])
    y = y.transpose(0, *[1 + i * n + q for q in range(n) for i in range(g)])
    step = m.reshape(-1, math.prod(ins))
    for _ in range(n):
        y = (step @ y.reshape(len(y), step.shape[1], -1)).swapaxes(1, 2)
    k = len(outs)
    y = y.reshape(len(y), *outs * n)
    y = y.transpose(0, *[1 + q * k + j for j in range(k) for q in range(n)])
    return y.reshape(len(y), *[b**n for b in outs])


def psd_project(
    a: np.ndarray, target_trace: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Project a Hermitian matrix, or each of a (..., d, d) stack, onto the PSD
    cone with a prescribed trace.

    Eigenvalue truncation with redistribution (Smolin, Gambetta and Smith, PRL
    108, 070502, 2012): walking up from the most negative eigenvalue, zero it
    while it stays negative after its share of the deficit so far, and spread
    the deficit uniformly over the eigenvalues still standing; finally rescale
    the spectrum to ``target_trace``.  Returns the projection and the
    ``(values, vectors)`` it was rebuilt from, in :func:`hermitian_eig`'s
    ascending order, the truncated eigenvalues exactly zero.  Raises
    :class:`DegenerateInputError` if any matrix keeps no positive weight.
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
    # The spectrum goes back ascending, as hermitian_eig gave it.
    return (out + out.conj().swapaxes(-1, -2)) / 2.0, (values[..., ::-1], vectors[..., ::-1])
