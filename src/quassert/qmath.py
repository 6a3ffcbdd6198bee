"""Dense complex linear algebra for small Hermitian problems.

Everything here works on plain ``numpy`` arrays of ``complex128`` and is sized
for qubit-space matrices up to 256 x 256.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-9
PSD_CLAMP = 1e-8


class DimensionError(ValueError):
    """Matrix shape or symmetry does not match what the operation requires."""


class NumericError(RuntimeError):
    """An iterative numeric routine failed to converge or produced garbage."""


class NotPSDError(NumericError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class DegenerateInputError(ValueError):
    """Input carries no usable positive spectral weight."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition A = V diag(values) V† with ascending eigenvalues.

    ``values`` is a real 1-d array; the columns of ``vectors`` are orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_square_complex(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} expects a square matrix, got shape {a.shape}")
    return a


def _require_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    a = _as_square_complex(a, name)
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > HERMITICITY_TOL:
        raise DimensionError(
            f"{name} expects a Hermitian matrix; max |A - A†| = {dev:.3e}"
        )
    # Symmetrize so downstream math sees an exactly Hermitian operator.
    return (a + a.conj().T) / 2.0


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    The input is checked for Hermiticity and symmetrized first, so the
    solver sees an exactly Hermitian operator.
    """
    a = _require_hermitian(a, "hermitian_eig")
    if a.shape[0] == 0:
        raise DimensionError("hermitian_eig expects a non-empty matrix")
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values=values, vectors=vectors)


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-1e-8, 0) are treated as rounding noise and clamped to
    zero; anything more negative raises :class:`NotPSDError`.
    """
    eig = hermitian_eig(a)
    values = eig.values.copy()
    worst = float(values.min()) if values.size else 0.0
    if worst < -PSD_CLAMP:
        raise NotPSDError(
            f"matrix_sqrt_psd requires a PSD matrix; eigenvalue {worst:.3e} < -{PSD_CLAMP:.0e}"
        )
    values[values < 0.0] = 0.0
    root = (eig.vectors * np.sqrt(values)) @ eig.vectors.conj().T
    return (root + root.conj().T) / 2.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))


def partial_trace(a: np.ndarray, n_qubits: int, keep: tuple[int, ...] | list[int]) -> np.ndarray:
    """Trace out every qubit not listed in ``keep``.

    Qubit 0 is the least significant bit of the matrix index.  Kept qubits
    retain their relative order in the result.
    """
    a = _as_square_complex(a, "partial_trace")
    dim = 2**n_qubits
    if a.shape[0] != dim:
        raise DimensionError(
            f"partial_trace expects a {dim}x{dim} matrix for {n_qubits} qubits, got {a.shape}"
        )
    keep = sorted(set(keep))
    for q in keep:
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit index {q} out of range for {n_qubits} qubits")
    if len(keep) == n_qubits:
        return a.copy()

    # Reshape axis k corresponds to qubit (n_axes - 1 - k); trace qubits one
    # at a time, tracking which qubits remain.
    remaining = list(range(n_qubits))
    tensor = a.reshape((2,) * (2 * n_qubits))
    for q in sorted(set(range(n_qubits)) - set(keep)):
        pos = remaining.index(q)
        n_axes = len(remaining)
        axis_row = n_axes - 1 - pos
        axis_col = axis_row + n_axes
        tensor = np.trace(tensor, axis1=axis_row, axis2=axis_col)
        remaining.pop(pos)
    out_dim = 2 ** len(remaining)
    return tensor.reshape(out_dim, out_dim)


def psd_project(a: np.ndarray, target_trace: float) -> np.ndarray:
    """Project a Hermitian matrix onto the PSD cone with a prescribed trace.

    Eigenvalue truncation with redistribution: walking up from the most
    negative eigenvalue, zero it and spread the deficit uniformly over the
    eigenvalues still standing; finally rescale the spectrum to
    ``target_trace``.
    """
    if target_trace <= 0.0:
        raise DegenerateInputError(f"target_trace must be positive, got {target_trace}")
    eig = hermitian_eig(a)
    values = eig.values[::-1].copy()  # descending
    vectors = eig.vectors[:, ::-1]
    d = values.size
    deficit = 0.0
    i = d
    while i > 0 and values[i - 1] + deficit / i < 0.0:
        deficit += values[i - 1]
        values[i - 1] = 0.0
        i -= 1
    if i == 0:
        raise DegenerateInputError(
            "psd_project: no positive spectral weight remains after truncation"
        )
    values[:i] += deficit / i
    total = float(values.sum())
    if total <= 0.0:
        raise DegenerateInputError(
            f"psd_project: truncated spectrum has non-positive trace {total:.3e}"
        )
    values *= target_trace / total
    out = (vectors * values) @ vectors.conj().T
    return (out + out.conj().T) / 2.0
