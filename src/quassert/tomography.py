"""Quantum state and process tomography by linear inversion.

State tomography measures all 3^n per-qubit Pauli bases, whose outcome
probabilities are the rows of one :func:`quassert.simulator.pauli_distributions`
array (the basis rotations are noisy gates like the subject's), and inverts
them with the product inverse channel of classical shadows: each outcome o of
setting k contributes (x)_q (I/2 + 3/2 (-1)^o_q P_k_q), averaged over the
settings.  This equals averaging every compatible setting into each
Pauli-string expectation.  A PSD projection then restores physicality.

One reconstruction path serves both protocols.  It takes a stack of input
states, evolves the subject once on the whole stack, rotates the stack once
into every setting, samples each (input, setting) pair on its own seed
stream, and inverts and projects the whole stack at once.  State tomography
is the one-input case (|0...0>).  Process tomography feeds the path all 4^n
product preparations from {|0>, |1>, |+>, |+i>}, built one qubit at a time
so that common prefixes are shared, and then inverts the fixed preparation
frame to assemble the Choi matrix.

``shots_per_setting == 0`` selects analytic mode: measurement statistics are
the exact outcome distributions under noiseless basis rotations, so
reconstruction is exact (up to the PSD projection's rounding) for the
subject under the given noise model.
"""

from __future__ import annotations

import numpy as np

from quassert import qmath
from quassert.qcore import (
    Circuit,
    ChoiMatrix,
    DensityMatrix,
    GateOp,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _as_int,
)
from quassert.simulator import NoiseModel, derive_seed, evolve, pauli_distributions, sample

MAX_STATE_QUBITS = 4
MAX_PROCESS_QUBITS = 3

# Gates preparing each input label's single-qubit state from |0>, in label order.
_PREP_GATES = {"0": (), "1": ("x",), "+": ("h",), "+i": ("h", "s")}
# _SHADOW[letter, o] = I/2 + 3/2 (-1)^o P_letter, the single-qubit inverse
# channel for outcome bit o measured in basis "XYZ"[letter].
_SHADOW = np.array(
    [[PAULI_I / 2.0 + 1.5 * sign * pauli for sign in (1.0, -1.0)]
     for pauli in (PAULI_X, PAULI_Y, PAULI_Z)]
)


class SizeLimitError(ValueError):
    """Tomography requested beyond the supported register size."""


def _check_request(kind: str, n: int, limit: int, shots_per_setting: int) -> None:
    if n > limit:
        raise SizeLimitError(f"{kind} tomography supports at most {limit} qubits, got {n}")
    if _as_int(shots_per_setting, "shots_per_setting") < 0:
        raise ValueError("shots_per_setting must be >= 0 (0 = analytic mode)")


def _hermitian_part(mats: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of each matrix, as a DensityMatrix symmetrizes when built."""
    return (mats + mats.conj().swapaxes(-1, -2)) / 2.0


def _reconstruct(
    inputs: np.ndarray,
    subject: Circuit,
    noise: NoiseModel | None,
    shots_per_setting: int,
    seeds: list[int],
) -> np.ndarray:
    """PSD-projected estimates of the subject's outputs on a (B, 2^n, 2^n) stack of inputs.

    In sampled mode the frequencies of ``shots_per_setting`` draws replace the
    probabilities of setting k for input b, drawn with the stream
    ``derive_seed(seeds[b], "setting", k)``.
    """
    n = subject.n_qubits
    outputs = _hermitian_part(evolve(inputs, subject, noise))
    probs = pauli_distributions(outputs, noise if shots_per_setting else None)
    if shots_per_setting:
        counts = [[sample(row, shots_per_setting, derive_seed(seed, "setting", k), noise)
                   for k, row in enumerate(rows)]
                  for seed, rows in zip(seeds, probs)]
        probs = np.array(counts) / shots_per_setting
    return qmath.psd_project(_invert_settings(probs, n), 1.0)


def state_tomography(
    subject: Circuit,
    noise: NoiseModel | None,
    shots_per_setting: int,
    seed: int,
) -> DensityMatrix:
    """Reconstruct the subject's output state on the input |0...0>."""
    n = subject.n_qubits
    _check_request("state", n, MAX_STATE_QUBITS, shots_per_setting)
    ground = DensityMatrix.ground(n).mat[None]
    return DensityMatrix(n, _reconstruct(ground, subject, noise, shots_per_setting, [seed])[0])


def _invert_settings(probs: np.ndarray, n: int) -> np.ndarray:
    """Linear-inversion estimates from (..., 3^n, 2^n) outcome probabilities of the settings.

    rho = 3^-n sum_k sum_o p_k(o) (x)_q _SHADOW[k_q, o_q], the product inverse
    channel of classical shadows (Huang, Kueng, Preskill 2020); it equals
    averaging every compatible setting into each Pauli-string expectation.
    """
    # Axes 0..n-1 are basis letters and n..2n-1 outcome bits; both groups list
    # qubit n-1 first (qubit 0's letter varies fastest, qubit 0 is the low
    # outcome bit), as do the result's row axes 2n.. and column axes 3n..
    batch = probs.shape[:-2]
    probs = probs.reshape(batch + (3,) * n + (2,) * n)
    factors = [x for j in range(n) for x in (_SHADOW, [j, n + j, 2 * n + j, 3 * n + j])]
    rho = np.einsum(probs, [..., *range(2 * n)], *factors, [..., *range(2 * n, 4 * n)])
    return rho.reshape(batch + (2**n, 2**n)) / 3**n


def _single_qubit_prep_matrices() -> list[np.ndarray]:
    zero = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    one = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    plus_i = np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=np.complex128)
    return [zero, one, plus, plus_i]


def _dual_frame() -> np.ndarray:
    """Coefficients expressing matrix units in the preparation frame.

    ``DUAL[s, 2*a + b]`` is the weight of preparation ``s`` in the expansion
    of the matrix unit |a><b|.  The frame is informationally complete by
    construction; the inversion is asserted at import time.
    """
    frame = np.array([p.reshape(-1) for p in _single_qubit_prep_matrices()])
    dual = np.linalg.inv(frame.T)
    residual = np.max(np.abs(frame.T @ dual - np.eye(4)))
    assert residual < 1e-12, f"preparation frame inversion failed: residual {residual:.3e}"
    return dual


_DUAL = _dual_frame()


def _preparations(n: int, noise: NoiseModel | None) -> np.ndarray:
    """All 4^n product preparations from |0...0> as one (4^n, 2^n, 2^n) stack.

    Preparation m puts qubit q in label (m // 4^q) % 4 of ``0, 1, +, +i``, so
    qubit 0's label varies fastest.  The preparation gates (noisy like any other)
    are applied one qubit at a time, so preparations that agree on qubits
    0..q-1 share those gates.
    """
    mats = DensityMatrix.ground(n).mat[None]
    for q in range(n):
        preps = [Circuit(n, tuple(GateOp(g, (q,)) for g in gates))
                 for gates in _PREP_GATES.values()]
        mats = np.concatenate([evolve(mats, prep, noise) for prep in preps])
    return _hermitian_part(mats)


def _assemble_choi(outputs: np.ndarray, n: int) -> np.ndarray:
    """sum_m kron((x)_q D_{m_q}, outputs[m]) with D_s[a, b] = _DUAL[s, 2a + b].

    ``outputs[m]`` is the channel's output for preparation m of
    :func:`_preparations`; the result is the unnormalized Choi matrix.
    """
    d = 2**n
    # Axes 0..n-1 are preparation labels, n..2n-1 and 2n..3n-1 the input row
    # and column bits, all listing qubit n-1 first like the kron.
    outputs = outputs.reshape((4,) * n + (d, d))
    row, col = 3 * n, 3 * n + 1
    factors = [x for j in range(n) for x in (_DUAL.reshape(4, 2, 2), [j, n + j, 2 * n + j])]
    choi_axes = [*range(n, 2 * n), row, *range(2 * n, 3 * n), col]
    choi = np.einsum(outputs, [*range(n), row, col], *factors, choi_axes)
    return choi.reshape(d * d, d * d)


def process_tomography(
    subject: Circuit,
    noise: NoiseModel | None,
    shots_per_setting: int,
    seed: int,
) -> ChoiMatrix:
    """Reconstruct the subject's channel as an unnormalized Choi matrix.

    This is state tomography on the stack of all 4^n preparations at once;
    preparation m samples with the seed ``derive_seed(seed, "prep", m)``.
    """
    n = subject.n_qubits
    _check_request("process", n, MAX_PROCESS_QUBITS, shots_per_setting)
    seeds = [derive_seed(seed, "prep", m) for m in range(4**n)]
    estimates = _reconstruct(_preparations(n, noise), subject, noise, shots_per_setting, seeds)
    choi = _hermitian_part(_assemble_choi(estimates, n))
    projected = qmath.psd_project(choi, float(2**n))
    return ChoiMatrix(n, projected)
