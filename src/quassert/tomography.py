"""Quantum state and process tomography by linear inversion.

State tomography measures all 3^n per-qubit Pauli bases, whose outcome
probabilities (noisy basis rotations and readout flips included) are the rows
of one :func:`quassert.simulator.pauli_distributions` array, and inverts them
with the product inverse channel of classical shadows: each outcome o of
setting k contributes (x)_q (I/2 + 3/2 (-1)^o_q P_k_q), averaged over the
settings.  This equals averaging every compatible setting into each
Pauli-string expectation.

One reconstruction path serves both protocols.  It takes a stack of input
states, evolves the subject once on the whole stack, reads every (input,
setting) distribution at once, draws all of the assertion's counts with one
``sample`` call on its seed, and inverts the whole stack at once.  State
tomography is the one-input case (|0...0>).  Process tomography feeds the
path all 4^n product preparations from {|0>, |1>, |+>, |+i>} and inverts the
fixed preparation frame to assemble the Choi matrix.  One PSD projection of
the final estimate, state or Choi matrix, then restores physicality, and the
estimate is stored from the spectrum that projection rebuilt it from
(``qcore._from_projection``): it is PSD with the right trace by construction,
so it is not validated or eigensolved a second time.
Reading the settings, the inverse channel and the preparation frame's dual
are each the n-fold tensor power of a one-qubit map, applied by
:func:`quassert.qmath.kron_map`.

``shots_per_setting == 0`` selects analytic mode: measurement statistics are
the exact outcome distributions under noiseless basis rotations and readout,
so reconstruction is exact (up to the PSD projection's rounding) for the
subject under the given noise model.
"""

from __future__ import annotations

import functools

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
    _from_projection,
)
from quassert.simulator import NoiseModel, evolve, pauli_distributions, sample

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
    seed: int,
) -> np.ndarray:
    """Unprojected linear-inversion estimates of the subject's outputs on a (B, 2^n, 2^n) stack.

    In sampled mode the frequencies of ``shots_per_setting`` draws, all from
    one ``sample`` call on ``seed``, replace every (input, setting) pair's
    probabilities.
    """
    outputs = _hermitian_part(evolve(inputs, subject, noise))
    probs = pauli_distributions(outputs, noise if shots_per_setting else None)
    if shots_per_setting:
        probs = sample(probs, shots_per_setting, seed) / shots_per_setting
    return _invert_settings(probs, subject.n_qubits)


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
    estimate = _reconstruct(ground, subject, noise, shots_per_setting, seed)
    mat, (values, vectors) = qmath.psd_project(estimate, 1.0)
    return _from_projection(DensityMatrix, n, mat[0], (values[0], vectors[0]))


def _invert_settings(probs: np.ndarray, n: int) -> np.ndarray:
    """Linear-inversion estimates from (..., 3^n, 2^n) outcome probabilities of the settings.

    rho = 3^-n sum_k sum_o p_k(o) (x)_q _SHADOW[k_q, o_q], the product inverse
    channel of classical shadows (Huang, Kueng, Preskill 2020); it equals
    averaging every compatible setting into each Pauli-string expectation.
    """
    return qmath.kron_map(_SHADOW.transpose(2, 3, 0, 1), probs, n) / 3**n


@functools.lru_cache(maxsize=64)
def _preparations(n: int, noise: NoiseModel | None) -> np.ndarray:
    """All 4^n product preparations from |0...0> as one read-only (4^n, 2^n, 2^n) stack.

    Preparation m puts qubit q in label (m // 4^q) % 4 of ``0, 1, +, +i``, so
    qubit 0's label varies fastest.  The preparation gates (noisy like any other)
    are applied one qubit at a time, so preparations that agree on qubits
    0..q-1 share those gates.  The stack is built once per (n, noise model).
    """
    mats = DensityMatrix.ground(n).mat[None]
    for q in range(n):
        preps = [Circuit(n, tuple(GateOp(g, (q,)) for g in gates))
                 for gates in _PREP_GATES.values()]
        mats = np.concatenate([evolve(mats, prep, noise) for prep in preps])
    mats.flags.writeable = False
    return mats


# _DUAL[s, 2a + b] is the weight of noiseless preparation s in the expansion of
# the matrix unit |a><b|; the four preparations span the 2x2 matrices.
_DUAL = np.linalg.inv(_preparations(1, None).reshape(4, 4).T)


def _assemble_choi(outputs: np.ndarray, n: int) -> np.ndarray:
    """sum_m kron((x)_q D_{m_q}, outputs[m]) with D_s[a, b] = _DUAL[s, 2a + b].

    ``outputs[m]`` is the channel's output for preparation m of
    :func:`_preparations`; the result is the unnormalized Choi matrix.
    """
    d = 2**n
    # Output entry (r, c) maps its 4^n preparation weights to the bits (a, b)
    # of (x)_q D; the Choi matrix orders its axes (a, r, b, c).
    entries = outputs.reshape(4**n, d * d).T[..., None]
    choi = qmath.kron_map(_DUAL.T.reshape(2, 2, 4, 1), entries, n)
    return choi.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def process_tomography(
    subject: Circuit,
    noise: NoiseModel | None,
    shots_per_setting: int,
    seed: int,
) -> ChoiMatrix:
    """Reconstruct the subject's channel as an unnormalized Choi matrix.

    This is unprojected state tomography on the stack of all 4^n preparations
    at once, all drawn from the one seed; only the assembled Choi matrix is projected.
    """
    n = subject.n_qubits
    _check_request("process", n, MAX_PROCESS_QUBITS, shots_per_setting)
    estimates = _reconstruct(_preparations(n, noise), subject, noise, shots_per_setting, seed)
    # psd_project symmetrizes the assembled matrix before its eigensolve.
    choi, spectrum = qmath.psd_project(_assemble_choi(estimates, n), float(2**n))
    return _from_projection(ChoiMatrix, n, choi, spectrum)
