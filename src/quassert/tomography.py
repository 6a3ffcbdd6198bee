"""Quantum state and process tomography by linear inversion.

Each protocol is one evolution, one forward map and one tail they share
(:func:`_estimate`): one draw, one inverse map and one PSD projection.
Every map is the n-fold tensor power of a one-qubit map, applied by
:func:`quassert.qmath.kron_map`.  State tomography reads the subject's output
on |0...0> in all 3^n per-qubit Pauli bases
(:func:`quassert.simulator.pauli_distributions`) and inverts them with the
product inverse channel of classical shadows (Huang, Kueng, Preskill 2020).
Process tomography is state tomography of the subject's Choi matrix C, one
evolution of |Omega><Omega| under the run's noise (ancilla-assisted process
tomography, Altepeter et al., PRL 90, 193601, 2003): preparing each qubit in
|0>, |1>, |+> or |+i> by noisy gates and reading effect E has probability
tr(C (rho^T (x) E)); the inverse composes the shadow inversion with the dual
frame of the noiseless preparations.  Both maps read C in its own index groups.

All of an assertion's counts come from one ``sample`` call on its seed, in the
rows preparation, setting, outcome, qubit 0 fastest in each.  The estimate is
stored from the spectrum its projection rebuilt it from
(``qcore._from_projection``), so it is not validated or eigensolved again.
``shots_per_setting == 0`` selects analytic mode: exact distributions under
noiseless basis rotations and readout, so reconstruction is exact (up to the
projection's rounding) for the subject and preparations under the noise model.
"""

from __future__ import annotations

import functools
import math

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
from quassert.simulator import (
    NoiseModel,
    _choi_mat,
    _normalized,
    evolve,
    pauli_distributions,
    pauli_povm,
    sample,
)

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
# State tomography's one-qubit inverse [r, c, l, o] = _SHADOW[l, o][r, c] / 3: its
# power averages every compatible setting into each Pauli-string expectation.
_STATE_INVERSE = np.ascontiguousarray(_SHADOW.transpose(2, 3, 0, 1)) / 3.0


class SizeLimitError(ValueError):
    """Tomography requested beyond the supported register size."""


def _check_request(kind: str, n: int, limit: int, shots_per_setting: int) -> None:
    if n > limit:
        raise SizeLimitError(f"{kind} tomography supports at most {limit} qubits, got {n}")
    if _as_int(shots_per_setting, "shots_per_setting") < 0:
        raise ValueError("shots_per_setting must be >= 0 (0 = analytic mode)")


def _estimate(cls, n: int, probs: np.ndarray, inverse: np.ndarray, shots_per_setting: int,
              seed: int) -> DensityMatrix | ChoiMatrix:
    """The (1, ..., 2^n) probabilities ``probs``, in sampled mode the frequencies
    of one ``sample`` call drawing every row from ``seed``, mapped by ``inverse``
    to a d x d estimate, projected to trace d / 2^n (1 for a state, 2^n for a
    Choi matrix) and stored as ``cls`` from the projection's spectrum."""
    if shots_per_setting:
        probs = sample(probs, shots_per_setting, seed) / shots_per_setting
    estimate = qmath.kron_map(inverse, probs, n)
    d = math.isqrt(estimate.size)
    mat, (values, vectors) = qmath.psd_project(estimate.reshape(1, d, d), d / 2**n)
    return _from_projection(cls, n, mat[0], (values[0], vectors[0]))


def state_tomography(
    subject: Circuit,
    noise: NoiseModel | None,
    shots_per_setting: int,
    seed: int,
) -> DensityMatrix:
    """Reconstruct the subject's output state on the input |0...0>."""
    n = subject.n_qubits
    _check_request("state", n, MAX_STATE_QUBITS, shots_per_setting)
    output = evolve(DensityMatrix.ground(n).mat[None], subject, noise)
    # The Hermitian part, as a DensityMatrix symmetrizes when built.
    output = (output + output.conj().swapaxes(-1, -2)) / 2.0
    probs = pauli_distributions(output, noise if shots_per_setting else None)
    return _estimate(DensityMatrix, n, probs, _STATE_INVERSE, shots_per_setting, seed)


def _preparations(noise: NoiseModel | None) -> np.ndarray:
    """The four one-qubit preparations of ``_PREP_GATES`` from |0> as a (4, 2, 2) stack."""
    ground = DensityMatrix.ground(1).mat[None]
    return np.concatenate([evolve(ground, Circuit(1, tuple(GateOp(g, (0,)) for g in gates)), noise)
                           for gates in _PREP_GATES.values()])


# _DUAL[s, 2a + b] weighs noiseless preparation s in the expansion of |a><b|.
_DUAL = np.linalg.inv(_preparations(None).reshape(4, 4).T)
# The one-qubit inverse of _forward's noiseless map:
# _INVERSE[a, r, b, c, s, l, o] = _DUAL[s, 2a + b] _SHADOW[l, o][r, c] / 3.
_INVERSE = np.ascontiguousarray((np.multiply.outer(_DUAL.reshape(4, 2, 2), _SHADOW) / 3.0
                                 ).transpose(1, 5, 2, 6, 0, 3, 4))


@functools.lru_cache(maxsize=64)
def _forward(noise: NoiseModel | None, readout: NoiseModel | None) -> np.ndarray:
    """The read-only one-qubit forward map [s, l, o, i, r, j, c] =
    rho_s[i, j] E[l, o][c, r]: preparation rho_s under ``noise``, read in basis
    "XYZ"[l] by the :func:`quassert.simulator.pauli_povm` E of ``readout``."""
    products = np.multiply.outer(_preparations(noise), pauli_povm(readout))  # [s, i, j, l, o, c, r]
    forward = np.ascontiguousarray(products.transpose(0, 3, 4, 1, 6, 2, 5))
    forward.flags.writeable = False
    return forward


def process_tomography(
    subject: Circuit,
    noise: NoiseModel | None,
    shots_per_setting: int,
    seed: int,
) -> ChoiMatrix:
    """Reconstruct the subject's channel as an unnormalized Choi matrix: state
    tomography of its Choi matrix, all 4^n x 3^n distributions from one seed."""
    n = subject.n_qubits
    _check_request("process", n, MAX_PROCESS_QUBITS, shots_per_setting)
    choi = _choi_mat(subject, noise).reshape((1,) + (2**n,) * 4)
    forward = _forward(noise, noise if shots_per_setting else None)
    probs = _normalized(qmath.kron_map(forward, choi, n).real)
    return _estimate(ChoiMatrix, n, probs, _INVERSE, shots_per_setting, seed)
