"""Embedded density-matrix simulator with optional parametric noise.

:func:`evolve`, :func:`exact_distribution`, :func:`pauli_distributions` and
:func:`sample` are the one execution seam the protocols call; the noise model
is passed per call.  :func:`pauli_distributions` alone holds the Pauli
basis-rotation convention.

Noise is gate-attached: after every gate a depolarizing channel acts on that
gate's qubits, and amplitude damping additionally acts on single-qubit gate
targets; the Pauli-basis rotations are noisy gates too.  Readout bit flips
are applied by ``sample`` only.

Sampling is reproducible: every call owns a fresh generator built from its
seed, and derived streams come from :func:`derive_seed` so results do not
depend on execution order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from quassert import qmath
from quassert.qcore import (
    Circuit,
    DensityMatrix,
    GateOp,
    OutcomeDistribution,
    TWO_QUBIT_GATES,
    expanded_gate_matrix,
)
from quassert.qmath import NumericError


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate noise strengths; all probabilities in [0, 1].

    ``depolarizing_1q``/``depolarizing_2q`` replace the state on the gate's
    qubits by the maximally mixed one with the given probability;
    ``amplitude_damping`` is the gamma of a damping channel on 1-qubit gate
    targets; ``readout_flip`` flips each measured bit independently.
    """

    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0
    amplitude_damping: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("depolarizing_1q", "depolarizing_2q", "amplitude_damping", "readout_flip"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


# Artifact default for a noisy run; representative of a 27-qubit-era device.
DEFAULT_NOISE = NoiseModel(
    depolarizing_1q=0.001,
    depolarizing_2q=0.01,
    amplitude_damping=0.001,
    readout_flip=0.02,
)


@dataclass(frozen=True)
class Counts:
    """Observed shot tallies keyed by little-endian outcome index."""

    n_qubits: int
    tallies: dict[int, int] = field(default_factory=dict)
    shots: int = 0

    def __post_init__(self) -> None:
        total = sum(self.tallies.values())
        if total != self.shots:
            raise ValueError(f"tallies sum to {total} but shots = {self.shots}")
        if any(v < 0 for v in self.tallies.values()):
            raise ValueError("negative tally")
        dim = 2**self.n_qubits
        if any(not 0 <= k < dim for k in self.tallies):
            raise ValueError("outcome index out of range")

    def as_vector(self) -> np.ndarray:
        vec = np.zeros(2**self.n_qubits, dtype=np.int64)
        vec[list(self.tallies)] = list(self.tallies.values())
        return vec

    def frequencies(self) -> np.ndarray:
        return self.as_vector() / self.shots


def derive_seed(*parts: object) -> int:
    """Stable 64-bit stream seed from labeled parts; numpy integers hash as ints."""
    payload = "\x1f".join(repr(int(p) if isinstance(p, np.integer) else p) for p in parts)
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:8], "little")


def _map_qubit_block(tensor: np.ndarray, qubit: int, n: int, fn) -> np.ndarray:
    """Apply ``fn`` to ``qubit``'s 2x2 block of a (2,)*2n reshaped matrix.

    Qubit q owns row axis n-1-q and column axis 2n-1-q; ``fn`` sees them as
    the last two axes.
    """
    axes = (n - 1 - qubit, 2 * n - 1 - qubit)
    return np.moveaxis(fn(np.moveaxis(tensor, axes, (-2, -1))), (-2, -1), axes)


def _half_trace_times_identity(block: np.ndarray) -> np.ndarray:
    half_trace = np.trace(block, axis1=-2, axis2=-1) / 2.0
    return half_trace[..., None, None] * np.eye(2)


def _depolarize(mat: np.ndarray, qubits: tuple[int, ...], p: float, n: int) -> np.ndarray:
    """(1 - p) * rho + p * (I/2^k (x) Tr_qubits rho) on the given k qubits."""
    if p == 0.0:
        return mat
    mixed = mat.reshape((2,) * (2 * n))
    for q in qubits:
        mixed = _map_qubit_block(mixed, q, n, _half_trace_times_identity)
    return (1.0 - p) * mat + p * mixed.reshape(mat.shape)


def _amplitude_damp(mat: np.ndarray, qubit: int, gamma: float, n: int) -> np.ndarray:
    """K0 rho K0^dag + K1 rho K1^dag with K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|."""
    if gamma == 0.0:
        return mat
    k0 = np.array([1.0, np.sqrt(1 - gamma)])
    k1 = np.sqrt(gamma)

    def damp(block: np.ndarray) -> np.ndarray:
        # Same multiplication order as K rho K^dag, so the Kraus sum is matched bit for bit.
        out = block * k0[:, None] * k0
        out[..., 0, 0] += block[..., 1, 1] * k1 * k1
        return out

    return _map_qubit_block(mat.reshape((2,) * (2 * n)), qubit, n, damp).reshape(mat.shape)


def _evolve_mat(mat: np.ndarray, c: Circuit, noise: NoiseModel | None) -> np.ndarray:
    n = c.n_qubits
    for op in c.ops:
        u = expanded_gate_matrix(op, n)
        mat = u @ mat @ u.conj().T
        if noise is not None:
            if op.name in TWO_QUBIT_GATES:
                mat = _depolarize(mat, op.qubits, noise.depolarizing_2q, n)
            else:
                mat = _depolarize(mat, op.qubits, noise.depolarizing_1q, n)
                mat = _amplitude_damp(mat, op.qubits[0], noise.amplitude_damping, n)
    return mat


def evolve(state: DensityMatrix, c: Circuit, noise: NoiseModel | None = None) -> DensityMatrix:
    """Run the state through the circuit, gate by gate, with optional noise."""
    if state.n_qubits != c.n_qubits:
        raise qmath.DimensionError(
            f"evolve: state on {state.n_qubits} qubit(s) vs circuit on {c.n_qubits}"
        )
    return DensityMatrix(c.n_qubits, _evolve_mat(state.mat, c, noise))


def _diagonal_probs(mat: np.ndarray) -> np.ndarray:
    probs = np.diag(mat).real.copy()
    low = float(probs.min())
    if low < -1e-9:
        raise NumericError(f"negative outcome probability {low:.3e}")
    probs[probs < 0.0] = 0.0
    return probs / probs.sum()


def exact_distribution(state: DensityMatrix) -> OutcomeDistribution:
    """Infinite-shot oracle: the computational-basis diagonal of the state."""
    return OutcomeDistribution(state.n_qubits, _diagonal_probs(state.mat))


# Gates rotating each Pauli basis onto the computational (Z) basis.
_PAULI_ROTATIONS = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}


def pauli_distributions(
    state: DensityMatrix, noise: NoiseModel | None = None
) -> list[OutcomeDistribution]:
    """Outcome distributions of all 3^n product Pauli-basis measurements.

    Entry k measures qubit q in basis "XYZ"[(k // 3^q) % 3], so qubit 0's
    letter varies fastest.  The rotations (with gate noise when a noise
    model is given) are applied one qubit at a time, and settings that agree
    on qubits 0..q-1 share those rotated matrices.
    """
    n = state.n_qubits
    mats = [state.mat]
    for q in range(n):
        rotations = {
            name: Circuit(n, tuple(GateOp(g, (q,)) for g in gates))
            for name, gates in _PAULI_ROTATIONS.items()
        }
        mats = [_evolve_mat(mat, rotations[name], noise) for name in "XYZ" for mat in mats]
    return [OutcomeDistribution(n, _diagonal_probs(mat)) for mat in mats]


def _readout_mask_probs(n_qubits: int, p: float) -> np.ndarray:
    """Probability of each n-bit flip pattern under independent bit flips."""
    per_bit = np.array([1.0 - p, p])
    probs = np.array([1.0])
    for _ in range(n_qubits):
        probs = np.kron(per_bit, probs)
    return probs


def sample(
    dist: OutcomeDistribution, shots: int, seed: int, noise: NoiseModel | None = None
) -> Counts:
    """Draw seeded measurement counts from an outcome distribution.

    Readout bit flips of the noise model then act independently per qubit
    per shot.  Counts are aggregated with multinomial draws, which is
    distribution-identical to per-shot sampling.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n = dist.n_qubits
    rng = np.random.default_rng(np.uint64(seed))
    raw = rng.multinomial(shots, dist.probs)

    if noise is not None and noise.readout_flip > 0.0:
        # split[j, mask] shots of outcome j read as j ^ mask; a zero count
        # draws nothing, so the stream matches one draw per observed outcome.
        split = rng.multinomial(raw, _readout_mask_probs(n, noise.readout_flip))
        index = np.arange(raw.size)
        raw = split[index[:, None] ^ index, index].sum(axis=1)

    tallies = {int(i): int(v) for i, v in enumerate(raw) if v}
    return Counts(n_qubits=n, tallies=tallies, shots=shots)
