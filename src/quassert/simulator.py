"""Embedded density-matrix backend with optional parametric noise.

Noise is gate-attached: after every gate a depolarizing channel acts on that
gate's qubits, and amplitude damping additionally acts on single-qubit gate
targets.  Readout bit flips are applied at measurement time only.

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
    embed_single_qubit,
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

    def is_trivial(self) -> bool:
        return (
            self.depolarizing_1q == 0.0
            and self.depolarizing_2q == 0.0
            and self.amplitude_damping == 0.0
            and self.readout_flip == 0.0
        )


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
        for k, v in self.tallies.items():
            vec[k] = v
        return vec

    def frequencies(self) -> np.ndarray:
        return self.as_vector() / self.shots

    def marginal(self, keep: tuple[int, ...] | list[int]) -> Counts:
        """Counts over a subset of qubits; measurement is always full-register."""
        keep = sorted(set(keep))
        for q in keep:
            if not 0 <= q < self.n_qubits:
                raise IndexError(f"qubit index {q} out of range for {self.n_qubits} qubits")
        tallies: dict[int, int] = {}
        for outcome, count in self.tallies.items():
            reduced = sum(((outcome >> q) & 1) << j for j, q in enumerate(keep))
            tallies[reduced] = tallies.get(reduced, 0) + count
        return Counts(n_qubits=len(keep), tallies=tallies, shots=self.shots)


def derive_seed(*parts: object) -> int:
    """Stable 64-bit stream seed from labeled parts; numpy integers hash as ints."""
    payload = "\x1f".join(repr(int(p) if isinstance(p, np.integer) else p) for p in parts)
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:8], "little")


def _apply_kraus(mat: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(mat)
    for k in kraus:
        out += k @ mat @ k.conj().T
    return out


def _depolarize(mat: np.ndarray, qubits: tuple[int, ...], p: float, n: int) -> np.ndarray:
    """(1 - p) * rho + p * (I/2^k (x) Tr_qubits rho) on the given k qubits."""
    if p == 0.0:
        return mat
    # Qubit q owns row axis n-1-q and column axis 2n-1-q of the reshaped
    # matrix; each listed qubit's 2x2 block becomes half its trace times I.
    mixed = mat.reshape((2,) * (2 * n))
    for q in qubits:
        axes = (n - 1 - q, 2 * n - 1 - q)
        block = np.moveaxis(mixed, axes, (-2, -1))
        half_trace = np.trace(block, axis1=-2, axis2=-1) / 2.0
        mixed = np.moveaxis(half_trace[..., None, None] * np.eye(2), (-2, -1), axes)
    return (1.0 - p) * mat + p * mixed.reshape(mat.shape)


def _amplitude_damp(mat: np.ndarray, qubit: int, gamma: float, n: int) -> np.ndarray:
    if gamma == 0.0:
        return mat
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    return _apply_kraus(mat, [embed_single_qubit(k0, qubit, n), embed_single_qubit(k1, qubit, n)])


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


def exact_distribution(
    state: DensityMatrix, premeasure: Circuit | None = None
) -> OutcomeDistribution:
    """Infinite-shot oracle: diagonal of the (rotated) density matrix."""
    mat = state.mat
    if premeasure is not None and premeasure.ops:
        mat = _evolve_mat(mat, premeasure, None)
    return OutcomeDistribution(state.n_qubits, _diagonal_probs(mat))


def _readout_mask_probs(n_qubits: int, p: float) -> np.ndarray:
    """Probability of each n-bit flip pattern under independent bit flips."""
    per_bit = np.array([1.0 - p, p])
    probs = np.array([1.0])
    for _ in range(n_qubits):
        probs = np.kron(per_bit, probs)
    return probs


def sample(
    state: DensityMatrix,
    premeasure: Circuit | None,
    shots: int,
    seed: int,
    noise: NoiseModel | None = None,
) -> Counts:
    """Draw seeded measurement counts in the computational basis.

    The optional premeasure circuit is applied first (with gate noise when a
    noise model is given); readout bit flips then act independently per qubit
    per shot.  Counts are aggregated with multinomial draws, which is
    distribution-identical to per-shot sampling.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    n = state.n_qubits
    mat = state.mat
    if premeasure is not None and premeasure.ops:
        mat = _evolve_mat(mat, premeasure, noise)
    probs = _diagonal_probs(mat)

    rng = np.random.default_rng(np.uint64(seed))
    raw = rng.multinomial(shots, probs)

    if noise is not None and noise.readout_flip > 0.0:
        mask_probs = _readout_mask_probs(n, noise.readout_flip)
        flipped = np.zeros_like(raw)
        for outcome in range(raw.size):
            count = int(raw[outcome])
            if count == 0:
                continue
            split = rng.multinomial(count, mask_probs)
            for mask, c in enumerate(split):
                if c:
                    flipped[outcome ^ mask] += c
        raw = flipped

    tallies = {int(i): int(v) for i, v in enumerate(raw) if v}
    return Counts(n_qubits=n, tallies=tallies, shots=shots)


@dataclass(frozen=True)
class DensityMatrixSimulator:
    """Backend seam: the embedded simulator plus its noise configuration.

    Other backends (hardware adapters, alternative simulators) can stand in
    anywhere this object is used by providing the same three methods.
    """

    noise: NoiseModel | None = None

    def evolve(self, state: DensityMatrix, c: Circuit) -> DensityMatrix:
        return evolve(state, c, self.noise)

    def sample(
        self, state: DensityMatrix, premeasure: Circuit | None, shots: int, seed: int
    ) -> Counts:
        return sample(state, premeasure, shots, seed, self.noise)

    def exact_distribution(
        self, state: DensityMatrix, premeasure: Circuit | None = None
    ) -> OutcomeDistribution:
        return exact_distribution(state, premeasure)
