"""Embedded density-matrix simulator with optional parametric noise.

:func:`evolve`, :func:`exact_distribution`, :func:`pauli_distributions` and
:func:`sample` are the one execution seam the protocols call; the noise model
is passed per call.  :func:`pauli_distributions` alone holds the Pauli
basis-rotation convention.  Distributions and counts in the seam are plain
arrays; only :func:`exact_distribution`, an oracle users also pass as an
expected value, returns a validated OutcomeDistribution.

One gate kernel evolves a stack of density matrices of shape
``(..., 2^n, 2^n)``: the expanded gate conjugates every matrix at once
(``u @ mats @ u^dag`` broadcasts) and the noise channels count qubit axes
from the end.  :func:`evolve` and :func:`pauli_distributions` accept a
``(B, 2^n, 2^n)`` stack as well as a DensityMatrix, which is the B = 1 case
of the same code; process tomography evolves all of its preparations so.

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
from dataclasses import dataclass

import numpy as np

from quassert import qmath
from quassert.qcore import (
    Circuit,
    DensityMatrix,
    GateOp,
    OutcomeDistribution,
    TWO_QUBIT_GATES,
    _as_int,
    expanded_gate_matrix,
)
from quassert.qmath import NumericError

MAX_SHOTS = 2**63 - 1  # numpy draws counts as int64


def check_shots(shots: int, name: str = "shots") -> int:
    """``shots`` as an int; ValueError unless it is a shot count the sampler can draw."""
    shots = _as_int(shots, name)
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"{name} must be in [1, 2**63 - 1], got {shots}")
    return shots


def check_seed(seed: int) -> int:
    """``seed`` as an int; ValueError unless it can seed a generator: [0, 2**64)."""
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


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


def derive_seed(*parts: object) -> int:
    """Stable 64-bit stream seed from labeled parts; numpy integers hash as ints."""
    payload = "\x1f".join(repr(int(p) if isinstance(p, np.integer) else p) for p in parts)
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:8], "little")


def _map_qubit_block(tensor: np.ndarray, qubit: int, n: int, fn) -> np.ndarray:
    """Apply ``fn`` to ``qubit``'s 2x2 block of a (..., 2,)*2n reshaped stack.

    The last 2n axes are the matrix's row then column bits; qubit q owns row
    axis -n-1-q and column axis -1-q.  ``fn`` sees them as the last two axes.
    """
    axes = (-n - 1 - qubit, -1 - qubit)
    return np.moveaxis(fn(np.moveaxis(tensor, axes, (-2, -1))), (-2, -1), axes)


def _qubit_view(mats: np.ndarray, n: int) -> np.ndarray:
    return mats.reshape(mats.shape[:-2] + (2,) * (2 * n))


def _half_trace_times_identity(block: np.ndarray) -> np.ndarray:
    half_trace = np.trace(block, axis1=-2, axis2=-1) / 2.0
    return half_trace[..., None, None] * np.eye(2)


def _depolarize(mats: np.ndarray, qubits: tuple[int, ...], p: float, n: int) -> np.ndarray:
    """(1 - p) * rho + p * (I/2^k (x) Tr_qubits rho) on the given k qubits."""
    if p == 0.0:
        return mats
    mixed = _qubit_view(mats, n)
    for q in qubits:
        mixed = _map_qubit_block(mixed, q, n, _half_trace_times_identity)
    return (1.0 - p) * mats + p * mixed.reshape(mats.shape)


def _amplitude_damp(mats: np.ndarray, qubit: int, gamma: float, n: int) -> np.ndarray:
    """K0 rho K0^dag + K1 rho K1^dag with K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|."""
    if gamma == 0.0:
        return mats
    k0 = np.array([1.0, np.sqrt(1 - gamma)])
    k1 = np.sqrt(gamma)

    def damp(block: np.ndarray) -> np.ndarray:
        # Same multiplication order as K rho K^dag, so the Kraus sum is matched bit for bit.
        out = block * k0[:, None] * k0
        out[..., 0, 0] += block[..., 1, 1] * k1 * k1
        return out

    return _map_qubit_block(_qubit_view(mats, n), qubit, n, damp).reshape(mats.shape)


def _evolve_mat(mats: np.ndarray, c: Circuit, noise: NoiseModel | None) -> np.ndarray:
    """Run every matrix of a (..., 2^n, 2^n) stack through the circuit."""
    n = c.n_qubits
    for op in c.ops:
        u = expanded_gate_matrix(op, n)
        mats = u @ mats @ u.conj().T
        if noise is not None:
            if op.name in TWO_QUBIT_GATES:
                mats = _depolarize(mats, op.qubits, noise.depolarizing_2q, n)
            else:
                mats = _depolarize(mats, op.qubits, noise.depolarizing_1q, n)
                mats = _amplitude_damp(mats, op.qubits[0], noise.amplitude_damping, n)
    return mats


def _stack_of(state: DensityMatrix | np.ndarray) -> tuple[np.ndarray, int]:
    """The (B, 2^n, 2^n) stack behind a state and its n; a DensityMatrix is B = 1."""
    if isinstance(state, DensityMatrix):
        return state.mat[None], state.n_qubits
    n = state.shape[-1].bit_length() - 1
    if n < 1 or state.ndim != 3 or state.shape[1:] != (2**n, 2**n):
        raise qmath.DimensionError(f"expected a (B, 2^n, 2^n) stack, got shape {state.shape}")
    return state, n


def evolve(
    state: DensityMatrix | np.ndarray, c: Circuit, noise: NoiseModel | None = None
) -> DensityMatrix | np.ndarray:
    """Run the state through the circuit, gate by gate, with optional noise.

    ``state`` is a DensityMatrix or a (B, 2^n, 2^n) stack of density
    matrices.  A stack is evolved as a whole and returned as a raw stack:
    unlike a DensityMatrix result it is neither validated nor symmetrized.
    """
    mats, n = _stack_of(state)
    if n != c.n_qubits:
        raise qmath.DimensionError(f"evolve: state on {n} qubit(s) vs circuit on {c.n_qubits}")
    mats = _evolve_mat(mats, c, noise)
    return DensityMatrix(n, mats[0]) if isinstance(state, DensityMatrix) else mats


def _diagonal_probs(mats: np.ndarray) -> np.ndarray:
    """Normalized computational-basis diagonals of a (..., 2^n, 2^n) stack."""
    probs = np.diagonal(mats, axis1=-2, axis2=-1).real.copy()
    low = float(probs.min())
    if low < -1e-9:
        raise NumericError(f"negative outcome probability {low:.3e}")
    probs[probs < 0.0] = 0.0
    return probs / probs.sum(axis=-1, keepdims=True)


def exact_distribution(state: DensityMatrix) -> OutcomeDistribution:
    """Infinite-shot oracle: the computational-basis diagonal of the state."""
    return OutcomeDistribution(state.n_qubits, _diagonal_probs(state.mat))


# Gates rotating each Pauli basis onto the computational (Z) basis.
_PAULI_ROTATIONS = {"X": ("h",), "Y": ("sdg", "h"), "Z": ()}


def pauli_distributions(
    state: DensityMatrix | np.ndarray, noise: NoiseModel | None = None
) -> np.ndarray:
    """Outcome probabilities of all 3^n product Pauli-basis measurements.

    Row k measures qubit q in basis "XYZ"[(k // 3^q) % 3], so qubit 0's
    letter varies fastest; column o is the little-endian outcome index.  A
    DensityMatrix gives a (3^n, 2^n) array; a (B, 2^n, 2^n) stack gives a
    (B, 3^n, 2^n) one.  The whole stack of settings is rotated one qubit at a
    time (with gate noise when a noise model is given): settings that agree
    on qubits 0..q-1 share those rotated matrices, so the rotations cost 3n
    gate expansions in all.
    """
    mats, n = _stack_of(state)
    mats = mats[None]  # (settings, B, 2^n, 2^n)
    for q in range(n):
        rotations = [Circuit(n, tuple(GateOp(g, (q,)) for g in _PAULI_ROTATIONS[name]))
                     for name in "XYZ"]
        mats = np.concatenate([_evolve_mat(mats, rotation, noise) for rotation in rotations])
    probs = _diagonal_probs(mats.swapaxes(0, 1))
    return probs[0] if isinstance(state, DensityMatrix) else probs


def _readout_mask_probs(n_qubits: int, p: float) -> np.ndarray:
    """Probability of each n-bit flip pattern under independent bit flips."""
    probs = np.array([1.0])
    for _ in range(n_qubits):
        probs = np.concatenate([(1.0 - p) * probs, p * probs])
    return probs


def sample(
    probs: np.ndarray, shots: int, seed: int, noise: NoiseModel | None = None
) -> np.ndarray:
    """Draw seeded measurement counts from a probability vector over 2^n outcomes.

    Returns the int64 count of each little-endian outcome index; the counts
    sum to ``shots``.  Readout bit flips of the noise model then act
    independently per qubit per shot.  Counts are aggregated with multinomial
    draws, which is distribution-identical to per-shot sampling.
    """
    shots = check_shots(shots)
    seed = check_seed(seed)
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.size.bit_length() - 1
    if probs.ndim != 1 or n < 1 or probs.size != 2**n:
        raise qmath.DimensionError(f"sample needs 2^n probabilities, got shape {probs.shape}")
    # numpy rejects negative and NaN entries but draws an excess sum's remainder
    # into the last bin, so the sum is checked here.
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total:.12g}")
    rng = np.random.default_rng(np.uint64(seed))
    counts = rng.multinomial(shots, probs)

    if noise is not None and noise.readout_flip > 0.0:
        # split[j, mask] shots of outcome j read as j ^ mask; a zero count
        # draws nothing, so the stream matches one draw per observed outcome.
        split = rng.multinomial(counts, _readout_mask_probs(n, noise.readout_flip))
        index = np.arange(counts.size)
        counts = split[index[:, None] ^ index, index].sum(axis=1)
    return counts
