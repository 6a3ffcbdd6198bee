"""Embedded density-matrix simulator with optional parametric noise.

:func:`evolve`, :func:`exact_distribution`, :func:`pauli_distributions` and
:func:`sample` are the one execution seam the protocols call; the noise model
is passed per call.  Distributions and counts in the seam are plain arrays;
only :func:`exact_distribution`, an oracle users also pass as an expected
value, returns a validated OutcomeDistribution.

One gate kernel evolves a stack of density matrices of shape
``(..., 2^n, 2^n)`` and never forms a 2^n x 2^n operator: a one-qubit gate's
2x2 unitary multiplies the qubit's row bit of every matrix, once before and
once after a transpose; ``cx`` and ``swap`` gather rows and columns and ``cz``
flips signs, both exactly; the noise channels act on the blocks of the
gate's qubits, counting qubit axes from the end, and a one-qubit gate's
depolarizing and damping noise is one pass (:func:`_noise_one_qubit`).
:func:`evolve` and :func:`pauli_distributions` accept a ``(B, 2^n, 2^n)``
stack as well as a DensityMatrix, which is the B = 1 case of the same code.
A stack stays raw: it is validated where it enters as a DensityMatrix, not
after every gate.  Process tomography evolves all of its preparations so,
and ``proj`` its validated ground state.

Noise is gate-attached: after every gate a depolarizing channel acts on that
gate's qubits, and amplitude damping additionally acts on single-qubit gate
targets.  Readout bit flips, independent per bit, are folded into outcome
probabilities (:func:`apply_readout`, and the Pauli-basis POVM of
:func:`pauli_povm`, whose basis rotations are noisy gates too).

Sampling is reproducible: :func:`sample` draws all of an assertion's counts
from one generator built from its seed, and :func:`derive_seed` derives
those seeds, so results do not depend on execution order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import numbers
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


def _is_unit_real(value) -> bool:
    """True iff ``value`` is a real number, not a bool, in [0, 1]."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and 0.0 <= value <= 1.0


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a real number (not a bool) in [0, 1]."""
    if not _is_unit_real(threshold):
        raise ValueError(f"threshold must be a real number in [0, 1], got {threshold!r}")


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
            if not _is_unit_real(value):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


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


def _bit_block(n: int, qubit: int, row: int, col: int) -> tuple:
    """Index of the (..., 2,)*2n bit view of a (..., 2^n, 2^n) stack that keeps
    row bit ``row`` and column bit ``col`` of ``qubit`` (as length-1 axes).

    The last 2n axes are the matrix's row then column bits, most significant
    first: qubit q owns row axis -n-1-q and column axis -1-q."""
    index = [slice(None)] * (2 * n)
    index[n - 1 - qubit] = slice(row, row + 1)
    index[2 * n - 1 - qubit] = slice(col, col + 1)
    return (Ellipsis, *index)


def _depolarize(mats: np.ndarray, qubits: tuple[int, ...], p: float, n: int) -> np.ndarray:
    """(1 - p) * rho + p * (I/2^k (x) Tr_qubits rho) on the given k qubits (a
    two-qubit gate's noise; one-qubit gates use :func:`_noise_one_qubit`).

    Half-traces one qubit at a time and adds p times the result to the
    blocks where every traced qubit's row and column bits agree."""
    if p == 0.0:
        return mats
    bits = mats.reshape(mats.shape[:-2] + (2,) * (2 * n))
    traced = bits
    for q in qubits:
        traced = (traced[_bit_block(n, q, 0, 0)] + traced[_bit_block(n, q, 1, 1)]) / 2.0
    mixed = p * traced
    out = (1.0 - p) * bits
    for diagonal in itertools.product((0, 1), repeat=len(qubits)):
        block = out
        for q, bit in zip(qubits, diagonal):
            block = block[_bit_block(n, q, bit, bit)]
        block += mixed
    return out.reshape(mats.shape)


def _noise_one_qubit(mats: np.ndarray, qubit: int, noise: NoiseModel, n: int) -> np.ndarray:
    """A one-qubit gate's noise on ``qubit``, in one pass: depolarizing, then
    amplitude damping with K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma)|0><1|.

    Works on the (..., 2^(n-1-q), 2, 2^(n-1), 2, 2^q) view whose axes -4 and -2
    are the qubit's row and column bits, with the float operations, in their
    order, of :func:`_depolarize` followed by K0 rho K0^dag + K1 rho K1^dag."""
    p, gamma = noise.depolarizing_1q, noise.amplitude_damping
    if p == 0.0 and gamma == 0.0:
        return mats
    view = mats.reshape(mats.shape[:-2] + (2 ** (n - 1 - qubit), 2, 2 ** (n - 1), 2, 2**qubit))
    # (1.0 - p) * x would turn some signed zeros, so p == 0 copies instead.
    out = (1.0 - p) * view if p else view.copy()
    d00, d11 = out[..., 0, :, 0, :], out[..., 1, :, 1, :]
    if p:
        mixed = p * ((view[..., 0, :, 0, :] + view[..., 1, :, 1, :]) / 2.0)
        d00 += mixed
        d11 += mixed
    if gamma:
        k0 = np.sqrt(1 - gamma)
        k1 = np.sqrt(gamma)
        d00 += d11 * k1 * k1
        out[..., 1, :, :, :] *= k0  # row bit 1: rho_10, and rho_11 (then rho_11 * k0 * k0)
        out[..., :, :, 1, :] *= k0  # column bit 1: rho_01, and rho_11 again
    return out.reshape(mats.shape)


def _conjugate_one_qubit(mats: np.ndarray, u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """u rho u^dag on ``qubit`` of every matrix, as (conj(u) (u rho)^T)^T.

    u multiplies ``qubit``'s row bit of the contiguous (..., L, 2, R * 2^n)
    view, so no 2^n x 2^n operator is formed."""
    shape = mats.shape
    rows = shape[:-2] + (2 ** (n - 1 - qubit), 2, 2**qubit * shape[-1])
    for factor in (u, u.conj()):
        mats = np.matmul(factor, mats.reshape(rows)).reshape(shape).swapaxes(-1, -2)
    return mats


def _conjugate_two_qubit(
    mats: np.ndarray, u: np.ndarray, qubits: tuple[int, ...], n: int
) -> np.ndarray:
    """u rho u^dag for a real signed-permutation 4x4 u (cx, cz, swap) on ``qubits``.

    Row i of u (x) I has its one nonzero, sign[i], in column source[i], so the
    result is sign[i] sign[j] rho[source[i], source[j]]: an exact gather and an
    exact sign flip."""
    a, b = qubits
    index = np.arange(2**n)
    local = ((index >> a) & 1) | (((index >> b) & 1) << 1)  # u's basis index of i
    target = np.argmax(u != 0, axis=1)[local]
    moved = local ^ target
    source = index ^ ((moved & 1) << a) ^ ((moved >> 1) << b)
    sign = u[local, target].real
    if (source != index).any():
        flat = (source[:, None] * index.size + source).reshape(-1)
        mats = np.take(mats.reshape(mats.shape[:-2] + (-1,)), flat, axis=-1).reshape(mats.shape)
    if (sign != 1.0).any():
        mats = mats * (sign[:, None] * sign)
    return mats


def _evolve_mat(mats: np.ndarray, c: Circuit, noise: NoiseModel | None) -> np.ndarray:
    """Run every matrix of a (..., 2^n, 2^n) stack through the circuit.

    Each gate takes its 2x2 or 4x4 unitary from the gate table on a register
    of its own size and acts, with its noise, on its qubits' axes alone."""
    n = c.n_qubits
    for op in c.ops:
        k = len(op.qubits)
        u = expanded_gate_matrix(GateOp(op.name, tuple(range(k)), op.angle), k)
        if op.name in TWO_QUBIT_GATES:
            mats = _conjugate_two_qubit(mats, u, op.qubits, n)
            if noise is not None:
                mats = _depolarize(mats, op.qubits, noise.depolarizing_2q, n)
        else:
            mats = _conjugate_one_qubit(mats, u, op.qubits[0], n)
            if noise is not None:
                mats = _noise_one_qubit(mats, op.qubits[0], noise, n)
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


# Probabilities below this are rounding residue, zeroed: numpy's binomial draws
# no random number for p == 0 but does for any p > 0, so otherwise the order of
# a sum, which decides what rounds to exactly zero, would steer a seed's draws.
PROBABILITY_FLOOR = 1e-15


def _normalized(probs: np.ndarray) -> np.ndarray:
    """(..., 2^n) probabilities with sub-floor entries zeroed and each row rescaled to sum 1."""
    low = float(probs.min())
    if low < -1e-9:
        raise NumericError(f"negative outcome probability {low:.3e}")
    probs[probs < PROBABILITY_FLOOR] = 0.0
    return probs / probs.sum(axis=-1, keepdims=True)


def _diagonal_probs(mats: np.ndarray) -> np.ndarray:
    """Normalized computational-basis diagonals of a (..., 2^n, 2^n) stack."""
    return _normalized(np.diagonal(mats, axis1=-2, axis2=-1).real.copy())


def exact_distribution(state: DensityMatrix) -> OutcomeDistribution:
    """Infinite-shot oracle: the computational-basis diagonal of the state."""
    return OutcomeDistribution(state.n_qubits, _diagonal_probs(state.mat))


def apply_readout(probs: np.ndarray, noise: NoiseModel | None) -> np.ndarray:
    """(..., 2^n) outcome probabilities as read out: each bit flips independently
    with ``readout_flip`` (the tensor-product readout model), which is
    distribution-identical to flipping the bits of every drawn shot."""
    if noise is None or noise.readout_flip == 0.0:
        return probs
    p, n = noise.readout_flip, probs.shape[-1].bit_length() - 1
    grid = probs.reshape(probs.shape[:-1] + (2,) * n)
    for axis in range(-n, 0):
        grid = (1.0 - p) * grid + p * np.flip(grid, axis=axis)
    return grid.reshape(probs.shape)


# One-qubit circuits rotating the X, Y and Z bases onto the computational basis.
_PAULI_ROTATIONS = [Circuit(1, tuple(GateOp(g, (0,)) for g in gates))
                    for gates in (("h",), ("sdg", "h"), ())]


@functools.lru_cache(maxsize=64)
def pauli_povm(noise: NoiseModel | None) -> np.ndarray:
    """E[letter, o], read-only, shape (3, 2, 2, 2): a qubit in state rho reads bit o
    in basis "XYZ"[letter] with probability tr(rho E[letter, o]), noisy basis
    rotation and readout flips included.  Built once per noise model by
    running the four matrix units |i><j| through each rotation."""
    units = np.eye(4, dtype=np.complex128).reshape(4, 2, 2)  # unit 2i + j is |i><j|
    reads = apply_readout(np.array([np.diagonal(_evolve_mat(units, rotation, noise), 0, 1, 2)
                                    for rotation in _PAULI_ROTATIONS]), noise)
    # reads[letter, 2i + j, o] = tr(|i><j| E[letter, o]) = E[letter, o][j, i]
    povm = reads.transpose(0, 2, 1).reshape(3, 2, 2, 2).swapaxes(-1, -2)
    povm.flags.writeable = False
    return povm


def pauli_distributions(
    state: DensityMatrix | np.ndarray, noise: NoiseModel | None = None
) -> np.ndarray:
    """Outcome probabilities of all 3^n product Pauli-basis measurements, as read out.

    Row k measures qubit q in basis "XYZ"[(k // 3^q) % 3], so qubit 0's
    letter varies fastest; column o is the little-endian outcome index.  A
    DensityMatrix gives a (3^n, 2^n) array; a (B, 2^n, 2^n) stack gives a
    (B, 3^n, 2^n) one.  Rotations, noise and readout flips act per qubit, so
    setting k reads o with probability tr(rho (x)_q E[k_q, o_q]) for the POVM
    E of :func:`pauli_povm`: the n-fold tensor power of the map
    rho -> tr(rho E[letter, o]), applied by :func:`quassert.qmath.kron_map`.
    """
    mats, n = _stack_of(state)
    probs = _normalized(qmath.kron_map(pauli_povm(noise).swapaxes(-1, -2), mats, n).real)
    return probs[0] if isinstance(state, DensityMatrix) else probs


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """int64 counts of ``shots`` draws from each row of (..., 2^n) probabilities.

    One generator built from ``seed`` draws every row in one multinomial
    call, which is distribution-identical to per-shot sampling.
    """
    shots = check_shots(shots)
    seed = check_seed(seed)
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[-1].bit_length() - 1 if probs.ndim else 0
    if n < 1 or probs.shape[-1] != 2**n:
        raise qmath.DimensionError(f"sample needs rows of 2^n probabilities, got {probs.shape}")
    # numpy rejects negative and NaN entries but draws an excess sum's remainder
    # into the last bin, so every row's sum is checked here.
    off = float(np.max(np.abs(probs.sum(axis=-1) - 1.0)))
    if off > 1e-9:
        raise ValueError(f"probabilities must sum to 1, a row is off by {off:.3g}")
    return np.random.default_rng(np.uint64(seed)).multinomial(shots, probs)
