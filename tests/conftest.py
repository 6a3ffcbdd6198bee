"""Shared builders for randomized test inputs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quassert import qmath
from quassert.cli import _build, _decode_gate, _expect, _numbers
from quassert.qcore import Circuit, GateOp, expanded_gate_matrix, gate
from quassert.simulator import PROBABILITY_FLOOR, _evolve_mat, _gate_superop

GATE_POOL_1Q = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
GATE_POOL_ROT = ("rx", "ry", "rz")
GATE_POOL_2Q = ("cx", "cz", "swap")
# The product-POVM probabilities and the rotate-each-setting reference
# (per_setting_pauli_probs) sum the same terms in different orders; they
# agree to a few ulps.
POVM_TOL = 1e-15
# The channel kernel (a gate and its noise as one superoperator, applied by one
# matmul) and the dense references (dense_conjugation, then reference_depolarize
# and reference_amplitude_damp) add the same products in different orders; they
# agree to a few ulps.  Noiseless two-qubit gates must match exactly.
KERNEL_TOL = 1e-15


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


def random_density(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    mat = random_psd(rng, 2**n_qubits)
    return mat / np.trace(mat).real


def count_lapack_solves(monkeypatch) -> list:
    """Shapes passed to ``numpy.linalg.eigh`` while the patch lasts."""
    solved, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.shape) or eigh(a))
    return solved


def reference_number_array(value, where: str, depth: int) -> np.ndarray:
    """A numeric document value read entry by entry: the located walk
    ``cli._numbers``, then ``np.asarray``.  Kept as the bit-exact reference for
    ``cli._number_array``, which walks only a value that it rejects."""
    _numbers(value, where, depth)
    return np.asarray(value, dtype=np.float64)


def reference_circuit(items, n_qubits: int, where: str) -> Circuit:
    """A circuit document value read gate by gate: the located walk
    ``cli._decode_gate`` on every item, then ``Circuit``.  Kept as the
    reference for ``cli._decode_circuit``, which walks only an item that its
    one-pass read refuses."""
    ops = tuple(_decode_gate(item, f"{where}[{i}]")
                for i, item in enumerate(_expect(items, where, list)))
    return _build(where, Circuit, n_qubits, ops)


def reference_psd_project(a: np.ndarray, target_trace: float) -> np.ndarray:
    """One-matrix PSD projection by the explicit truncation loop, kept as the
    bit-exact reference for the stacked ``qmath.psd_project``."""
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    values = values[::-1].copy()  # descending
    vectors = vectors[:, ::-1]
    deficit = 0.0
    i = values.size
    while i > 0 and values[i - 1] + deficit / i < 0.0:
        deficit += values[i - 1]
        values[i - 1] = 0.0
        i -= 1
    assert i > 0, "no positive spectral weight remains"
    values[:i] += deficit / i
    values *= target_trace / float(values.sum())
    out = (vectors * values) @ vectors.conj().T
    return (out + out.conj().T) / 2.0


def dense_conjugation(mats: np.ndarray, op: GateOp, n_qubits: int) -> np.ndarray:
    """Reference gate application: U rho U^dag with the full 2^n x 2^n U."""
    u = expanded_gate_matrix(op, n_qubits)
    return u @ mats @ u.conj().T


def reference_apply_channel(mats, superop, qubits, n):
    """The gate-by-gate channel kernel: a 4^k x 4^k superoperator on the k
    ``qubits`` of every matrix of a (..., 2^n, 2^n) stack, starting and ending in
    the plain axis order.  The stack is viewed as (B,) + (2,) * 2n (qubit q's
    row bit at axis n - q, its column bit at 2n - q); one transpose puts the
    gate's row bits and then column bits, ``qubits[0]`` last in each, in front
    of the other axes in their plain order, one (4^k, 4^k) @ (B, 4^k, M)
    matmul applies the superoperator, and the inverse transpose restores the
    order."""
    front = [half + n - q for half in (0, n) for q in reversed(qubits)]
    order = [0] + front + [axis for axis in range(1, 2 * n + 1) if axis not in front]
    view = mats.reshape((-1,) + (2,) * (2 * n)).transpose(order)
    out = superop @ view.reshape(view.shape[0], superop.shape[1], -1)
    return out.reshape(view.shape).transpose(np.argsort(order)).reshape(mats.shape)


def reference_evolve_mat(mats, c, noise):
    """The bit-exact reference for ``simulator._evolve_mat``, which carries
    each gate's axis order on to the next gate: every gate by
    :func:`reference_apply_channel`."""
    for op in c.ops:
        mats = reference_apply_channel(mats, _gate_superop(op, noise), op.qubits, c.n_qubits)
    return mats


def _map_qubit_block(tensor, qubit, n, fn):
    """Apply ``fn`` to ``qubit``'s 2x2 block of a (..., 2,)*2n reshaped stack,
    moved to the last two axes and back (qubit q owns row axis -n-1-q and
    column axis -1-q)."""
    axes = (-n - 1 - qubit, -1 - qubit)
    return np.moveaxis(fn(np.moveaxis(tensor, axes, (-2, -1))), (-2, -1), axes)


def _half_trace_times_identity(block):
    half_trace = np.trace(block, axis1=-2, axis2=-1) / 2.0
    return np.where(np.eye(2, dtype=bool), half_trace[..., None, None], 0.0)


def _keep_diagonal(block):
    return block & np.eye(2, dtype=bool)


def reference_depolarize(mats, qubits, p, n):
    """The depolarizing channel by moving each qubit's block to the last two
    axes, the reference for the depolarizing part of a noisy gate's
    superoperator (``simulator._noise_superop``), to ``KERNEL_TOL``.

    The mixed part is added only where every qubit's row and column bits agree."""
    if p == 0.0:
        return mats
    mixed = mats.reshape(mats.shape[:-2] + (2,) * (2 * n))
    on_diagonal = np.ones(mixed.shape, dtype=bool)
    for q in qubits:
        mixed = _map_qubit_block(mixed, q, n, _half_trace_times_identity)
        on_diagonal = _map_qubit_block(on_diagonal, q, n, _keep_diagonal)
    out = (1.0 - p) * mats
    np.add(out, p * mixed.reshape(mats.shape), out=out, where=on_diagonal.reshape(mats.shape))
    return out


def reference_amplitude_damp(mats, qubit, gamma, n):
    """Amplitude damping by moving the qubit's block to the last two axes, the
    reference for the damping part of a one-qubit gate's superoperator
    (``simulator._noise_superop``), to ``KERNEL_TOL``: K0 rho K0^dag scales
    row 1 and column 1 by sqrt(1 - gamma), and K1 rho K1^dag adds
    gamma rho[1, 1] to rho[0, 0]."""
    if gamma == 0.0:
        return mats
    k0 = np.sqrt(1 - gamma)
    k1 = np.sqrt(gamma)

    def damp(block):
        out = block.copy()
        out[..., 0, 0] += block[..., 1, 1] * k1 * k1
        out[..., 1, :] *= k0
        out[..., :, 1] *= k0
        return out

    bits = mats.reshape(mats.shape[:-2] + (2,) * (2 * n))
    return _map_qubit_block(bits, qubit, n, damp).reshape(mats.shape)


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def reference_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """The stacked-solve fidelity of two exactly Hermitian PSD matrices: one
    ``hermitian_eig`` of both, then the rule of ``qcore._fidelity``, which reads
    the spectra stored at validation instead.  Kept as its bit-exact reference."""
    values, vectors = qmath.hermitian_eig(np.stack([rho, sigma]))
    values[values < values[:, -1:] * values.shape[-1] * 1e-14] = 0.0
    if (values[:, -2] == 0.0).any():
        fid = float(np.sum(rho * sigma.T).real)
    else:
        roots = (vectors * np.sqrt(values)[:, None, :]) @ vectors.conj().swapaxes(-1, -2)
        fid = float(np.linalg.svd(roots[0] @ roots[1], compute_uv=False).sum() ** 2)
    return min(max(fid, 0.0), 1.0)


@st.composite
def density_matrices(draw, n_qubits: int, rank: int | None = None) -> np.ndarray:
    """Hypothesis strategy: G G^dag / tr for a 2^n x rank complex G, of any rank
    unless ``rank`` is given."""
    dim = 2**n_qubits
    rank = draw(st.integers(1, dim)) if rank is None else rank
    entries = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    parts = draw(hnp.arrays(np.float64, (2, dim, rank), elements=entries))
    assume(np.linalg.norm(parts[0] + 1j * parts[1]) > 1e-3)
    return density_from_parts(parts)


def density_from_parts(parts: np.ndarray) -> np.ndarray:
    """G G^dag / tr for G = parts[0] + i parts[1], a (2, dim, rank) real array."""
    g = parts[0] + 1j * parts[1]
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_pure_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    vec = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return vec / np.linalg.norm(vec)


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int) -> Circuit:
    ops = []
    for _ in range(n_gates):
        kind = rng.integers(3) if n_qubits > 1 else rng.integers(2)
        if kind == 0:
            name = GATE_POOL_1Q[rng.integers(len(GATE_POOL_1Q))]
            ops.append(GateOp(name, (int(rng.integers(n_qubits)),)))
        elif kind == 1:
            name = GATE_POOL_ROT[rng.integers(len(GATE_POOL_ROT))]
            angle = float(rng.uniform(-np.pi, np.pi))
            ops.append(GateOp(name, (int(rng.integers(n_qubits)),), angle))
        else:
            name = GATE_POOL_2Q[rng.integers(len(GATE_POOL_2Q))]
            a, b = rng.choice(n_qubits, size=2, replace=False)
            ops.append(GateOp(name, (int(a), int(b))))
    return Circuit(n_qubits, tuple(ops))


def pauli_rotation(k, n):
    """Reference rotation for setting k: the whole basis change as one circuit."""
    ops = []
    for q in range(n):
        letter = "XYZ"[(k // 3**q) % 3]
        if letter == "X":
            ops.append(gate("h", q))
        elif letter == "Y":
            ops.extend((gate("sdg", q), gate("h", q)))
    return Circuit(n, tuple(ops))


def per_matrix_diagonal_probs(mat):
    """Reference diagonal read: one 2^n x 2^n matrix at a time, with the
    simulator's probability floor."""
    probs = np.diag(mat).real.copy()
    assert probs.min() >= -1e-9
    probs[probs < PROBABILITY_FLOOR] = 0.0
    return probs / probs.sum()


def kron_readout_mask(n, p):
    """Reference flip-pattern probabilities: the Kronecker product of per-bit (1-p, p)."""
    per_bit = np.array([1.0 - p, p])
    probs = np.array([1.0])
    for _ in range(n):
        probs = np.kron(per_bit, probs)
    return probs


def xor_readout(probs, noise):
    """Reference readout: outcome o ^ mask is read with the flip pattern's probability."""
    if noise is None:
        return probs
    n = probs.shape[-1].bit_length() - 1
    index = np.arange(2**n)
    mask = kron_readout_mask(n, noise.readout_flip)
    return np.einsum("...m,...om->...o", mask, probs[..., index[:, None] ^ index])


def per_setting_pauli_probs(stack, n, noise):
    """Reference (B, 3^n, 2^n) Pauli-basis probabilities as read out: each
    setting's whole rotation evolved on its own, each matrix's diagonal read on
    its own, then the readout flips of every outcome."""
    rotated = [_evolve_mat(stack, pauli_rotation(k, n), noise) for k in range(3**n)]
    return xor_readout(np.array([[per_matrix_diagonal_probs(mats[b]) for mats in rotated]
                                 for b in range(len(stack))]), noise)


@pytest.fixture
def bell_circuit() -> Circuit:
    """Subroutine that maps |00> to (|00> - |11>)/sqrt(2)."""
    return Circuit(2, (gate("x", 0), gate("h", 0), gate("cx", 0, 1)))


@pytest.fixture
def mutated_circuit() -> Circuit:
    """Same subroutine with the Hadamard moved to the wrong qubit."""
    return Circuit(2, (gate("x", 0), gate("h", 1), gate("cx", 0, 1)))
