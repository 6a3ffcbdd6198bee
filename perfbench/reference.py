"""Small numpy reference for the benchmark's expected values.

This module shares no code with quassert, so a defect in quassert's
simulator shows up as a drop in the benchmark's Youden J instead of being
copied into the expected values.  It follows quassert's documented
conventions:

* qubit 0 is the least significant bit of a basis index;
* noise is gate-attached: after every gate a depolarizing channel acts on
  the gate's qubits, amplitude damping then acts on single-qubit targets,
  and readout bit flips act on the measured bits only.

Circuits are lists of ``{"gate": name, "qubits": [...], "angle": x}`` dicts,
the suite-document encoding.  Gates act on tensors of shape ``(2,) * k``
rather than on Kronecker-expanded ``2^n x 2^n`` matrices.
"""

from __future__ import annotations

import numpy as np

_SQ2 = 1.0 / np.sqrt(2.0)
_ONE_QUBIT = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
}
ONE_QUBIT_GATES = tuple(_ONE_QUBIT)
ROTATION_GATES = ("rx", "ry", "rz")
TWO_QUBIT_GATES = ("cx", "cz", "swap")

# Two-qubit gates as (2, 2, 2, 2) tensors indexed [a', b', a, b] for the
# qubit pair (a, b) in the order the gate names them (control first).
_CX = np.zeros((2, 2, 2, 2), dtype=complex)
_CZ = np.zeros((2, 2, 2, 2), dtype=complex)
_SWAP = np.zeros((2, 2, 2, 2), dtype=complex)
for _a in range(2):
    for _b in range(2):
        _CX[_a, _b ^ _a, _a, _b] = 1.0
        _CZ[_a, _b, _a, _b] = -1.0 if _a and _b else 1.0
        _SWAP[_b, _a, _a, _b] = 1.0
_TWO_QUBIT = {"cx": _CX, "cz": _CZ, "swap": _SWAP}


def gate_tensor(op: dict) -> np.ndarray:
    """The gate as a (2, 2) matrix or a (2, 2, 2, 2) tensor."""
    name = op["gate"]
    if name in _ONE_QUBIT:
        return _ONE_QUBIT[name]
    if name in _TWO_QUBIT:
        return _TWO_QUBIT[name]
    theta = op["angle"]
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    raise ValueError(f"unknown gate {name!r}")


def _apply(tensor: np.ndarray, gate: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract ``gate`` into the given axes of ``tensor``; axes keep their place."""
    k = len(axes)
    out = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


class DensityState:
    """An n-qubit density matrix held as a tensor of shape ``(2,) * 2n``.

    Row axis ``n - 1 - q`` and column axis ``2n - 1 - q`` belong to qubit q,
    so reshaping to ``2^n x 2^n`` gives the little-endian matrix.
    """

    def __init__(self, n: int):
        self.n = n
        mat = np.zeros((2**n, 2**n), dtype=complex)
        mat[0, 0] = 1.0
        self.t = mat.reshape((2,) * (2 * n))

    def _row(self, q: int) -> int:
        return self.n - 1 - q

    def _col(self, q: int) -> int:
        return 2 * self.n - 1 - q

    def unitary(self, gate: np.ndarray, qubits: list[int]) -> None:
        rows = [self._row(q) for q in qubits]
        cols = [self._col(q) for q in qubits]
        self.t = _apply(_apply(self.t, gate, rows), gate.conj(), cols)

    def depolarize(self, qubits: list[int], p: float) -> None:
        """(1 - p) rho + p (I / 2^k) (x) Tr_qubits(rho).

        The fully depolarizing channel on several qubits is the product of
        the single-qubit ones, each of which replaces the qubit's 2x2 block
        by half its trace times the identity.
        """
        if p == 0.0:
            return
        mixed = self.t
        for q in qubits:
            view = np.moveaxis(mixed, (self._row(q), self._col(q)), (0, 1))
            half_trace = (view[0, 0] + view[1, 1]) / 2.0
            out = np.zeros_like(view)
            out[0, 0] = half_trace
            out[1, 1] = half_trace
            mixed = np.moveaxis(out, (0, 1), (self._row(q), self._col(q)))
        self.t = (1.0 - p) * self.t + p * mixed

    def damp(self, qubit: int, gamma: float) -> None:
        if gamma == 0.0:
            return
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
        k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        r, c = self._row(qubit), self._col(qubit)
        a = _apply(_apply(self.t, k0, [r]), k0.conj(), [c])
        b = _apply(_apply(self.t, k1, [r]), k1.conj(), [c])
        self.t = a + b

    def matrix(self) -> np.ndarray:
        d = 2**self.n
        return self.t.reshape(d, d)


def run_density(circuit: list[dict], n: int, noise: dict | None) -> DensityState:
    """Output state of ``circuit`` on |0...0>, with gate-attached noise."""
    state = DensityState(n)
    for op in circuit:
        qubits = list(op["qubits"])
        state.unitary(gate_tensor(op), qubits)
        if noise is None:
            continue
        if op["gate"] in TWO_QUBIT_GATES:
            state.depolarize(qubits, noise["depolarizing_2q"])
        else:
            state.depolarize(qubits, noise["depolarizing_1q"])
            state.damp(qubits[0], noise["amplitude_damping"])
    return state


def apply_readout_flips(probs: np.ndarray, n: int, flip: float) -> np.ndarray:
    """Each measured bit flips independently with probability ``flip``."""
    if flip == 0.0:
        return probs
    t = probs.reshape((2,) * n)
    for axis in range(n):
        t = (1.0 - flip) * t + flip * np.flip(t, axis=axis)
    return t.reshape(-1)


def distribution(circuit: list[dict], n: int, noise: dict | None) -> np.ndarray:
    """Outcome probabilities, index bit q = qubit q, summing to one."""
    probs = np.clip(np.diag(run_density(circuit, n, noise).matrix()).real, 0.0, None)
    if noise is not None:
        probs = apply_readout_flips(probs, n, noise["readout_flip"])
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def unitary(circuit: list[dict], n: int) -> np.ndarray:
    """2^n x 2^n unitary of the circuit; column j is the image of |j>."""
    d = 2**n
    # Axes 0..n-1 hold the output qubits (n-1-q for qubit q); the last axis
    # indexes the input basis state.
    t = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
    for op in circuit:
        t = _apply(t, gate_tensor(op), [n - 1 - q for q in op["qubits"]])
    return t.reshape(d, d)


def statevector(circuit: list[dict], n: int) -> np.ndarray:
    """Ideal output amplitudes of the circuit on |0...0>."""
    t = np.zeros(2**n, dtype=complex)
    t[0] = 1.0
    t = t.reshape((2,) * n)
    for op in circuit:
        t = _apply(t, gate_tensor(op), [n - 1 - q for q in op["qubits"]])
    return t.reshape(-1)


def support_bits(circuit: list[dict], n: int) -> int:
    """b such that the ideal output spreads over at most 2^b basis states."""
    support = int(np.count_nonzero(np.abs(statevector(circuit, n)) ** 2 > 1e-12))
    return int(np.ceil(np.log2(support)))


def pure_state(circuit: list[dict], n: int) -> np.ndarray:
    """Ideal output density matrix of the circuit on |0...0>."""
    psi = statevector(circuit, n)
    return np.outer(psi, psi.conj())


def state_overlap(a: list[dict], b: list[dict], n: int) -> float:
    """Fidelity |<psi_a|psi_b>|^2 of the two circuits' ideal outputs."""
    return float(abs(np.vdot(statevector(a, n), statevector(b, n))) ** 2)


def channel_overlap(a: list[dict], b: list[dict], n: int) -> float:
    """Process fidelity |tr(U_a^dag U_b)|^2 / d^2 of the two unitaries."""
    d = 2**n
    return float(abs(np.trace(unitary(a, n).conj().T @ unitary(b, n))) ** 2 / d**2)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())
