"""Quantum domain objects: circuits, states, channels, and fidelity measures.

Conventions used throughout the package:

* Qubit ordering is little-endian: qubit 0 is the least significant bit of a
  computational-basis index.  Bitstrings in human-readable output are printed
  most-significant qubit first.
* Choi matrices are stored unnormalized, ``C = sum_ij |i><j| (x) Phi(|i><j|)``
  with the input factor first, so a trace-preserving channel has
  ``tr(C) = 2**n``.  Only the spectrum kept at validation, which
  :func:`process_fidelity` reads, is that of the normalized ``C / 2**n``.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from quassert import qmath
from quassert.qmath import DimensionError, NumericError

_SQ2 = 1.0 / np.sqrt(2.0)

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

FIXED_GATES = {
    "x": PAULI_X,
    "y": PAULI_Y,
    "z": PAULI_Z,
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "s": np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=np.complex128),
}
# The gate set, the one table GateOp checks: name -> (arity, takes an angle).
GATES = {
    **{name: (1, False) for name in FIXED_GATES},
    **{name: (1, True) for name in ("rx", "ry", "rz")},
    **{name: (2, False) for name in ("cx", "cz", "swap")},
}


class UnsupportedGateError(ValueError):
    """Gate name outside the fixed gate set."""


def rotation_matrix(name: str, angle: float) -> np.ndarray:
    """2x2 matrix of rx/ry/rz at the given angle (radians)."""
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if name == "rz":
        return np.array(
            [[np.exp(-1j * angle / 2.0), 0], [0, np.exp(1j * angle / 2.0)]],
            dtype=np.complex128,
        )
    raise UnsupportedGateError(f"unknown rotation gate {name!r}")


def _as_int(value, what: str) -> int:
    """``value`` as an int; floats and bools are rejected rather than truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """True iff ``value`` is a real number and not a bool."""
    if type(value) in (float, int):  # the common case, without the ABC check
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_qubit_count(value) -> int:
    """``value`` as a register size: an int of at least 1."""
    n_qubits = _as_int(value, "n_qubits")
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    return n_qubits


@dataclass(frozen=True)
class GateOp:
    """A single gate application: name, target qubits, optional angle."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        name, qubits, angle = self.name, self.qubits, self.angle
        if type(qubits) is not tuple or any(type(q) is not int for q in qubits):
            qubits = tuple(_as_int(q, "qubit index") for q in qubits)
            object.__setattr__(self, "qubits", qubits)
        try:
            arity, rotation = GATES[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise UnsupportedGateError(
                f"unsupported gate {name!r}; supported: {', '.join(GATES)}"
            ) from None
        if len(qubits) != arity:
            raise ValueError(f"gate {name!r} takes {arity} qubit(s), got {qubits}")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"gate {name!r} applied to duplicate qubits {qubits}")
        if (angle is not None) != rotation:
            raise ValueError(
                f"gate {name!r}: angle must be given for rotation gates and only for them"
            )
        if rotation and not _is_real(angle):
            raise ValueError(f"gate {name!r}: angle must be a real number, got {angle!r}")
        if rotation and not math.isfinite(angle):
            raise ValueError(f"gate {name!r}: angle must be finite, got {angle}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")


def gate(name: str, *qubits: int, angle: float | None = None) -> GateOp:
    """Convenience constructor: ``gate("cx", 0, 1)``, ``gate("rx", 0, angle=0.3)``."""
    return GateOp(name, tuple(qubits), angle)


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gates on ``n_qubits`` qubits."""

    n_qubits: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _as_qubit_count(self.n_qubits))
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if max(op.qubits) >= self.n_qubits:
                raise ValueError(
                    f"gate {op.name!r} on qubits {op.qubits} exceeds register of "
                    f"{self.n_qubits} qubit(s)"
                )

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def embed_single_qubit(mat2: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Kron-expand a 2x2 operator onto ``qubit`` of an n-qubit register."""
    left = np.eye(2 ** (n_qubits - 1 - qubit), dtype=np.complex128)
    right = np.eye(2**qubit, dtype=np.complex128)
    return qmath.kron(left, qmath.kron(mat2, right))


def expanded_gate_matrix(op: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n unitary of one gate in the little-endian convention.

    The two-qubit gates are read off the basis-index bits: ``cx`` and ``swap``
    permute basis states, ``cz`` flips the sign of those with both bits set.
    """
    if op.name in FIXED_GATES:
        return embed_single_qubit(FIXED_GATES[op.name], op.qubits[0], n_qubits)
    if op.angle is not None:
        return embed_single_qubit(rotation_matrix(op.name, op.angle), op.qubits[0], n_qubits)
    index = np.arange(2**n_qubits)
    a, b = op.qubits
    bit_a, bit_b = (index >> a) & 1, (index >> b) & 1
    if op.name == "cz":
        return np.diag(1.0 - 2.0 * (bit_a & bit_b)).astype(np.complex128)
    if op.name == "cx":
        flip = bit_a << b
    elif op.name == "swap":
        flip = ((bit_a ^ bit_b) << a) | ((bit_a ^ bit_b) << b)
    else:
        raise UnsupportedGateError(f"unsupported gate {op.name!r}")
    # Both permutations are their own inverse: row i has its 1 in column i ^ flip.
    return np.eye(2**n_qubits, dtype=np.complex128)[index ^ flip]


def circuit_to_unitary(c: Circuit) -> np.ndarray:
    """Product of the expanded gate matrices in program order.

    Later gates multiply on the left, so the result acts on kets as the
    circuit reads left to right.
    """
    u = np.eye(c.dim, dtype=np.complex128)
    for op in c.ops:
        u = expanded_gate_matrix(op, c.n_qubits) @ u
    return u


def _store_checked_matrix(obj, kind: str, trace: int, trace_text: str, negative: str) -> None:
    """Check ``obj.mat`` as a ``obj.dim``-square Hermitian PSD matrix of the given
    trace, then store a copy of it (never the caller's array), symmetrized unless
    exactly Hermitian, and as ``obj._spectrum`` the spectrum of the normalized
    matrix (divided by its trace, which fidelity reads), all read-only.

    The validation shared by :class:`DensityMatrix` and :class:`ChoiMatrix`;
    ``kind`` starts every message, the trace tolerance is ``1e-9 * trace``.
    """
    mat = np.asarray(obj.mat, dtype=np.complex128)
    dim = obj.dim
    if mat.shape != (dim, dim):
        raise DimensionError(
            f"{type(obj).__name__} for {obj.n_qubits} qubit(s) must be {dim}x{dim}, "
            f"got {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise ValueError(f"{kind} has non-finite entries")
    herm = np.max(np.abs(mat - mat.conj().T))
    if herm > qmath.HERMITICITY_TOL:
        raise DimensionError(f"{kind} not Hermitian: max |A - A†| = {herm:.3e}")
    tr = complex(np.trace(mat))
    if abs(tr - trace) > 1e-9 * trace:
        raise ValueError(f"{kind} trace must be {trace_text}, got {tr:.12g}")
    values, vectors = qmath.hermitian_eig(mat / trace if trace != 1 else mat)
    if values[0] * trace < -qmath.PSD_CLAMP:
        raise ValueError(f"{kind} {negative} {values[0] * trace:.3e}")
    mat = (mat + mat.conj().T) / 2.0 if herm else mat.copy()
    for array in (mat, values, vectors):
        array.flags.writeable = False
    object.__setattr__(obj, "mat", mat)
    object.__setattr__(obj, "_spectrum", (values, vectors))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace operator on an n-qubit register."""

    n_qubits: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _as_qubit_count(self.n_qubits))
        _store_checked_matrix(self, "density matrix", 1, "1", "has negative eigenvalue")

    @classmethod
    def ground(cls, n_qubits: int) -> DensityMatrix:
        """|0...0><0...0|."""
        dim = 2**n_qubits
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[0, 0] = 1.0
        return cls(n_qubits, mat)

    @classmethod
    def from_statevector(cls, vec: np.ndarray) -> DensityMatrix:
        vec = np.asarray(vec, dtype=np.complex128).reshape(-1)
        n = int(round(np.log2(vec.size)))
        if 2**n != vec.size:
            raise DimensionError(f"statevector length {vec.size} is not a power of two")
        vec = vec / np.linalg.norm(vec)
        return cls(n, np.outer(vec, vec.conj()))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Unnormalized Choi matrix of an n-qubit channel (input factor first)."""

    n_qubits: int
    mat: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _as_qubit_count(self.n_qubits))
        d = 2**self.n_qubits
        _store_checked_matrix(
            self, "Choi matrix", d, f"2**n = {d}", "not completely positive: eigenvalue"
        )

    @property
    def dim(self) -> int:
        return 4**self.n_qubits

    def input_marginal(self) -> np.ndarray:
        """Partial trace over the output factor; identity for TP channels."""
        d = 2**self.n_qubits
        # Index i * d + o: input factor i first, output factor o second.
        return np.trace(self.mat.reshape(d, d, d, d), axis1=1, axis2=3)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Expected probabilities over the 2^n computational-basis outcomes."""

    n_qubits: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _as_qubit_count(self.n_qubits))
        probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if probs.size != 2**self.n_qubits:
            raise DimensionError(
                f"distribution for {self.n_qubits} qubit(s) needs {2**self.n_qubits} entries, "
                f"got {probs.size}"
            )
        if not np.isfinite(probs).all():
            raise ValueError("distribution has non-finite probabilities")
        if float(probs.min()) < 0.0:
            raise ValueError(f"negative probability {probs.min():.3e}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total:.12g}")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)


def circuit_to_choi(c: Circuit) -> ChoiMatrix:
    """Choi matrix of the unitary channel implemented by the circuit."""
    u = circuit_to_unitary(c)
    d = c.dim
    lifted = u.T.reshape(-1)  # (I (x) u) sum_i |i> (x) |i>
    mat = np.outer(lifted, lifted.conj())
    choi = ChoiMatrix(c.n_qubits, mat)
    marginal = choi.input_marginal()
    dev = np.max(np.abs(marginal - np.eye(d)))
    if dev > 1e-6:
        raise NumericError(f"circuit Choi matrix lost trace preservation: {dev:.3e}")
    return choi


def _fidelity(rho, sigma, scale: int = 1) -> float:
    """[tr |sqrt(rho) sqrt(sigma)|]^2 of two validated matrices, each divided by its trace
    ``scale``, read from the spectra of the divided matrices that validation stored.

    Eigenvalues below ``max * d * 1e-14`` are rounding noise.  If either side is then
    rank 1, F = tr(rho sigma); otherwise F squares the singular-value sum of
    sqrt(rho) sqrt(sigma)."""
    spectra = [(values.copy(), vectors) for values, vectors in (rho._spectrum, sigma._spectrum)]
    for values, _ in spectra:
        values[values < values[-1] * values.size * 1e-14] = 0.0
    if any(values[-2] == 0.0 for values, _ in spectra):
        fid = float(np.sum((rho.mat / scale) * (sigma.mat / scale).T).real)
    else:
        a, b = ((vectors * np.sqrt(values)) @ vectors.conj().T for values, vectors in spectra)
        fid = float(np.linalg.svd(a @ b, compute_uv=False).sum() ** 2)
    if fid < -1e-6 or fid > 1.0 + 1e-6:
        raise NumericError(f"fidelity {fid!r} out of [0, 1] beyond tolerance")
    return min(max(fid, 0.0), 1.0)


def state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Transition probability [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, in [0, 1]."""
    if rho.n_qubits != sigma.n_qubits:
        raise DimensionError(
            f"state_fidelity: {rho.n_qubits} vs {sigma.n_qubits} qubit states"
        )
    return _fidelity(rho, sigma)


def process_fidelity(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """State fidelity of the normalized Choi matrices (channel-state duality).

    Both Choi matrices were validated when built, and each stores the
    eigendecomposition of its normalized matrix, which fidelity reads.
    """
    if a.n_qubits != b.n_qubits:
        raise DimensionError(
            f"process_fidelity: {a.n_qubits} vs {b.n_qubits} qubit channels"
        )
    return _fidelity(a, b, 2**a.n_qubits)
