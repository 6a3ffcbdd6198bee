"""Shared builders for randomized test inputs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quassert.qcore import Circuit, GateOp, gate

GATE_POOL_1Q = ("x", "y", "z", "h", "s", "sdg", "t", "tdg")
GATE_POOL_ROT = ("rx", "ry", "rz")
GATE_POOL_2Q = ("cx", "cz", "swap")


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


def random_density(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    mat = random_psd(rng, 2**n_qubits)
    return mat / np.trace(mat).real


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


def trace_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


@st.composite
def density_matrices(draw, n_qubits: int) -> np.ndarray:
    """Hypothesis strategy: G G^dag / tr for a 2^n x rank complex G of any rank."""
    dim = 2**n_qubits
    rank = draw(st.integers(1, dim))
    entries = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    parts = draw(hnp.arrays(np.float64, (2, dim, rank), elements=entries))
    g = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(g) > 1e-3)
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


@pytest.fixture
def bell_circuit() -> Circuit:
    """Subroutine that maps |00> to (|00> - |11>)/sqrt(2)."""
    return Circuit(2, (gate("x", 0), gate("h", 0), gate("cx", 0, 1)))


@pytest.fixture
def mutated_circuit() -> Circuit:
    """Same subroutine with the Hadamard moved to the wrong qubit."""
    return Circuit(2, (gate("x", 0), gate("h", 1), gate("cx", 0, 1)))
