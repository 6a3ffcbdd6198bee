"""Circuits, domain types and fidelity measures.

Fidelities are checked against closed forms: |<psi|phi>|^2 for pure states
and |tr(U†V)|^2 / 4^n for unitary channels.  The Choi construction is checked
entrywise against its definition, and its input marginal against an
explicit index-pair sum.
"""

import itertools
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quassert import qcore
from quassert.qcore import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    GATES,
    GateOp,
    OutcomeDistribution,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    UnsupportedGateError,
    _from_projection,
    embed_single_qubit,
    expanded_gate_matrix,
    gate,
    process_fidelity,
    state_fidelity,
)
from quassert.qmath import DimensionError, hermitian_eig, psd_project
from quassert.simulator import circuit_to_choi

from conftest import (
    circuit_to_unitary,
    density_from_parts,
    density_matrices,
    random_circuit,
    random_density,
    random_pure_state,
    reference_fidelity,
    reference_store_checked_matrix,
    trace_norm,
)

SQ2 = 1.0 / np.sqrt(2.0)


def _unitary(name, angle=0.37):
    """The ``GATES`` unitary of ``name``, a rotation's at ``angle``."""
    u = GATES[name][1]
    return u(angle) if callable(u) else u


class TestGateDefinitions:
    @pytest.mark.parametrize("name", [name for name in sorted(GATES) if not callable(GATES[name][1])])
    def test_fixed_gates_unitary(self, name):
        u = GATES[name][1]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-14)
        assert u.dtype == np.complex128 and not u.flags.writeable

    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    def test_rotations_unitary_and_periodic(self, name):
        u = _unitary(name)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(_unitary(name, 4 * np.pi), np.eye(2), atol=1e-12)

    def test_gate_hierarchy(self):
        t, s, z, sdg = (_unitary(name) for name in ("t", "s", "z", "sdg"))
        np.testing.assert_allclose(t @ t, s, atol=1e-14)
        np.testing.assert_allclose(s @ s, z, atol=1e-14)
        np.testing.assert_allclose(sdg, s.conj().T, atol=1e-14)


class TestGateOpValidation:
    def test_unknown_gate(self):
        with pytest.raises(UnsupportedGateError):
            GateOp("ccx", (0, 1))

    @pytest.mark.parametrize("name", [["x"], {"x": 1}, 1, None, b"x"])
    def test_non_string_or_unhashable_name_is_an_unsupported_gate(self, name):
        with pytest.raises(UnsupportedGateError, match=re.escape(f"unsupported gate {name!r}")):
            GateOp(name, (0,))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            GateOp("x", (0, 1))
        with pytest.raises(ValueError):
            GateOp("cx", (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError):
            GateOp("cx", (1, 1))

    def test_angle_rules(self):
        with pytest.raises(ValueError):
            GateOp("rx", (0,))  # rotation without angle
        with pytest.raises(ValueError):
            GateOp("x", (0,), angle=0.5)  # angle on a fixed gate

    @pytest.mark.parametrize("bad", [True, np.True_, "0.3", 1j, [0.3], 10**400,
                                     Fraction(10**400, 3)],
                             ids=["bool", "numpy_bool", "str", "complex", "list", "huge_int",
                                  "huge_fraction"])
    def test_non_real_angle_rejected(self, bad):
        # A real number beyond the float range is rejected as not finite.
        problem = (f"finite, got {bad}" if type(bad) in (int, Fraction)
                   else f"a real number, got {bad!r}")
        with pytest.raises(ValueError, match=re.escape(f"gate 'rx': angle must be {problem}")):
            GateOp("rx", (0,), angle=bad)

    @pytest.mark.parametrize("angle", [1, np.int64(2), np.float32(0.3)])
    def test_real_angle_types_accepted(self, angle):
        assert GateOp("rx", (0,), angle=angle).angle == angle

    @pytest.mark.parametrize("bad", [0.7, 1.0, True, np.True_, "1", None],
                             ids=["fraction", "float", "bool", "numpy_bool", "str", "none"])
    def test_non_integer_qubit_index_rejected(self, bad):
        with pytest.raises(ValueError, match=f"qubit index must be an integer, got {bad!r}"):
            gate("h", bad)
        with pytest.raises(ValueError, match="qubit index"):
            gate("cx", 0, bad)

    def test_integer_qubit_indices_accepted(self):
        op = gate("cx", np.int64(2), np.uint8(0))
        assert op.qubits == (2, 0)
        assert all(type(q) is int for q in op.qubits)
        for qubits in ([1, 0], np.array([1, 0])):
            assert GateOp("cx", qubits).qubits == (1, 0)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.True_, "2", None],
                             ids=["fraction", "float", "bool", "numpy_bool", "str", "none"])
    def test_non_integer_qubit_count_rejected(self, bad):
        with pytest.raises(ValueError, match=f"n_qubits must be an integer, got {bad!r}"):
            Circuit(bad, ())

    def test_integer_qubit_count_accepted(self):
        c = Circuit(np.int64(2), (gate("cx", 0, 1),))
        assert type(c.n_qubits) is int and c.dim == 4

    @pytest.mark.parametrize("ops, message", [
        (("x",), "ops[0]: expected GateOp, got str"),
        ("x", "ops[0]: expected GateOp, got str"),
        ((gate("h", 0), None), "ops[1]: expected GateOp, got NoneType"),
        ([gate("h", 0), ("h", (0,))], "ops[1]: expected GateOp, got tuple"),
        (5, "ops: expected a sequence of GateOp, got int"),
        (None, "ops: expected a sequence of GateOp, got NoneType"),
    ], ids=["str_item", "str", "none_item", "tuple_item", "int", "none"])
    def test_circuit_rejects_ops_that_are_not_gates(self, ops, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Circuit(1, ops)

    @pytest.mark.parametrize("qubits", [5, None, 0.0], ids=["int", "none", "float"])
    def test_qubits_that_are_not_a_sequence_rejected(self, qubits):
        message = f"qubits: expected a sequence of qubit indices, got {type(qubits).__name__}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GateOp("x", qubits)

    def test_circuit_rejects_out_of_range_qubits(self):
        with pytest.raises(ValueError):
            Circuit(1, (gate("x", 1),))
        with pytest.raises(ValueError):
            Circuit(2, (gate("cx", 0, 2),))


class TestCircuitToUnitary:
    def test_empty_circuit(self):
        np.testing.assert_allclose(circuit_to_unitary(Circuit(1)), np.eye(2))

    def test_x_on_qubit_zero_two_qubits(self):
        # Little-endian: X on qubit 0 swaps indices 0<->1 and 2<->3.
        u = circuit_to_unitary(Circuit(2, (gate("x", 0),)))
        np.testing.assert_allclose(u, np.kron(np.eye(2), PAULI_X), atol=1e-14)

    def test_bell_subroutine_output(self, bell_circuit):
        zero = np.zeros(4, dtype=complex)
        zero[0] = 1.0
        psi = circuit_to_unitary(bell_circuit) @ zero
        expected = np.array([SQ2, 0.0, 0.0, -SQ2])
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_program_order(self):
        # x then h on the same qubit: matrix is H @ X, not X @ H.
        u = circuit_to_unitary(Circuit(1, (gate("x", 0), gate("h", 0))))
        np.testing.assert_allclose(u, _unitary("h") @ PAULI_X, atol=1e-14)

    def test_cx_with_reversed_qubits(self):
        u = circuit_to_unitary(Circuit(2, (gate("cx", 1, 0),)))
        expected = np.eye(4)[:, [0, 1, 3, 2]]  # flips qubit 0 when qubit 1 is set
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_swap_permutes_basis(self):
        u = circuit_to_unitary(Circuit(2, (gate("swap", 0, 1),)))
        expected = np.eye(4)[:, [0, 2, 1, 3]]
        np.testing.assert_allclose(u, expected, atol=1e-14)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_random_circuits_unitary(self, n_qubits):
        rng = np.random.default_rng(60 + n_qubits)
        for _ in range(5):
            c = random_circuit(rng, n_qubits, 10)
            u = circuit_to_unitary(c)
            assert np.max(np.abs(u.conj().T @ u - np.eye(c.dim))) <= 1e-10


_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def projector_sum_gate(name, a, b, n):
    """Reference two-qubit gates: controlled gates as projector sums, SWAP as a Pauli sum."""
    if name == "swap":
        total = np.eye(2**n, dtype=np.complex128)
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            total = total + embed_single_qubit(pauli, a, n) @ embed_single_qubit(pauli, b, n)
        return total / 2.0
    target = {"cx": PAULI_X, "cz": PAULI_Z}[name]
    return embed_single_qubit(_P0, a, n) + embed_single_qubit(_P1, a, n) @ embed_single_qubit(
        target, b, n
    )


class TestCircuitToChoi:
    def test_identity_channel(self):
        choi = circuit_to_choi(Circuit(1))
        expected = np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        np.testing.assert_allclose(choi.mat, expected, atol=1e-12)

    def test_x_gate_matches_definition(self):
        # Oracle: apply the definition sum_ij |i><j| (x) U|i><j|U† entrywise.
        u = PAULI_X
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                expected += np.kron(unit, u @ unit @ u.conj().T)
        choi = circuit_to_choi(Circuit(1, (gate("x", 0),)))
        np.testing.assert_allclose(choi.mat, expected, atol=1e-12)

    def test_two_qubit_trace(self, bell_circuit):
        choi = circuit_to_choi(bell_circuit)
        assert np.trace(choi.mat).real == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_random_circuits_satisfy_invariants(self, n_qubits):
        rng = np.random.default_rng(80 + n_qubits)
        dim = 2**n_qubits
        for _ in range(5):
            choi = circuit_to_choi(random_circuit(rng, n_qubits, 8))
            herm = np.max(np.abs(choi.mat - choi.mat.conj().T))
            assert herm <= 1e-9
            assert np.linalg.eigvalsh(choi.mat).min() >= -1e-8
            np.testing.assert_allclose(choi.input_marginal(), np.eye(dim), atol=1e-6)


def brute_partial_trace(mat: np.ndarray, n_qubits: int, keep: list[int]) -> np.ndarray:
    """Oracle: explicit sum over index pairs whose traced bits coincide."""
    keep = sorted(keep)
    traced = [q for q in range(n_qubits) if q not in keep]
    out = np.zeros((2 ** len(keep), 2 ** len(keep)), dtype=complex)
    for i in range(2**n_qubits):
        for j in range(2**n_qubits):
            if all(((i >> q) & 1) == ((j >> q) & 1) for q in traced):
                ik = sum(((i >> q) & 1) << a for a, q in enumerate(keep))
                jk = sum(((j >> q) & 1) << a for a, q in enumerate(keep))
                out[ik, jk] += mat[i, j]
    return out


class TestInputMarginal:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force_oracle(self, n):
        # The input factor comes first, so it holds qubits n..2n-1 of the
        # doubled register.
        rng = np.random.default_rng(1500 + n)
        for _ in range(3):
            choi = ChoiMatrix(n, random_density(rng, 2 * n) * 2**n)
            expected = brute_partial_trace(choi.mat, 2 * n, list(range(n, 2 * n)))
            np.testing.assert_allclose(choi.input_marginal(), expected, rtol=0, atol=1e-12)


class TestDomainTypes:
    def test_density_matrix_rejects_non_hermitian(self):
        bad = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
        with pytest.raises(DimensionError):
            DensityMatrix(1, bad)

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([0.7, 0.7]))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        # Diagonal input is solved without LAPACK, the last one by eigh.
        for mat, value in [
            (np.diag([1.5, -0.5]), "-5.000e-01"),
            (np.diag([1.2, 0.0, -0.2, 0.0]), "-2.000e-01"),
            (np.array([[0.5, 0.6], [0.6, 0.5]]), "-1.000e-01"),
        ]:
            with pytest.raises(ValueError, match=f"^density matrix has negative eigenvalue {value}$"):
                DensityMatrix(int(np.log2(len(mat))), mat)

    def test_density_matrix_leaves_the_callers_array_writable(self):
        mat = np.diag([1.0, 0.0]).astype(complex)
        rho = DensityMatrix(1, mat)
        assert mat.flags.writeable and rho.mat is not mat
        mat[0, 0] = 0.5
        assert rho.mat[0, 0] == 1.0

    def test_density_matrix_immutable(self):
        rho = DensityMatrix.ground(1)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.5

    def test_ground_state(self):
        rho = DensityMatrix.ground(2)
        assert rho.mat[0, 0] == 1.0 and np.trace(rho.mat) == 1.0

    def test_from_statevector_normalizes(self):
        rho = DensityMatrix.from_statevector(np.array([2.0, 0.0]))
        np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("vec", [[], [1.0], [1.0, 0.0, 0.0]],
                             ids=["empty", "one_entry", "three_entries"])
    def test_from_statevector_needs_two_to_the_n_entries(self, vec):
        with pytest.raises(DimensionError, match=f"statevector length {len(vec)} is not a power"):
            DensityMatrix.from_statevector(np.array(vec))

    @pytest.mark.parametrize("vec", [np.eye(2), np.ones((1, 4)), np.array(1.0)],
                             ids=["matrix", "row", "scalar"])
    def test_from_statevector_needs_a_1d_vector(self, vec):
        with pytest.raises(DimensionError, match=re.escape(
                f"statevector must be 1-D, got shape {vec.shape}")):
            DensityMatrix.from_statevector(vec)

    @pytest.mark.parametrize("vec, problem", [([0.0, 0.0], "zero norm"),
                                              ([np.nan, 1.0], "non-finite"),
                                              ([np.inf, 0.0], "non-finite")],
                             ids=["zero", "nan", "inf"])
    def test_from_statevector_needs_a_finite_nonzero_vector(self, vec, problem):
        with pytest.raises(ValueError, match=f"statevector has {problem}"):
            DensityMatrix.from_statevector(np.array(vec))

    @pytest.mark.parametrize("scale", [1e-200, 5e-324, 1e200, 1e300])
    def test_from_statevector_of_tiny_or_huge_entries(self, scale):
        rho = DensityMatrix.from_statevector(np.array([scale, 1j * scale]))
        np.testing.assert_allclose(rho.mat, [[0.5, -0.5j], [0.5j, 0.5]], rtol=0, atol=1e-15)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(1, [0.5, 0.6])
        with pytest.raises(ValueError):
            OutcomeDistribution(1, [1.5, -0.5])
        with pytest.raises(DimensionError):
            OutcomeDistribution(2, [1.0, 0.0])

    @pytest.mark.parametrize("probs", [[[0.5], [0.5]], [[0.5, 0.5]], 1.0],
                             ids=["column", "row", "scalar"])
    def test_distribution_needs_a_1d_array(self, probs):
        shape = np.shape(probs)
        with pytest.raises(DimensionError, match=re.escape(
                f"needs a 1-D array of 2 entries, got shape {shape}")):
            OutcomeDistribution(1, probs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GateOp("rz", (0,), angle=bad)
        with pytest.raises(ValueError, match="finite"):
            OutcomeDistribution(1, [bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(1, np.diag([bad, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            ChoiMatrix(1, np.diag([bad, 0.0, 0.0, 1.0]))

    def test_choi_matrix_trace_must_be_two_to_the_n(self):
        with pytest.raises(ValueError, match="trace must be 2"):
            ChoiMatrix(1, np.diag([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="trace must be 2"):
            ChoiMatrix(2, np.eye(16) / 4 * (1 + 1e-8))
        ChoiMatrix(2, np.eye(16) / 4 * (1 + 1e-10))

    def test_choi_matrix_rejects_non_psd(self):
        with pytest.raises(ValueError):
            ChoiMatrix(1, np.diag([2.0, 1.0, -0.5, -0.5]))

    @pytest.mark.parametrize("bad", [1.0, 1.5, True, np.True_, "1", None],
                             ids=["float", "fraction", "bool", "numpy_bool", "str", "none"])
    def test_value_types_reject_non_integer_qubit_counts(self, bad):
        for build in (
            lambda: DensityMatrix(bad, np.diag([1.0, 0.0])),
            lambda: ChoiMatrix(bad, np.diag([1.0, 0.0, 0.0, 1.0])),
            lambda: OutcomeDistribution(bad, [0.5, 0.5]),
        ):
            with pytest.raises(ValueError, match=f"n_qubits must be an integer, got {bad!r}"):
                build()

    @pytest.mark.parametrize("zero", [0, np.int64(0)], ids=["int", "numpy_int"])
    def test_value_types_reject_zero_qubits(self, zero):
        for build in (
            lambda: Circuit(zero, ()),
            lambda: DensityMatrix(zero, np.ones((1, 1))),
            lambda: ChoiMatrix(zero, np.ones((1, 1))),
            lambda: OutcomeDistribution(zero, [1.0]),
        ):
            with pytest.raises(ValueError, match="n_qubits must be positive, got 0"):
                build()

    def test_value_types_store_numpy_qubit_counts_as_int(self):
        for value in (
            DensityMatrix(np.int64(1), np.diag([1.0, 0.0])),
            ChoiMatrix(np.uint8(1), np.diag([1.0, 0.0, 0.0, 1.0])),
            OutcomeDistribution(np.int32(1), [0.5, 0.5]),
        ):
            assert type(value.n_qubits) is int and value.n_qubits == 1

    def test_validation_measures_the_hermiticity_deviation_once(self, monkeypatch):
        rng = np.random.default_rng(140)
        mixed = random_density(rng, 3)
        measured = []
        absolute = np.abs
        monkeypatch.setattr(np, "abs", lambda a: measured.append(1) or absolute(a))
        for build in (lambda: DensityMatrix(3, mixed), lambda: DensityMatrix.ground(3),
                      lambda: ChoiMatrix(1, mixed[:4, :4] / np.trace(mixed[:4, :4]) * 2)):
            measured.clear()
            build()
            assert len(measured) == 1

    def test_choi_matrix_checks_hermiticity_like_a_density_matrix(self):
        bad = np.diag([2.0, 0.0, 0.0, 0.0]).astype(complex)
        bad[0, 1] = 0.5
        with pytest.raises(DimensionError, match="Choi matrix not Hermitian"):
            ChoiMatrix(1, bad)
        with pytest.raises(ValueError, match="Choi matrix not completely positive"):
            ChoiMatrix(1, np.diag([2.5, 0.0, 0.0, -0.5]))


class TestStateFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(90)
        rho = DensityMatrix(2, random_density(rng, 2))
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_states(self):
        zero = DensityMatrix(1, np.diag([1.0, 0.0]))
        one = DensityMatrix(1, np.diag([0.0, 1.0]))
        assert state_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_bell_vs_mutated_quarter(self, bell_circuit, mutated_circuit):
        zero = np.zeros(4, dtype=complex)
        zero[0] = 1.0
        rho = DensityMatrix.from_statevector(circuit_to_unitary(bell_circuit) @ zero)
        sigma = DensityMatrix.from_statevector(circuit_to_unitary(mutated_circuit) @ zero)
        assert state_fidelity(sigma, rho) == pytest.approx(0.25, abs=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(91)
        rho = DensityMatrix(2, random_density(rng, 2))
        sigma = DensityMatrix(2, random_density(rng, 2))
        assert state_fidelity(rho, sigma) == pytest.approx(
            state_fidelity(sigma, rho), abs=1e-8
        )

    def test_pure_pair_oracle(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            psi = random_pure_state(rng, n)
            phi = random_pure_state(rng, n)
            expected = abs(np.vdot(psi, phi)) ** 2
            fid = state_fidelity(
                DensityMatrix.from_statevector(psi), DensityMatrix.from_statevector(phi)
            )
            assert fid == pytest.approx(expected, abs=1e-8)

    def test_maximally_mixed_vs_pure(self):
        mixed = DensityMatrix(1, np.eye(2) / 2)
        pure = DensityMatrix(1, np.diag([1.0, 0.0]))
        assert state_fidelity(mixed, pure) == pytest.approx(0.5, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            state_fidelity(DensityMatrix.ground(1), DensityMatrix.ground(2))

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(93)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            rho = DensityMatrix(n, random_density(rng, n))
            sigma = DensityMatrix(n, random_density(rng, n))
            bound = 1.0 - trace_norm(rho.mat - sigma.mat)
            assert bound <= state_fidelity(rho, sigma) + 1e-8

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3))
    def test_fidelity_in_unit_interval_and_one_with_itself(self, data, n):
        rho = DensityMatrix(n, data.draw(density_matrices(n)))
        sigma = DensityMatrix(n, data.draw(density_matrices(n)))
        assert 0.0 <= state_fidelity(rho, sigma) <= 1.0
        # Only eigenvalues below max * d * 1e-14 are dropped, so self-fidelity
        # loses at most about 2 d^2 * 1e-14.
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_self_fidelity_keeps_small_genuine_eigenvalues(self):
        values = np.array([1.0, 4.5e-6, 1.6e-7, 0.0])
        rho = DensityMatrix(2, np.diag(values / values.sum()))
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


class TestProcessFidelity:
    def test_self_fidelity(self, bell_circuit):
        choi = circuit_to_choi(bell_circuit)
        assert process_fidelity(choi, choi) == pytest.approx(1.0, abs=1e-8)

    def test_identity_vs_x(self):
        ident = circuit_to_choi(Circuit(1))
        x = circuit_to_choi(Circuit(1, (gate("x", 0),)))
        assert process_fidelity(ident, x) == pytest.approx(0.0, abs=1e-10)

    def test_correct_vs_mutated_is_zero(self, bell_circuit, mutated_circuit):
        u = circuit_to_unitary(bell_circuit)
        v = circuit_to_unitary(mutated_circuit)
        assert abs(np.trace(u.conj().T @ v)) <= 1e-12
        fid = process_fidelity(circuit_to_choi(bell_circuit), circuit_to_choi(mutated_circuit))
        assert fid == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_unitary_channel_oracle(self, n_qubits):
        rng = np.random.default_rng(95 + n_qubits)
        for _ in range(5):
            a = random_circuit(rng, n_qubits, 6)
            b = random_circuit(rng, n_qubits, 6)
            u = circuit_to_unitary(a)
            v = circuit_to_unitary(b)
            expected = abs(np.trace(u.conj().T @ v)) ** 2 / 4**n_qubits
            fid = process_fidelity(circuit_to_choi(a), circuit_to_choi(b))
            assert fid == pytest.approx(expected, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            process_fidelity(circuit_to_choi(Circuit(1)), circuit_to_choi(Circuit(2)))

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_equals_state_fidelity_of_normalized_choi_states(self, n_qubits):
        rng = np.random.default_rng(97 + n_qubits)
        d = 2**n_qubits
        for _ in range(4):
            a = ChoiMatrix(n_qubits, random_density(rng, 2 * n_qubits) * d)
            b = circuit_to_choi(random_circuit(rng, n_qubits, 5))
            expected = state_fidelity(
                DensityMatrix(2 * n_qubits, a.mat / d), DensityMatrix(2 * n_qubits, b.mat / d)
            )
            assert process_fidelity(a, b) == expected


# Pure (rank 1) or mixed (any rank) draws for each side of a fidelity.
RANKS = st.sampled_from([1, None])


class TestStoredSpectrum:
    """Validation keeps its eigendecomposition; fidelity reads it instead of solving again."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 2), st.booleans())
    def test_read_only_ascending_and_rebuilds_the_matrix(self, data, n, choi):
        mat = data.draw(density_matrices(2 * n if choi else n))
        value = ChoiMatrix(n, mat * 2**n) if choi else DensityMatrix(n, mat)
        values, vectors = value._spectrum
        assert not values.flags.writeable and not vectors.flags.writeable
        assert np.all(np.diff(values) >= 0.0)
        rebuilt = (vectors * values) @ vectors.conj().T
        normalized = value.mat / 2**n if choi else value.mat
        assert np.max(np.abs(rebuilt - normalized)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), RANKS, RANKS)
    def test_state_fidelity_bit_equal_to_stacked_solve(self, data, n, rank_a, rank_b):
        rho = DensityMatrix(n, data.draw(density_matrices(n, rank_a)))
        sigma = DensityMatrix(n, data.draw(density_matrices(n, rank_b)))
        assert state_fidelity(rho, sigma) == reference_fidelity(rho.mat, sigma.mat)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 2), RANKS, RANKS)
    def test_process_fidelity_bit_equal_to_stacked_solve(self, data, n, rank_a, rank_b):
        d = 2**n
        a = ChoiMatrix(n, data.draw(density_matrices(2 * n, rank_a)) * d)
        b = ChoiMatrix(n, data.draw(density_matrices(2 * n, rank_b)) * d)
        assert process_fidelity(a, b) == reference_fidelity(a.mat / d, b.mat / d)

    def test_process_fidelity_bit_equal_with_subnormal_eigenvalues(self):
        # A found pair: b's Choi matrix has entries near 1e-177, whose products
        # underflow inside the eigensolver, so the spectrum of mat / 2**n is
        # not that of mat divided by 2**n.  The stored one is of mat / 2**n,
        # as the reference solves it.
        ga = np.ones((2, 16, 2))
        ga[0, 0, 0] = 0.0
        gb = np.full((2, 16, 3), 2.018529881956575e-88)
        gb[0, 3, 0], gb[1, 7, 0], gb[1, 8, 1] = 8.0, 2.875, 7.75
        a, b = (ChoiMatrix(2, density_from_parts(g) * 4) for g in (ga, gb))
        assert process_fidelity(a, b) == reference_fidelity(a.mat / 4, b.mat / 4)

    def test_unitary_choi_pair_bit_equal_to_stacked_solve(self, bell_circuit, mutated_circuit):
        for other in (bell_circuit, mutated_circuit):
            a, b = circuit_to_choi(bell_circuit), circuit_to_choi(other)
            assert process_fidelity(a, b) == reference_fidelity(a.mat / 4, b.mat / 4)


# Imaginary parts around HERMITICITY_TOL (the deviation is twice the largest)
# and real entries around -PSD_CLAMP, on either side of each bound.
IMAGINARY = st.sampled_from([0.0, -0.0, 1e-12, -4.9e-10, 4.9e-10, 5.1e-10, -1e-6])
NEGATIVE = st.sampled_from([-5e-9, -2e-8, -0.25])
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
TRACE_SCALE = st.sampled_from([1.0, 1.0 + 5e-10, 1.0 + 3e-9, 1.0 - 3e-9])
LAYOUTS = st.sampled_from(["C", "F", "read-only", "strided", "real"])


@st.composite
def diagonal_inputs(draw):
    """A density (n = 1-7) or Choi (n = 1-3) matrix input that is diagonal in
    value, with the edge cases of diagonal validation: ``-0.0`` words off and
    on the diagonal, a non-finite diagonal entry, imaginary parts around
    ``HERMITICITY_TOL``, negative entries around ``-PSD_CLAMP``, a trace off
    by more than its tolerance, and Fortran-ordered, read-only, strided or
    real input.  Returns ``(cls, n, mat)``."""
    cls = draw(st.sampled_from([DensityMatrix, ChoiMatrix]))
    n = draw(st.integers(1, 7 if cls is DensityMatrix else 3))
    dim, trace = (2**n, 1) if cls is DensityMatrix else (4**n, 2**n)
    real = draw(hnp.arrays(np.float64, dim, elements=st.floats(0.0, 1.0)))
    real = real / real.sum() * trace if real.sum() > 0.0 else np.eye(1, dim)[0] * trace
    if draw(st.booleans()):
        real = np.where(real == 0.0, -0.0, real)
    if dim > 2 and draw(st.booleans()):
        k, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        negative = draw(NEGATIVE)
        real[j] += real[k] - negative
        real[k] = negative
    real *= draw(TRACE_SCALE)
    imag = draw(hnp.arrays(np.float64, dim, elements=IMAGINARY))
    if draw(st.booleans()):
        part = draw(st.sampled_from([real, imag]))
        part[draw(st.integers(0, dim - 1))] = draw(NON_FINITE)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat.real[np.diag_indices(dim)], mat.imag[np.diag_indices(dim)] = real, imag
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        draw(st.sampled_from([mat.real, mat.imag]))[i, j] = -0.0
    layout = draw(LAYOUTS)
    if layout == "F":
        mat = np.asfortranarray(mat)
    elif layout == "read-only":
        mat.flags.writeable = False
    elif layout == "strided":
        wide = np.ones((2 * dim, 3 * dim), dtype=np.complex128)
        wide[1::2, ::3] = mat
        mat = wide[1::2, ::3]
    elif layout == "real":
        mat = mat.real
    return cls, n, mat


def validation_outcome(cls, n: int, mat: np.ndarray):
    """The stored matrix and spectrum of ``cls(n, mat)`` as bytes, or the type
    and message of the exception it raised."""
    try:
        value = cls(n, mat)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.flags.writeable, a.tobytes())
            for a in (value.mat, *value._spectrum)]


class TestDiagonalValidation:
    """A matrix whose off-diagonal words are all +0.0 is checked on its diagonal."""

    @settings(max_examples=400, deadline=None)
    @given(diagonal_inputs())
    def test_same_bytes_and_errors_as_full_validation(self, case):
        cls, n, mat = case
        expected = mat.copy()
        got = validation_outcome(cls, n, mat)
        with mock.patch.object(qcore, "_store_checked_matrix", reference_store_checked_matrix):
            assert got == validation_outcome(cls, n, mat)
        assert mat.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cls, n", [(DensityMatrix, 5), (DensityMatrix, 7), (ChoiMatrix, 3)])
    def test_keeps_only_the_stored_copy_and_the_eigenvectors(self, cls, n):
        """Peak traced memory while validating a prebuilt diagonal matrix: the
        stored copy and the eigenvectors, no full-size temporaries."""
        dim, trace = (2**n, 1) if cls is DensityMatrix else (4**n, 2**n)
        weights = np.arange(dim, 0, -1, dtype=float)
        mat = np.diag(weights / weights.sum() * trace).astype(complex)
        tracemalloc.start()
        try:
            cls(n, mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * dim * dim * 16


@st.composite
def raw_estimates(draw, n_qubits: int) -> np.ndarray:
    """A trace-1 Hermitian matrix shaped like a linear-inversion estimate: a
    state of any rank, rank 1 half the time, plus a traceless Hermitian
    perturbation of random size (none, small or large) that turns eigenvalues
    negative, so its projection is often rank-deficient."""
    dim = 2**n_qubits
    state = draw(density_matrices(n_qubits, draw(RANKS)))
    entries = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    parts = draw(hnp.arrays(np.float64, (2, dim, dim), elements=entries))
    g = parts[0] + 1j * parts[1]
    noise = (g + g.conj().T) / 2.0
    noise -= np.trace(noise) / dim * np.eye(dim)
    return state + draw(st.sampled_from([0.0, 0.05, 0.5])) * noise


def fidelity_tolerance(values: np.ndarray) -> float:
    """How far two fidelities against one mixed expected value may differ when
    one reads the estimate's stored spectrum and the other a re-solve of it;
    ``values`` is the re-solved spectrum of the normalized matrix, ascending.

    Both spectra decompose matrices within eigh's backward error
    eps_r = d * eps * max(values) of the same one, so by Weyl's inequality
    each eigenvalue moves by at most eps_r.  Fidelity is (tr|A B|)^2 with
    A = sqrt(rho) and B = sqrt(sigma); as ||B|| <= 1 and F <= 1, it moves by
    at most 2 ||dA||_1, about 2 sum_i |d sqrt(lambda_i)|.  The square root is
    only Hoelder-1/2 near zero: eigenvalue lambda moves its root by at most
    sqrt(lambda + eps_r) - sqrt(lambda - eps_r), which is about
    eps_r / sqrt(lambda) well above eps_r and grows to sqrt(eps_r) near it.
    An eigenvalue within eps_r of fidelity's cutoff (``max * d * 1e-14``)
    may be kept on one side and zeroed on the other, so its whole root
    counts.  Where every kept eigenvalue is well above rounding the sum is
    below 1e-12, which stays the bound; over 9000 drawn examples the
    difference stayed under 3 % of the derived bound."""
    d, eps = values.size, np.finfo(float).eps
    eps_r, cut = d * eps * values[-1], values[-1] * d * 1e-14
    near = values[values + eps_r >= cut]
    lower = near - eps_r
    moved = np.sqrt(near + eps_r) - np.where(lower >= cut, np.sqrt(np.maximum(lower, 0.0)), 0.0)
    return max(1e-12, 2.0 * float(moved.sum()))


class TestProjectedEstimate:
    """A tomography estimate is stored from the spectrum its PSD projection
    rebuilt it from, unvalidated: validation would accept it unchanged, and
    fidelity reads the same numbers to rounding."""

    @staticmethod
    def check(data, choi):
        n = data.draw(st.integers(1, 2 if choi else 3))
        cls, m, trace = (ChoiMatrix, 2 * n, 2**n) if choi else (DensityMatrix, n, 1)
        fidelity = process_fidelity if choi else state_fidelity
        mat, spectrum = psd_project(data.draw(raw_estimates(m)) * trace, float(trace))
        estimate = _from_projection(cls, n, mat, spectrum)
        validated = cls(n, estimate.mat)
        assert np.array_equal(validated.mat, estimate.mat)
        values, vectors = estimate._spectrum
        assert not (estimate.mat.flags.writeable or values.flags.writeable
                    or vectors.flags.writeable)
        normalized = estimate.mat / trace
        np.testing.assert_allclose(values, hermitian_eig(normalized)[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose((vectors * values) @ vectors.conj().T, normalized,
                                   rtol=0, atol=1e-12)
        # A pure expected value takes fidelity's rank-1 branch, which reads the
        # matrices alone; a mixed one reads both spectra.
        tolerance = fidelity_tolerance(validated._spectrum[0])
        for rank in (1, data.draw(st.integers(2, 2**m))):
            expected = cls(n, data.draw(density_matrices(m, rank)) * trace)
            got, want = fidelity(estimate, expected), fidelity(validated, expected)
            assert got == want if rank == 1 else abs(got - want) <= tolerance

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans())
    def test_stores_what_validation_would(self, data, choi):
        self.check(data, choi)

    @pytest.mark.parametrize("pinned", [25, 31, 33])
    def test_examples_that_broke_a_fixed_bound(self, pinned):
        """At these seeds the run above draws a Choi estimate whose least kept
        eigenvalue is 1e-13 to 1e-8 of the trace; the fidelities then differ
        by up to 5e-11, beyond a fixed 1e-12."""
        run = given(st.data(), st.booleans())(self.check)
        seed(pinned)(settings(max_examples=150, deadline=None, database=None)(run))()


class TestExpandedGateMatrix:
    @pytest.mark.parametrize("name, n_qubits", [(name, n) for name in sorted(GATES)
                                                 for n in (1, 2, 3, 4) if GATES[name][0] <= n])
    def test_every_row_matches_the_dense_reference_at_every_placement(self, name, n_qubits):
        # One qubit: the kron of identities around the table unitary; two: the
        # projector and Pauli sums.
        arity = GATES[name][0]
        angle = 0.37 if callable(GATES[name][1]) else None
        for qubits in itertools.permutations(range(n_qubits), arity):
            u = expanded_gate_matrix(GateOp(name, qubits, angle), n_qubits)
            if arity == 1:
                q = qubits[0]
                expected = np.kron(np.eye(2 ** (n_qubits - 1 - q)),
                                   np.kron(_unitary(name), np.eye(2**q)))
            else:
                expected = projector_sum_gate(name, *qubits, n_qubits)
            assert u.dtype == np.complex128
            np.testing.assert_array_equal(u, expected)

    def test_cz_symmetric_in_qubits(self):
        a = expanded_gate_matrix(gate("cz", 0, 1), 2)
        b = expanded_gate_matrix(gate("cz", 1, 0), 2)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_nonadjacent_two_qubit_gate(self):
        # cx(0, 2) on 3 qubits: flips qubit 2 exactly when qubit 0 is set.
        u = expanded_gate_matrix(gate("cx", 0, 2), 3)
        for i in range(8):
            j = i ^ 0b100 if i & 1 else i
            assert u[j, i] == pytest.approx(1.0)
