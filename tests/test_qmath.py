"""Linear-algebra kernel checks against independent oracles.

The eigensolver is cross-checked by rebuilding the input from its own output
and by recovering a planted spectrum and eigenbasis; the PSD projection
against hand-executed truncation steps; the partial trace against an explicit
index-pair sum.
Hypothesis property tests cover the eigendecomposition contract and the PSD
projection's invariants on arbitrary Hermitian input.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quassert import qmath
from quassert.qmath import (
    DegenerateInputError,
    DimensionError,
    NotPSDError,
    hermitian_eig,
    kron,
    matrix_sqrt_psd,
    partial_trace,
    psd_project,
    trace_norm,
)

from conftest import random_density, random_hermitian, random_psd


@st.composite
def hermitian_matrices(draw, max_dim: int = 8) -> np.ndarray:
    dim = draw(st.integers(1, max_dim))
    entries = st.floats(-10, 10, allow_nan=False, allow_subnormal=False)
    parts = draw(hnp.arrays(np.float64, (2, dim, dim), elements=entries))
    g = parts[0] + 1j * parts[1]
    return (g + g.conj().T) / 2.0


def _tol(a: np.ndarray) -> float:
    return 1e-9 * max(1.0, float(np.abs(a).max()) * a.shape[0])


BELL_PROJECTOR = 0.5 * np.array(
    [[1, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1]], dtype=complex
)


class TestHermitianEig:
    def test_diagonal_input(self):
        eig = hermitian_eig(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(eig.values, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(eig.vectors), np.eye(2), atol=1e-12)

    def test_pauli_x_spectrum(self):
        eig = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(eig.values, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_oracle_8x8(self):
        rng = np.random.default_rng(101)
        a = random_hermitian(rng, 8)
        eig = hermitian_eig(a)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.max(np.abs(rebuilt - a)) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 12, 16])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = np.random.default_rng(1000 + dim)
        for _ in range(3):
            a = random_hermitian(rng, dim)
            eig = hermitian_eig(a)
            rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
            assert np.max(np.abs(rebuilt - a)) <= 1e-10
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
            assert np.all(np.diff(eig.values) >= -1e-12)

    def test_recovers_planted_spectrum(self):
        # A = V diag(lam) V^dagger with a random unitary V (QR of a complex
        # Gaussian) and a chosen, non-degenerate spectrum.
        rng = np.random.default_rng(7)
        v, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        lam = np.array([-2.5, -1.0, 0.0, 0.5, 1.75, 3.0])
        eig = hermitian_eig((v * lam) @ v.conj().T)
        np.testing.assert_allclose(eig.values, lam, atol=1e-10)
        # Each eigenvector is the planted column up to a phase.
        overlaps = np.abs(np.sum(v.conj() * eig.vectors, axis=0))
        np.testing.assert_allclose(overlaps, 1.0, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            hermitian_eig(np.zeros((2, 3)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(DimensionError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_slightly_asymmetric_input_symmetrized(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        a[0, 1] = 1e-10  # inside the 1e-9 window
        eig = hermitian_eig(a)
        np.testing.assert_allclose(eig.values, [1.0, 2.0], atol=1e-9)


class TestMatrixSqrtPsd:
    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_pure_projector_is_its_own_root(self):
        # Idempotent trace-1 projectors satisfy sqrt(rho) = rho.
        np.testing.assert_allclose(
            BELL_PROJECTOR @ BELL_PROJECTOR, BELL_PROJECTOR, atol=1e-14
        )
        np.testing.assert_allclose(
            matrix_sqrt_psd(BELL_PROJECTOR), BELL_PROJECTOR, atol=1e-10
        )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_square_recovers_input(self, dim):
        rng = np.random.default_rng(dim)
        a = random_psd(rng, dim)
        root = matrix_sqrt_psd(a)
        assert np.max(np.abs(root @ root - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPSDError, match="-1"):
            matrix_sqrt_psd(np.diag([1.0, -1.0]))

    def test_tiny_negative_clamped(self):
        root = matrix_sqrt_psd(np.diag([1.0, -5e-9]))
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-8)


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_plus_minus_one(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_pure_state_pair_closed_form(self, bell_circuit, mutated_circuit):
        # For pure states with overlap |<psi|phi>|^2 = 0.25 the difference has
        # trace norm 2 sqrt(1 - 0.25) = sqrt(3).
        from quassert.qcore import circuit_to_unitary

        zero = np.zeros(4, dtype=complex)
        zero[0] = 1.0
        psi = circuit_to_unitary(bell_circuit) @ zero
        phi = circuit_to_unitary(mutated_circuit) @ zero
        assert abs(np.vdot(psi, phi)) ** 2 == pytest.approx(0.25, abs=1e-12)
        diff = np.outer(psi, psi.conj()) - np.outer(phi, phi.conj())
        assert trace_norm(diff) == pytest.approx(1.7320508075688772, abs=1e-8)

    def test_lower_bounded_by_abs_trace(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = random_hermitian(rng, 4)
            assert trace_norm(a) >= abs(np.trace(a).real) - 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(DimensionError):
            trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))


class TestKron:
    def test_identity_product(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_x_tensor_identity_permutation(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = 1
        np.testing.assert_allclose(kron(x, np.eye(2)), expected)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b, c, d = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
            )
            np.testing.assert_allclose(
                kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
            )


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


class TestPartialTrace:
    def test_bell_marginals_are_maximally_mixed(self):
        for q in (0, 1):
            np.testing.assert_allclose(
                partial_trace(BELL_PROJECTOR, 2, [q]), np.eye(2) / 2, atol=1e-12
            )

    def test_keep_all_is_identity_operation(self):
        rng = np.random.default_rng(5)
        a = random_density(rng, 2)
        np.testing.assert_allclose(partial_trace(a, 2, [0, 1]), a)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(8)
        rho1 = random_density(rng, 1)
        rho2 = random_density(rng, 1)
        # Little-endian: qubit 0 is the last kron factor.
        joint = kron(rho2, rho1)
        np.testing.assert_allclose(partial_trace(joint, 2, [0]), rho1, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, 2, [1]), rho2, atol=1e-12)

    @pytest.mark.parametrize("n_qubits,keep", [(2, [0]), (3, [1]), (3, [0, 2]), (4, [1, 3])])
    def test_matches_brute_force_oracle(self, n_qubits, keep):
        rng = np.random.default_rng(n_qubits * 10 + len(keep))
        a = random_hermitian(rng, 2**n_qubits)
        np.testing.assert_allclose(
            partial_trace(a, n_qubits, keep), brute_partial_trace(a, n_qubits, keep), atol=1e-12
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(21)
        a = random_density(rng, 3)
        reduced = partial_trace(a, 3, [0, 2])
        assert abs(np.trace(reduced) - np.trace(a)) <= 1e-12

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4), 2, [2])


class TestPsdProject:
    def test_valid_density_matrix_unchanged(self):
        rng = np.random.default_rng(31)
        a = random_density(rng, 2)
        np.testing.assert_allclose(psd_project(a, 1.0), a, atol=1e-12)

    def test_single_truncation_step(self):
        # Hand oracle: zero the -0.1 eigenvalue, fold its deficit into the
        # remaining one: 1.1 - 0.1 = 1.0; trace already on target.
        np.testing.assert_allclose(
            psd_project(np.diag([1.1, -0.1]), 1.0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_pure_rescale(self):
        np.testing.assert_allclose(
            psd_project(np.diag([0.6, 0.6]), 1.0), np.diag([0.5, 0.5]), atol=1e-12
        )

    def test_truncation_with_redistribution_hand_case(self):
        # Eigenvalues [0.9, 0.4, -0.3]: zero -0.3, spread -0.3 over the two
        # survivors -> [0.75, 0.25, 0]; trace 1 needs no rescale.
        np.testing.assert_allclose(
            psd_project(np.diag([0.9, 0.4, -0.3]), 1.0),
            np.diag([0.75, 0.25, 0.0]),
            atol=1e-12,
        )

    def test_trace_hits_target(self):
        # Noisy-estimate shape: valid state plus a small Hermitian perturbation.
        rng = np.random.default_rng(44)
        a = random_density(rng, 3) + 0.05 * random_hermitian(rng, 8)
        for target in (1.0, 4.0):
            out = psd_project(a, target)
            assert abs(np.trace(out).real - target) <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(45)
        a = random_density(rng, 2) + 0.1 * random_hermitian(rng, 4)
        once = psd_project(a, 1.0)
        twice = psd_project(once, 1.0)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_all_non_positive_rejected(self):
        with pytest.raises(DegenerateInputError):
            psd_project(np.diag([-1.0, -2.0]), 1.0)
        with pytest.raises(DegenerateInputError):
            psd_project(np.zeros((2, 2)), 1.0)

    def test_bad_target_rejected(self):
        with pytest.raises(DegenerateInputError):
            psd_project(np.eye(2), 0.0)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(hermitian_matrices())
    def test_hermitian_eig_contract(self, a):
        eig = hermitian_eig(a)
        v = eig.vectors
        assert eig.values.dtype == np.float64
        assert np.all(np.diff(eig.values) >= 0.0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(a.shape[0]), rtol=0, atol=1e-10)
        np.testing.assert_allclose((v * eig.values) @ v.conj().T, a, rtol=0, atol=_tol(a))

    @settings(max_examples=150, deadline=None)
    @given(hermitian_matrices(), st.floats(0.1, 10.0))
    def test_psd_project_is_psd_with_target_trace(self, a, target):
        assume(np.trace(a).real > 1e-3 * (1.0 + float(np.abs(a).max())))
        out = psd_project(a, target)
        np.testing.assert_allclose(out, out.conj().T, rtol=0, atol=1e-12 * target)
        assert abs(np.trace(out).real - target) <= 1e-9 * target
        assert np.linalg.eigvalsh(out).min() >= -1e-9 * target
