"""Density-matrix evolution, noise channels and seeded sampling."""

import hashlib

import numpy as np
import pytest

from quassert.qcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Circuit,
    DensityMatrix,
    circuit_to_unitary,
    embed_single_qubit,
    gate,
)
from quassert.qmath import DimensionError
from quassert.simulator import (
    DEFAULT_NOISE,
    Counts,
    DensityMatrixSimulator,
    NoiseModel,
    _depolarize,
    derive_seed,
    evolve,
    exact_distribution,
    sample,
)

from conftest import random_circuit, random_density


def pauli_twirl_depolarize(mat, qubits, p, n):
    """Reference channel: average of rho conjugated by all 4^k Pauli products."""
    paulis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    acc = np.zeros_like(mat)
    for letters in np.ndindex(*(4,) * len(qubits)):
        op = np.eye(2**n, dtype=np.complex128)
        for q, letter in zip(qubits, letters):
            op = op @ embed_single_qubit(paulis[letter], q, n)
        acc += op @ mat @ op.conj().T
    return (1.0 - p) * mat + (p / 4 ** len(qubits)) * acc


class TestNoiseModel:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing_1q=1.5)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip=-0.1)

    def test_default_preset_values(self):
        assert DEFAULT_NOISE == NoiseModel(0.001, 0.01, 0.001, 0.02)

    def test_trivial(self):
        assert NoiseModel().is_trivial()
        assert not DEFAULT_NOISE.is_trivial()


class TestCounts:
    def test_shot_total_enforced(self):
        with pytest.raises(ValueError):
            Counts(1, {0: 3}, 5)

    def test_marginal_collapses_other_qubits(self):
        counts = Counts(2, {0b00: 10, 0b01: 20, 0b10: 5, 0b11: 15}, 50)
        reduced = counts.marginal([0])
        assert reduced.tallies == {0: 15, 1: 35}
        assert reduced.shots == 50

    def test_marginal_range_check(self):
        with pytest.raises(IndexError):
            Counts(1, {0: 1}, 1).marginal([1])


class TestEvolve:
    def test_empty_circuit_is_identity(self):
        rho = DensityMatrix.ground(2)
        out = evolve(rho, Circuit(2))
        np.testing.assert_allclose(out.mat, rho.mat)

    def test_bell_subroutine_density_matrix(self, bell_circuit):
        out = evolve(DensityMatrix.ground(2), bell_circuit)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0, 3] = expected[3, 0] = -0.5
        np.testing.assert_allclose(out.mat, expected, atol=1e-12)

    def test_full_depolarizing_gives_maximally_mixed(self):
        noise = NoiseModel(depolarizing_1q=1.0)
        rho = DensityMatrix(1, np.diag([1.0, 0.0]))
        out = evolve(rho, Circuit(1, (gate("h", 0),)), noise)
        np.testing.assert_allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_noiseless_matches_unitary_conjugation(self, n_qubits):
        rng = np.random.default_rng(200 + n_qubits)
        for _ in range(5):
            c = random_circuit(rng, n_qubits, 8)
            u = circuit_to_unitary(c)
            rho = DensityMatrix.ground(n_qubits)
            expected = u @ rho.mat @ u.conj().T
            out = evolve(rho, c)
            assert np.max(np.abs(out.mat - expected)) <= 1e-10

    def test_trace_preserved_under_noise(self):
        rng = np.random.default_rng(210)
        for _ in range(5):
            c = random_circuit(rng, 2, 10)
            out = evolve(DensityMatrix.ground(2), c, DEFAULT_NOISE)
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-9

    def test_purity_never_increases_under_depolarizing(self):
        rng = np.random.default_rng(211)
        noise = NoiseModel(depolarizing_1q=0.05, depolarizing_2q=0.05)
        for _ in range(5):
            c = random_circuit(rng, 2, 6)
            before = DensityMatrix.ground(2)
            rho = before
            for op in c.ops:
                after = evolve(rho, Circuit(2, (op,)), noise)
                assert after.purity() <= rho.purity() + 1e-9
                rho = after

    @pytest.mark.parametrize("qubits", [(0,), (2,), (2, 0), (0, 1)])
    def test_depolarize_matches_pauli_twirl(self, qubits):
        rho = random_density(np.random.default_rng(53), 3)
        np.testing.assert_allclose(
            _depolarize(rho, qubits, 0.3, 3),
            pauli_twirl_depolarize(rho, qubits, 0.3, 3),
            rtol=0,
            atol=1e-14,
        )

    def test_amplitude_damping_decays_excited_state(self):
        noise = NoiseModel(amplitude_damping=0.25)
        rho = DensityMatrix(1, np.diag([0.0, 1.0]))
        # Two z gates leave the state alone but apply damping twice.
        out = evolve(rho, Circuit(1, (gate("z", 0), gate("z", 0))), noise)
        assert out.mat[1, 1].real == pytest.approx(0.75**2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            evolve(DensityMatrix.ground(1), Circuit(2))


class TestExactDistribution:
    def test_bell_distribution(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        np.testing.assert_allclose(
            exact_distribution(state).probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12
        )

    def test_mutated_distribution(self, mutated_circuit):
        state = evolve(DensityMatrix.ground(2), mutated_circuit)
        np.testing.assert_allclose(
            exact_distribution(state).probs, [0.0, 0.5, 0.0, 0.5], atol=1e-12
        )

    def test_maximally_mixed(self):
        state = DensityMatrix(1, np.eye(2) / 2)
        np.testing.assert_allclose(exact_distribution(state).probs, [0.5, 0.5])

    def test_premeasure_rotation(self):
        # |0> measured in the X basis is uniform.
        state = DensityMatrix.ground(1)
        dist = exact_distribution(state, Circuit(1, (gate("h", 0),)))
        np.testing.assert_allclose(dist.probs, [0.5, 0.5], atol=1e-12)


class TestSample:
    def test_deterministic_state(self):
        counts = sample(DensityMatrix.ground(1), None, 100, seed=1)
        assert counts.tallies == {0: 100}

    def test_bell_support_and_balance(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        counts = sample(state, None, 3000, seed=5)
        assert set(counts.tallies) <= {0, 3}
        sigma = np.sqrt(3000 * 0.25)
        for k in (0, 3):
            assert abs(counts.tallies.get(k, 0) - 1500) <= 5 * sigma

    def test_same_seed_identical(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        a = sample(state, None, 1000, seed=42)
        b = sample(state, None, 1000, seed=42)
        assert a == b

    def test_different_seeds_differ(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        a = sample(state, None, 10000, seed=1)
        b = sample(state, None, 10000, seed=2)
        assert a.tallies != b.tallies

    def test_certain_readout_flip(self):
        noise = NoiseModel(readout_flip=1.0)
        counts = sample(DensityMatrix.ground(2), None, 50, seed=3, noise=noise)
        assert counts.tallies == {3: 50}

    def test_readout_flip_rate(self):
        noise = NoiseModel(readout_flip=0.1)
        counts = sample(DensityMatrix.ground(1), None, 100000, seed=9, noise=noise)
        rate = counts.tallies.get(1, 0) / 100000
        assert rate == pytest.approx(0.1, abs=0.01)

    def test_premeasure_applied(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        # Rotating both qubits to the X basis maps the Bell state to another
        # two-outcome distribution; sampling must follow the rotated diagonal.
        rotation = Circuit(2, (gate("h", 0), gate("h", 1)))
        expected = exact_distribution(state, rotation).probs
        counts = sample(state, rotation, 100000, seed=11)
        np.testing.assert_allclose(counts.frequencies(), expected, atol=0.01)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample(DensityMatrix.ground(1), None, 0, seed=0)

    def test_convergence_bound_at_1e5_shots(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        shots = 100000
        expected = exact_distribution(state).probs
        counts = sample(state, None, shots, seed=77)
        freq = counts.frequencies()
        for p, f in zip(expected, freq):
            bound = 5.0 * np.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(f - p) <= max(bound, 5.0 / shots)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "case", 0) == derive_seed(1, "case", 0)

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "case", 0)
        assert derive_seed(2, "case", 0) != base
        assert derive_seed(1, "other", 0) != base
        assert derive_seed(1, "case", 1) != base

    def test_64_bit_range(self):
        assert 0 <= derive_seed("anything") < 2**64

    def test_numpy_integers_hash_as_python_ints(self):
        assert derive_seed(np.int64(3), "case", np.uint8(0)) == derive_seed(3, "case", 0)

    def test_plain_int_and_str_bytes_unchanged(self):
        digest = hashlib.sha256("3\x1f'case'\x1f0".encode("utf-8")).digest()
        assert derive_seed(3, "case", 0) == int.from_bytes(digest[:8], "little")


class TestBackendSeam:
    def test_backend_carries_noise(self, bell_circuit):
        noisy = DensityMatrixSimulator(noise=NoiseModel(readout_flip=1.0))
        counts = noisy.sample(DensityMatrix.ground(2), None, 10, seed=0)
        assert counts.tallies == {3: 10}

    def test_backend_methods_match_module_functions(self, bell_circuit):
        backend = DensityMatrixSimulator()
        state = backend.evolve(DensityMatrix.ground(2), bell_circuit)
        np.testing.assert_allclose(
            state.mat, evolve(DensityMatrix.ground(2), bell_circuit).mat
        )
        assert backend.sample(state, None, 100, seed=4) == sample(state, None, 100, seed=4)
