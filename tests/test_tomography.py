"""State and process tomography against exact oracles.

Analytic mode (zero shots) must reproduce the simulator's own output state
and the circuit's Choi matrix exactly; sampled mode must converge with shot
count and stay reproducible under fixed seeds.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from quassert import qmath, simulator, tomography
from quassert.protocols import RunConfig, run_protocol_detailed
from quassert.qcore import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    OutcomeDistribution,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    gate,
    state_fidelity,
)
from quassert.simulator import (
    DEFAULT_NOISE,
    NoiseModel,
    circuit_to_choi,
    evolve,
    pauli_distributions,
    sample,
)
from quassert.tomography import (
    _DUAL,
    SizeLimitError,
    _preparations,
    process_tomography,
    state_tomography,
)

from conftest import (
    POVM_TOL,
    per_setting_pauli_probs,
    random_circuit,
    random_density,
    random_hermitian,
    reference_assemble_choi,
    reference_invert_settings,
    reference_preparations,
    reference_process_estimate,
    reference_process_probs,
    reference_psd_project,
    reference_transposing_process,
    xor_readout,
)

NOISELESS = None
# Batched and one-matrix inversions of the same counts differ in the last bits.
REFERENCE_TOL = 1e-15
# The Choi route and the per-preparation route (conftest) add the same terms in
# other orders; their projected estimates agreed within 2.6e-15 at n = 1-3.
CHOI_ROUTE_TOL = 1e-12
PAULI_BY_LETTER = {"I": np.eye(2), "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def pauli_averaging_inversion(probs_by_setting, n):
    """Reference inversion: average every compatible setting into each
    Pauli-string expectation, then sum the Pauli strings."""
    dim = 2**n
    rho = np.eye(dim, dtype=np.complex128) / dim
    for code in range(1, 4**n):
        letters = tuple("IXYZ"[(code // 4**q) % 4] for q in range(n))
        support = [q for q in range(n) if letters[q] != "I"]
        free = [q for q in range(n) if letters[q] == "I"]
        mask = sum(1 << q for q in support)
        signs = np.array([(-1.0) ** bin(i & mask).count("1") for i in range(dim)])
        base = sum("XYZ".index(letters[q]) * 3**q for q in support)
        total = 0.0
        for combo in range(3 ** len(free)):
            k = base + sum(((combo // 3**idx) % 3) * 3**q for idx, q in enumerate(free))
            total += float(signs @ probs_by_setting[k])
        pauli = np.array([[1.0]])
        for q in reversed(range(n)):
            pauli = np.kron(pauli, PAULI_BY_LETTER[letters[q]])
        rho += total / 3 ** len(free) * pauli / dim
    return rho


def blockwise_choi(outputs, n):
    """Reference Choi assembly: block (row, col) = sum_m coeff(m, row, col) output_m."""
    d = 2**n
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for row in range(d):
        for col in range(d):
            for m, output in enumerate(outputs):
                coeff = 1.0 + 0.0j
                for q in range(n):
                    a = (row >> q) & 1
                    b = (col >> q) & 1
                    coeff *= _DUAL[(m // 4**q) % 4, 2 * a + b]
                choi[row * d : (row + 1) * d, col * d : (col + 1) * d] += coeff * output
    return choi


def preparation_settings(n):
    """Reference preparations: (labels, circuit from |0...0>), qubit 0's label fastest."""
    ops_by_label = {
        "0": lambda q: (),
        "1": lambda q: (gate("x", q),),
        "+": lambda q: (gate("h", q),),
        "+i": lambda q: (gate("h", q), gate("s", q)),
    }
    settings = []
    for m in range(4**n):
        labels = tuple(("0", "1", "+", "+i")[(m // 4**q) % 4] for q in range(n))
        ops = tuple(op for q, label in enumerate(labels) for op in ops_by_label[label](q))
        settings.append((labels, Circuit(n, ops)))
    return settings


def record_results(monkeypatch, name):
    """Record every result of the function the tomography module calls as ``name``."""
    seen = []
    original = getattr(tomography, name)
    monkeypatch.setattr(tomography, name, lambda *args: seen.append(original(*args)) or seen[-1])
    return seen


def record_args(monkeypatch, name):
    """Record the arguments of every call of the function the tomography module calls as ``name``."""
    seen = []
    original = getattr(tomography, name)
    monkeypatch.setattr(tomography, name, lambda *args: seen.append(args) or original(*args))
    return seen


def per_preparation_estimates(preps, subject, noise, shots, seed, drawn_from):
    """Reference path: evolve each preparation and the subject as DensityMatrix
    objects and rotate each setting on its own (:func:`per_setting_pauli_probs`).
    Those probabilities must match ``drawn_from``, the ones the batched path
    read, to ``POVM_TOL``.  Then draw every count from ``drawn_from`` with one
    ``sample`` call, and invert one state at a time, unprojected.

    The counts are drawn from the batched probabilities, not the reference's,
    for two reasons.  An exact zero draws no random number, so the stream
    depends on which probabilities are exactly zero; the probability floor
    makes the two zero sets agree, but only on noiseless stacks.  And numpy's
    binomial takes another branch for p > 0.5, so a last-bit change can move
    a row's counts even with equal zero sets: ``sample`` of the row
    [p, 1 - p] with 100 shots on seed 2 draws [52, 48] for p = 0.5 and
    [48, 52] for p = 0.5 + 1.1e-16."""
    n = subject.n_qubits
    outputs = []
    for prep in preps:
        state = DensityMatrix.ground(n)
        if prep.ops:
            state = evolve(state, prep, noise)
        outputs.append(evolve(state, subject, noise).mat)
    reference = per_setting_pauli_probs(np.array(outputs), n, noise if shots else None)
    np.testing.assert_allclose(drawn_from, reference, rtol=0, atol=POVM_TOL)
    probs = sample(drawn_from, shots, seed) / shots if shots else drawn_from
    return np.array([reference_invert_settings(p, n) for p in probs])


def per_preparation_process_tomography(subject, noise, shots, seed, drawn_from):
    """Reference path: every preparation's linear inversion, each projected, the
    Choi assembly, then one more projection, as the estimator worked before one
    projection of the Choi matrix replaced the per-preparation ones."""
    n = subject.n_qubits
    preps = [prep for _, prep in preparation_settings(n)]
    outputs = per_preparation_estimates(preps, subject, noise, shots, seed, drawn_from)
    outputs = np.array([reference_psd_project(output, 1.0) for output in outputs])
    return ChoiMatrix(n, reference_psd_project(reference_assemble_choi(outputs, n), float(2**n)))


class TestInversionOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shadow_inversion_matches_pauli_averaging(self, n):
        rng = np.random.default_rng(60 + n)
        probs = np.array([rng.dirichlet(np.ones(2**n)) for _ in range(3**n)])
        np.testing.assert_allclose(
            reference_invert_settings(probs, n), pauli_averaging_inversion(probs, n), rtol=0,
            atol=1e-13
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_choi_contraction_matches_blockwise_sum(self, n):
        rng = np.random.default_rng(70 + n)
        outputs = np.array([random_hermitian(rng, 2**n) for _ in range(4**n)])
        np.testing.assert_allclose(
            reference_assemble_choi(outputs, n), blockwise_choi(outputs, n), rtol=0, atol=1e-12
        )


class TestSettings:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_measurement_setting_count(self, n):
        assert len(pauli_distributions(DensityMatrix.ground(n))) == 3**n

    @pytest.mark.parametrize("n", [1, 2])
    def test_preparation_setting_count(self, monkeypatch, n):
        handed = record_args(monkeypatch, "sample")
        process_tomography(Circuit(n), NOISELESS, 10, seed=0)
        assert [args[0].shape for args in handed] == [(1, 4**n, 3**n, 2**n)]

    def test_rotations_diagonalize_their_pauli(self):
        # The +1 eigenstate of each Pauli reads outcome 0 in its own basis.
        paulis = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
        for k, letter in enumerate("XYZ"):
            state = DensityMatrix(1, (np.eye(2) + paulis[letter]) / 2.0)
            probs = pauli_distributions(state)[k]
            np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_rotations_touch_only_their_qubit(self):
        # On a product state, setting k's distribution is the product of each
        # qubit's distribution in its own letter k_q (qubit 0 the low bit).
        rng = np.random.default_rng(11)
        singles = [DensityMatrix(1, random_density(rng, 1)) for _ in range(2)]
        per_qubit = [pauli_distributions(rho) for rho in singles]
        product = DensityMatrix(2, np.kron(singles[1].mat, singles[0].mat))
        for k, probs in enumerate(pauli_distributions(product)):
            expected = np.kron(per_qubit[1][k // 3], per_qubit[0][k % 3])
            np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_preparations_build_expected_states(self):
        vectors = {
            "0": np.array([1, 0], dtype=complex),
            "1": np.array([0, 1], dtype=complex),
            "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
            "+i": np.array([1, 1j], dtype=complex) / np.sqrt(2),
        }
        assert np.array_equal(_preparations(None), reference_preparations(1, None))
        for n in (1, 2):
            stack = reference_preparations(n, None)
            for m, (labels, _) in enumerate(preparation_settings(n)):
                psi = np.array([1.0 + 0j])
                for label in reversed(labels):
                    psi = np.kron(psi, vectors[label])
                np.testing.assert_allclose(stack[m], np.outer(psi, psi.conj()), atol=1e-12)

    @pytest.mark.parametrize(
        "noise",
        [None, DEFAULT_NOISE, NoiseModel(0.05, 0.1, 0.05, 0.1), NoiseModel(0.3, 0.3, 0.7, 0.2)],
        ids=["noiseless", "default_noise", "strong_noise", "heavy_noise"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_preparations_match_evolving_each_circuit(self, n, noise):
        # Exactly Hermitian as built, so the stack needs no symmetrizing.
        stack = reference_preparations(n, noise)
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        for m, (_, prep) in enumerate(preparation_settings(n)):
            expected = evolve(DensityMatrix.ground(n), prep, noise).mat
            assert np.array_equal(stack[m], expected), m
        # Gate noise acts on the gate's qubits only, so each product
        # preparation is the tensor product of the one-qubit ones, up to rounding.
        single = _preparations(noise)
        product = np.ones((1, 1, 1))
        for _ in range(n):
            product = (single[:, None, :, None, :, None] * product[None, :, None, :, None, :]
                       ).reshape(4 * len(product), 2 * product.shape[1], -1)
        np.testing.assert_allclose(product, stack, rtol=0, atol=1e-15)


class TestStateTomography:
    def test_analytic_mode_bell_exact(self, bell_circuit):
        truth = evolve(DensityMatrix.ground(2), bell_circuit)
        estimate = state_tomography(bell_circuit, NOISELESS, 0, seed=0)
        assert np.max(np.abs(estimate.mat - truth.mat)) <= 1e-9

    def test_analytic_mode_identity_circuit(self):
        estimate = state_tomography(Circuit(1), NOISELESS, 0, seed=0)
        np.testing.assert_allclose(estimate.mat, np.diag([1.0, 0.0]), atol=1e-9)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_analytic_mode_matches_evolve(self, n_qubits):
        rng = np.random.default_rng(300 + n_qubits)
        for _ in range(3):
            prep = random_circuit(rng, n_qubits, 3)
            subject = random_circuit(rng, n_qubits, 6)
            truth = evolve(evolve(DensityMatrix.ground(n_qubits), prep), subject)
            estimate = state_tomography(
                Circuit(n_qubits, prep.ops + subject.ops), NOISELESS, 0, seed=0
            )
            assert np.max(np.abs(estimate.mat - truth.mat)) <= 1e-9

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_analytic_mode_reconstructs_the_noisy_state(self, n_qubits):
        rng = np.random.default_rng(310 + n_qubits)
        subject = random_circuit(rng, n_qubits, 6)
        truth = evolve(DensityMatrix.ground(n_qubits), subject, DEFAULT_NOISE)
        estimate = state_tomography(subject, DEFAULT_NOISE, 0, seed=0)
        assert np.max(np.abs(estimate.mat - truth.mat)) <= 1e-9

    def test_sampled_bell_high_fidelity(self, bell_circuit):
        truth = evolve(DensityMatrix.ground(2), bell_circuit)
        estimate = state_tomography(bell_circuit, NOISELESS, 3000, seed=17)
        assert state_fidelity(estimate, truth) >= 0.99

    def test_fidelity_improves_with_shots(self, bell_circuit):
        truth = evolve(DensityMatrix.ground(2), bell_circuit)
        means = []
        for shots in (10, 100, 1000, 10000):
            fids = [
                state_fidelity(
                    state_tomography(bell_circuit, NOISELESS, shots, seed=s), truth
                )
                for s in range(20)
            ]
            means.append(float(np.mean(fids)))
        for lo, hi in zip(means, means[1:]):
            assert hi >= lo - 0.005
        assert means[-1] > means[0]

    def test_deterministic_under_seed(self, bell_circuit):
        a = state_tomography(bell_circuit, NOISELESS, 500, seed=9)
        b = state_tomography(bell_circuit, NOISELESS, 500, seed=9)
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            state_tomography(Circuit(5), NOISELESS, 0, seed=0)

    @pytest.mark.parametrize("bad", [10.5, 10.0, True, False],
                             ids=["fraction", "float", "true", "false"])
    def test_non_integer_shots_rejected(self, bad):
        # A float would divide int(shots) counts by it: frequencies not summing to 1.
        for tomography_fn in (state_tomography, process_tomography):
            with pytest.raises(ValueError, match="shots_per_setting must be an integer"):
                tomography_fn(Circuit(1, (gate("h", 0),)), NOISELESS, bad, seed=0)

    def test_numpy_integer_shots_accepted(self, bell_circuit):
        a = state_tomography(bell_circuit, NOISELESS, np.int64(40), seed=3)
        b = state_tomography(bell_circuit, NOISELESS, 40, seed=3)
        np.testing.assert_array_equal(a.mat, b.mat)

    @pytest.mark.parametrize("shots", [0, 40, 1000])
    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_one_state_path(self, monkeypatch, n, noise, shots):
        rng = np.random.default_rng(700 + 10 * n + shots % 7)
        seen = record_results(monkeypatch, "pauli_distributions")
        for trial in range(2):
            subject = random_circuit(rng, n, 4 + 3 * trial)
            estimate = state_tomography(subject, noise, shots, seed=41 + trial)
            reference = per_preparation_estimates(
                [Circuit(n)], subject, noise, shots, 41 + trial, seen[-1]
            )
            np.testing.assert_allclose(estimate.mat, reference_psd_project(reference[0], 1.0),
                                       rtol=0, atol=REFERENCE_TOL)

    def test_estimate_is_valid_state(self, mutated_circuit):
        estimate = state_tomography(mutated_circuit, NOISELESS, 50, seed=1)
        assert abs(np.trace(estimate.mat).real - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(estimate.mat).min() >= -1e-10


class TestProcessTomography:
    def test_analytic_identity_channel(self):
        estimate = process_tomography(Circuit(1), NOISELESS, 0, seed=0)
        expected = np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        assert np.max(np.abs(estimate.mat - expected)) <= 1e-8

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_analytic_matches_circuit_choi(self, n_qubits):
        rng = np.random.default_rng(400 + n_qubits)
        for _ in range(3):
            subject = random_circuit(rng, n_qubits, 6)
            truth = circuit_to_choi(subject)
            estimate = process_tomography(subject, NOISELESS, 0, seed=0)
            assert np.max(np.abs(estimate.mat - truth.mat)) <= 1e-8

    def test_sampled_separates_correct_from_mutated(self, bell_circuit, mutated_circuit):
        from quassert.qcore import process_fidelity

        reference = circuit_to_choi(bell_circuit)
        estimate = process_tomography(mutated_circuit, NOISELESS, 3000, seed=23)
        assert process_fidelity(estimate, reference) <= 0.05

    def test_trace_is_two_to_n(self, bell_circuit):
        estimate = process_tomography(bell_circuit, NOISELESS, 200, seed=3)
        assert np.trace(estimate.mat).real == pytest.approx(4.0, abs=1e-9)

    def test_deterministic_under_seed(self):
        c = Circuit(1, (gate("h", 0),))
        a = process_tomography(c, NOISELESS, 300, seed=8)
        b = process_tomography(c, NOISELESS, 300, seed=8)
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            process_tomography(Circuit(4), NOISELESS, 0, seed=0)

    @pytest.mark.parametrize(
        "n, shots",
        [(1, 0), (1, 40), (1, 1000), (2, 0), (2, 40), (2, 1000), (3, 0), (3, 40)],
    )
    @pytest.mark.parametrize(
        "noise",
        [None, DEFAULT_NOISE, NoiseModel(readout_flip=0.05), NoiseModel(0.05, 0.1, 0.07, 0.1)],
        ids=["noiseless", "default_noise", "readout_only", "strong_noise"],
    )
    def test_matches_per_preparation_path(self, monkeypatch, n, shots, noise):
        """The Choi route hands ``sample`` the per-preparation route's
        probabilities (conftest) in the same row order, and estimates what
        that route estimates from the same counts, or analytically."""
        rng = np.random.default_rng(500 + 10 * n + shots % 7)
        handed = record_args(monkeypatch, "sample")
        for trial in range(3):
            subject = random_circuit(rng, n, 4 + 3 * trial)
            estimate = process_tomography(subject, noise, shots, seed=31 + trial)
            freqs = reference_process_probs(subject, noise, shots)
            if shots:
                # Drawn from the handed rows, for the reasons
                # per_preparation_estimates gives.
                (probs,), _, seed = handed[-1]
                assert probs.shape == freqs.shape and seed == 31 + trial
                np.testing.assert_allclose(probs, freqs, rtol=0, atol=POVM_TOL)
                if noise is None:
                    np.testing.assert_array_equal(probs == 0.0, freqs == 0.0)
                freqs = sample(probs, shots, seed) / shots
            reference = reference_psd_project(reference_process_estimate(freqs, n), 2.0**n)
            np.testing.assert_allclose(estimate.mat, reference, rtol=0, atol=CHOI_ROUTE_TOL)

    @pytest.mark.parametrize("shots", [0, 40])
    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_transposing_route(self, monkeypatch, n, noise, shots):
        """Reading the Choi matrix's four index groups in its own layout draws
        the counts and gives the estimate, bit for bit, of regrouping its bits
        into per-qubit pairs and transposing the rows (conftest)."""
        rng = np.random.default_rng(540 + 10 * n + shots % 7)
        drawn = record_results(monkeypatch, "sample")
        for trial in range(3):
            subject = random_circuit(rng, n, 4 + 3 * trial)
            estimate = process_tomography(subject, noise, shots, seed=61 + trial)
            counts, reference = reference_transposing_process(subject, noise, shots, 61 + trial)
            assert len(drawn) == (trial + 1 if shots else 0)
            if shots:
                assert np.array_equal(drawn[-1], counts[None])
            assert np.array_equal(estimate.mat, reference)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_projection_at_least_as_faithful_as_two(self, monkeypatch, n):
        # The same counts, reconstructed by projecting only the Choi matrix and
        # by also projecting each preparation's estimate first.
        from quassert.qcore import process_fidelity

        rng = np.random.default_rng(900 + n)
        handed = record_args(monkeypatch, "sample")
        once, twice = [], []
        for seed in range(20):
            subject = random_circuit(rng, n, 6)
            truth = circuit_to_choi(subject)
            once.append(process_fidelity(process_tomography(subject, NOISELESS, 40, seed), truth))
            reference = per_preparation_process_tomography(
                subject, NOISELESS, 40, seed, handed[-1][0][0]
            )
            twice.append(process_fidelity(reference, truth))
        assert np.mean(once) >= np.mean(twice)


def pooled_chi2_pvalue(counts, probs):
    """Pearson chi-squared p-value of count rows, pooled over seeds, against
    their exact probabilities.

    Bins of probability below 1e-12 must stay empty and add no degree of
    freedom; every other bin must expect at least 5 counts, so the
    chi-squared approximation holds.
    """
    counts = counts.reshape(-1, counts.shape[-1])
    probs = probs.reshape(counts.shape)
    expected = counts.sum(axis=1, keepdims=True) * probs
    live = probs >= 1e-12
    assert not counts[~live].any()
    assert expected[live].min() >= 5.0
    statistic = float(np.sum((counts - expected)[live] ** 2 / expected[live]))
    dof = int(np.sum(live.sum(axis=1) - 1))
    return chi2.sf(statistic, dof) if dof else 1.0


class TestEstimateSpectrum:
    """Each estimate keeps the spectrum its projection rebuilt it from, divided
    by its trace, and validation would store the same matrix."""

    @pytest.mark.parametrize("shots", [0, 100])
    @pytest.mark.parametrize("kind, n", [("state", 1), ("state", 4), ("process", 1),
                                         ("process", 2)])
    def test_validation_would_store_the_same_estimate(self, kind, n, shots):
        run, cls = (state_tomography, DensityMatrix) if kind == "state" else (
            process_tomography, ChoiMatrix)
        trace = 1 if kind == "state" else 2**n
        subject = random_circuit(np.random.default_rng(620 + n), n, 6)
        estimate = run(subject, DEFAULT_NOISE, shots, seed=5)
        assert type(estimate) is cls and not estimate.mat.flags.writeable
        validated = cls(n, estimate.mat)
        assert np.array_equal(validated.mat, estimate.mat)
        values, vectors = estimate._spectrum
        np.testing.assert_allclose(values, validated._spectrum[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose((vectors * values) @ vectors.conj().T, estimate.mat / trace,
                                   rtol=0, atol=1e-12)


class TestPooledCounts:
    """Counts pooled over many seeds follow the readout-confused exact
    distribution of every setting, for each readout flip rate."""

    SEEDS = range(40)
    SHOTS = 500

    @staticmethod
    def noise(flip):
        return NoiseModel(0.02, 0.05, 0.02, flip)

    @pytest.mark.parametrize("flip", [0.0, 0.02, 0.3, 1.0])
    def test_proj(self, flip):
        n = 3
        subject = random_circuit(np.random.default_rng(800), n, 8)
        noise = self.noise(flip)
        uniform = OutcomeDistribution(n, np.full(2**n, 2.0**-n))
        pooled = np.zeros(2**n, dtype=np.int64)
        for seed in self.SEEDS:
            _, artifacts = run_protocol_detailed(
                subject, uniform, RunConfig(shots=self.SHOTS, seed=seed, noise=noise)
            )
            pooled += artifacts["counts"]
        state = evolve(DensityMatrix.ground(n), subject, noise)
        exact = xor_readout(np.diag(state.mat).real, noise)
        assert pooled_chi2_pvalue(pooled, exact) > 1e-3

    @pytest.mark.parametrize("flip", [0.0, 0.02, 0.3, 1.0])
    def test_state_tomography_settings(self, monkeypatch, flip):
        n = 2
        subject = random_circuit(np.random.default_rng(810), n, 6)
        noise = self.noise(flip)
        drawn = record_results(monkeypatch, "sample")
        for seed in self.SEEDS:
            state_tomography(subject, noise, self.SHOTS, seed)
        output = evolve(DensityMatrix.ground(n), subject, noise).mat[None]
        exact = per_setting_pauli_probs(output, n, noise)
        assert len(drawn) == len(self.SEEDS)
        assert pooled_chi2_pvalue(sum(drawn), exact) > 1e-3

    @pytest.mark.parametrize("flip", [0.0, 0.02, 0.3, 1.0])
    def test_process_tomography_settings(self, monkeypatch, flip):
        n = 1
        subject = Circuit(n, (gate("rx", 0, angle=0.9), gate("t", 0)))
        noise = self.noise(flip)
        drawn = record_results(monkeypatch, "sample")
        for seed in self.SEEDS:
            process_tomography(subject, noise, self.SHOTS, seed)
        outputs = np.array([
            evolve(evolve(DensityMatrix.ground(n), prep, noise), subject, noise).mat
            for _, prep in preparation_settings(n)
        ])
        exact = per_setting_pauli_probs(outputs, n, noise)
        assert len(drawn) == len(self.SEEDS)
        assert pooled_chi2_pvalue(sum(drawn), exact) > 1e-3


class TestWorkCounts:
    """Regression guard for the batched path's work: gate expansions and sample draws."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        original = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    POVM_OPS = [op for rotation in simulator._PAULI_ROTATIONS for op in rotation.ops]

    @staticmethod
    def cold_expansions(*runs):
        """Gate expansions that evolving each (ops, noise model) run makes from a cold
        channel cache: one per distinct angle-free (name, k, noise model), one per rotation."""
        ops = [(op, noise) for run_ops, noise in runs for op in run_ops]
        fixed = {(op.name, len(op.qubits), noise) for op, noise in ops if op.angle is None}
        return len(fixed) + sum(op.angle is not None for op, _ in ops)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pauli_povm_expands_3_gates_once(self, monkeypatch, n):
        # The POVM's three rotation gates, h, sdg and h, share two channels.
        simulator.pauli_povm.cache_clear()
        simulator._superop.cache_clear()
        expansions = self.count_calls(monkeypatch, simulator, "expanded_gate_matrix")
        pauli_distributions(DensityMatrix.ground(n), DEFAULT_NOISE)
        pauli_distributions(DensityMatrix.ground(n), DEFAULT_NOISE)
        assert len(expansions) == self.cold_expansions((self.POVM_OPS, DEFAULT_NOISE)) == 2
        # A rebuilt POVM finds its channels cached.
        simulator.pauli_povm.cache_clear()
        pauli_distributions(DensityMatrix.ground(n), DEFAULT_NOISE)
        assert len(expansions) == 2

    @pytest.mark.parametrize("shots", [0, 10])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_process_tomography_expands_g_gates_once_warm(self, monkeypatch, n, shots):
        subject = random_circuit(np.random.default_rng(600 + n), n, 5)
        rotations = [(op.name, op.angle) for op in subject.ops if op.angle is not None]
        assert rotations
        simulator.pauli_povm.cache_clear()
        tomography._forward.cache_clear()
        simulator._superop.cache_clear()
        expansions = self.count_calls(monkeypatch, simulator, "expanded_gate_matrix")
        process_tomography(subject, DEFAULT_NOISE, shots, seed=2)
        # The first call also builds the forward map from the one-qubit
        # preparations, noisy, and the POVM: noisy in sampled mode, noiseless in
        # analytic mode.
        prep_ops = [gate(g, 0) for gates in tomography._PREP_GATES.values() for g in gates]
        assert len(expansions) == self.cold_expansions(
            (prep_ops, DEFAULT_NOISE), (subject.ops, DEFAULT_NOISE),
            (self.POVM_OPS, DEFAULT_NOISE if shots else None))
        expansions.clear()
        draws = self.count_calls(monkeypatch, tomography, "sample")
        projections = self.count_calls(monkeypatch, qmath, "psd_project")
        process_tomography(subject, DEFAULT_NOISE, shots, seed=2)
        # Warm, only the subject's rotations are built, once each.
        assert [(op.name, op.angle) for op, _ in expansions] == rotations
        assert [a[0].shape for a in draws] == ([(1, 4**n, 3**n, 2**n)] if shots else [])
        assert [a.shape for a, _ in projections] == [(1, 4**n, 4**n)]

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_process_tomography_evolves_one_choi_matrix(self, monkeypatch, n, noise):
        # The subject runs once, on the 2n-qubit |Omega><Omega| that
        # circuit_to_choi evolves, under the run's noise in both modes.
        subject = random_circuit(np.random.default_rng(630 + n), n, 5)
        runs = self.count_calls(monkeypatch, simulator, "evolve")
        for shots in (0, 10):
            process_tomography(subject, noise, shots, seed=2)
        assert len(runs) == 2
        for mats, c, run_noise in runs:
            assert mats is simulator._omega(n)
            assert c == Circuit(2 * n, subject.ops) and run_noise is noise

    @pytest.mark.parametrize("shots", [0, 10])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_state_tomography_projects_once(self, monkeypatch, n, shots):
        subject = random_circuit(np.random.default_rng(610 + n), n, 5)
        projections = self.count_calls(monkeypatch, qmath, "psd_project")
        draws = self.count_calls(monkeypatch, tomography, "sample")
        state_tomography(subject, DEFAULT_NOISE, shots, seed=2)
        assert [a.shape for a, _ in projections] == [(1, 2**n, 2**n)]
        assert [a[0].shape for a in draws] == ([(1, 3**n, 2**n)] if shots else [])
