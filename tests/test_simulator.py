"""Density-matrix evolution, noise channels and seeded sampling."""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from quassert import simulator
from quassert.qcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    GATES,
    Circuit,
    DensityMatrix,
    GateOp,
    embed_single_qubit,
    gate,
    process_fidelity,
)
from quassert.qmath import DimensionError, NumericError
from quassert.simulator import (
    DEFAULT_NOISE,
    PROBABILITY_FLOOR,
    NoiseModel,
    _FUSE_FROM_QUBITS,
    _blocks,
    _evolve_mat,
    _gate_superop,
    _noise_superop,
    _normalized,
    apply_readout,
    circuit_to_choi,
    derive_seed,
    evolve,
    exact_distribution,
    pauli_distributions,
    pauli_povm,
    sample,
)
from quassert.tomography import _forward, process_tomography, state_tomography

from conftest import (
    GATE_POOL_1Q,
    GATE_POOL_2Q,
    GATE_POOL_ROT,
    KERNEL_TOL,
    POVM_TOL,
    circuit_to_unitary,
    density_matrices,
    dense_conjugation,
    kron_readout_mask,
    pauli_rotation,
    per_setting_pauli_probs,
    random_circuit,
    random_density,
    random_pure_state,
    reference_amplitude_damp,
    reference_apply_channel,
    reference_block_evolve,
    reference_choi,
    reference_depolarize,
    reference_evolve_mat,
    reference_preparations,
    xor_readout,
)


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


def noise_channel(mats, qubits, noise, n):
    """The noise that follows a gate on ``qubits``, on its own."""
    return reference_apply_channel(mats, _noise_superop(len(qubits), noise), qubits, n)


def kraus_amplitude_damp(mat, qubit, gamma, n):
    """Reference channel: sum of K rho K^dag over the embedded damping Kraus operators."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    out = np.zeros_like(mat)
    for k in (embed_single_qubit(k0, qubit, n), embed_single_qubit(k1, qubit, n)):
        out += k @ mat @ k.conj().T
    return out


def per_outcome_readout(probs, shots, seed, p):
    """Reference sampler: draw the true outcomes, then one multinomial
    flip-pattern draw per observed outcome."""
    rng = np.random.default_rng(np.uint64(seed))
    raw = rng.multinomial(shots, probs)
    mask_probs = kron_readout_mask(int(np.log2(probs.size)), p)
    flipped = np.zeros_like(raw)
    for outcome, count in enumerate(raw):
        if count:
            for mask, c in enumerate(rng.multinomial(int(count), mask_probs)):
                flipped[outcome ^ mask] += c
    return flipped


class TestNoiseModel:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing_1q=1.5)
        with pytest.raises(ValueError):
            NoiseModel(readout_flip=-0.1)

    @pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "string"])
    def test_strength_is_a_real_number(self, value):
        # The threshold rule: a real number, not a bool, in [0, 1].
        with pytest.raises(ValueError, match="depolarizing_1q must be in"):
            NoiseModel(depolarizing_1q=value)

    def test_default_preset_values(self):
        assert DEFAULT_NOISE == NoiseModel(0.001, 0.01, 0.001, 0.02)

    @pytest.mark.parametrize("noise", ["default", {"a": 1}], ids=["str", "dict"])
    @pytest.mark.parametrize("seam", [
        lambda c, noise: evolve(DensityMatrix.ground(1), c, noise),
        lambda c, noise: pauli_distributions(DensityMatrix.ground(1), noise),
        lambda c, noise: state_tomography(c, noise, 10, 0),
        lambda c, noise: process_tomography(c, noise, 10, 0),
    ], ids=["evolve", "pauli_distributions", "state_tomography", "process_tomography"])
    def test_seams_reject_a_noise_that_is_not_a_model(self, seam, noise):
        c = Circuit(1, (gate("h", 0),))
        with pytest.raises(ValueError, match="noise must be a NoiseModel or None, got "
                                             + type(noise).__name__):
            seam(c, noise)


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
            noise_channel(rho, qubits, NoiseModel(depolarizing_1q=0.3, depolarizing_2q=0.3), 3),
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

    @pytest.mark.parametrize("gamma", [0.001, 0.3, 1.0])
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_amplitude_damp_matches_kraus_sum(self, n_qubits, gamma):
        rho = random_density(np.random.default_rng(54 + n_qubits), n_qubits)
        damping = NoiseModel(amplitude_damping=gamma)
        for qubit in range(n_qubits):
            np.testing.assert_allclose(
                noise_channel(rho, (qubit,), damping, n_qubits),
                kraus_amplitude_damp(rho, qubit, gamma, n_qubits),
                rtol=0,
                atol=KERNEL_TOL,
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            evolve(DensityMatrix.ground(1), Circuit(2))
        with pytest.raises(DimensionError):
            evolve(np.stack([np.eye(2) / 2]), Circuit(2))
        with pytest.raises(DimensionError):
            evolve(np.eye(4) / 4, Circuit(2))

    @pytest.mark.parametrize("state", [np.array(1 + 0j), np.zeros((0, 2, 2), complex),
                                       [[[1, 0], [0]]]],
                             ids=["scalar", "empty_stack", "ragged_list"])
    def test_scalar_and_empty_stack_rejected(self, state):
        for run in (lambda: evolve(state, Circuit(1)), lambda: pauli_distributions(state)):
            with pytest.raises(DimensionError, match=r"expected a \(B, 2\^n, 2\^n\) stack"):
                run()

    def test_nested_list_is_read_as_a_stack(self):
        rows = [[[1, 0], [0, 0]]]
        ground = np.array(rows, dtype=np.complex128)
        for c in (Circuit(1), Circuit(1, (gate("h", 0),))):
            out = evolve(rows, c)
            assert out.dtype == np.complex128 and np.array_equal(out, evolve(ground, c))
        assert np.array_equal(pauli_distributions(rows), pauli_distributions(ground))

    @pytest.mark.parametrize("dtype", [np.int64, np.complex128])
    def test_empty_circuit_returns_a_new_complex_stack(self, dtype):
        stack = np.array([[[1, 0], [0, 0]]], dtype=dtype)
        out = evolve(stack, Circuit(1))
        assert out.dtype == np.complex128 and not np.shares_memory(out, stack)
        assert np.array_equal(out, stack)


def every_gate_kind(n):
    """One op of each gate kind that fits on n qubits, on varying qubits."""
    ops = [gate(name, i % n) for i, name in enumerate(GATE_POOL_1Q)]
    ops += [gate(name, i % n, angle=0.3 + i) for i, name in enumerate(GATE_POOL_ROT)]
    if n > 1:
        ops += [gate(name, i % n, (i + 1) % n) for i, name in enumerate(GATE_POOL_2Q)]
    return ops


class TestStackedEvolution:
    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_matches_per_matrix_loop(self, n, noise):
        rng = np.random.default_rng(80 + n)
        stack = np.array([random_density(rng, n) for _ in range(5)])
        for op in every_gate_kind(n):
            c = Circuit(n, (op,))
            evolved = _evolve_mat(stack, c, noise)
            for mat, out in zip(stack, evolved):
                assert np.array_equal(out, _evolve_mat(mat, c, noise)), op
        # Two leading axes, as the settings-by-preparations stack has.
        c = Circuit(n, tuple(every_gate_kind(n)))
        grid = stack.reshape((5, 1) + stack.shape[1:])
        assert np.array_equal(_evolve_mat(grid, c, noise)[:, 0], _evolve_mat(stack, c, noise))

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    def test_density_matrix_is_the_one_matrix_stack(self, noise):
        rng = np.random.default_rng(85)
        c = random_circuit(rng, 3, 12)
        state = DensityMatrix(3, random_density(rng, 3))
        raw = evolve(state.mat[None], c, noise)
        assert raw.shape == (1, 8, 8)
        assert np.array_equal(evolve(state, c, noise).mat, (raw[0] + raw[0].conj().T) / 2.0)


class TestCarriedLayout:
    """_evolve_mat keeps the stack in the last block's axis order between
    blocks; the block-by-block reference restores the plain order after every
    block of _blocks.  The matmuls see the same rows and the same columns,
    reordered, so the results agree bit for bit.  Below _FUSE_FROM_QUBITS each
    block is one gate, so there the reference is the gate-by-gate kernel."""

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_gate_by_gate_kernel(self, n, noise):
        rng = np.random.default_rng(940 + n)
        stack = np.array([random_density(rng, n) for _ in range(5)])
        inputs = [stack[0], stack[:1], stack, stack.reshape((5, 1) + stack.shape[1:])]
        c = random_circuit(rng, n, 3 * n + 2)
        runs = Circuit(n, tuple(op for op in c.ops for _ in range(2)))  # each second copy skipped
        for circuit in (c, runs):
            for mats in inputs:
                out = _evolve_mat(mats, circuit, noise)
                assert out.shape == mats.shape
                assert np.array_equal(out, reference_block_evolve(mats, circuit, noise))
                if n < _FUSE_FROM_QUBITS:
                    assert np.array_equal(out, reference_evolve_mat(mats, circuit, noise))

    def test_one_copy_per_change_of_axes(self, monkeypatch):
        copies = []
        copyto = np.copyto
        monkeypatch.setattr(np, "copyto", lambda dst, src: copies.append(1) or copyto(dst, src))
        c = Circuit(2, (gate("h", 0), gate("rz", 0, angle=0.3), gate("cx", 0, 1),
                        gate("cz", 0, 1), gate("cx", 1, 0)))
        _evolve_mat(DensityMatrix.ground(2).mat, c, DEFAULT_NOISE)
        assert len(copies) == 3  # before h, cx(0, 1) and cx(1, 0)
        copies.clear()
        _evolve_mat(DensityMatrix.ground(1).mat, Circuit(1, (gate("h", 0),) * 3), None)
        assert not copies  # a one-qubit register's bits are in front already

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    def test_read_only_input_left_unchanged(self, noise):
        mats = DensityMatrix.ground(3).mat[None]
        assert not mats.flags.writeable
        before = mats.copy()
        c = random_circuit(np.random.default_rng(950), 3, 10)
        out = _evolve_mat(mats, c, noise)
        assert np.array_equal(mats, before) and not np.shares_memory(out, mats)


@st.composite
def fusable_circuits(draw):
    """Hypothesis strategy: a circuit on 1-7 qubits of every gate kind, with
    runs of one-qubit gates, two-qubit gates repeated on one pair in either
    order (``cx(a, b)`` then ``cx(b, a)``), and circuits of one-qubit gates only."""
    n = draw(st.integers(1, 7))
    two_qubit = n > 1 and draw(st.booleans())
    kinds = ["fixed", "rotation"] + (["pair", "same_pair"] if two_qubit else [])
    ops, pair = [], None
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=5 * n)):
        if kind in ("fixed", "rotation"):
            q = draw(st.integers(0, n - 1))
            ops.append(gate(draw(st.sampled_from(GATE_POOL_1Q)), q) if kind == "fixed" else
                       gate(draw(st.sampled_from(GATE_POOL_ROT)), q,
                            angle=draw(st.floats(-np.pi, np.pi))))
            continue
        if kind == "pair" or pair is None:
            pair = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                       unique=True)))
        pair = pair[::-1] if draw(st.booleans()) else pair
        ops.append(gate(draw(st.sampled_from(GATE_POOL_2Q)), *pair))
    return Circuit(n, tuple(ops))


STRONG_NOISE = NoiseModel(depolarizing_1q=0.3, depolarizing_2q=0.5, amplitude_damping=0.2)


class TestFusedBlocks:
    """From _FUSE_FROM_QUBITS qubits on, _blocks fuses each circuit into
    channels on at most two qubits: within KERNEL_TOL of the gate-by-gate
    kernel, with one matmul per block and each gate's channel built once."""

    @settings(max_examples=120, deadline=None)
    @given(fusable_circuits(), st.sampled_from([None, DEFAULT_NOISE, STRONG_NOISE]),
           st.integers(0, 2**32 - 1))
    def test_matches_the_gate_by_gate_kernel(self, c, noise, seed):
        n = c.n_qubits
        stack, grid = TestGateKernel.inputs(np.random.default_rng(seed), n)[:2]
        for mats in (stack, grid):  # two density matrices and a non-Hermitian one
            out = _evolve_mat(mats, c, noise)
            expected = reference_evolve_mat(mats, c, noise)
            assert out.shape == mats.shape
            if n < _FUSE_FROM_QUBITS:
                assert np.array_equal(out, expected)
            else:
                assert np.max(np.abs(out - expected)) <= KERNEL_TOL

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", range(1, _FUSE_FROM_QUBITS))
    def test_small_registers_keep_one_block_per_gate(self, n, noise):
        ops = tuple(every_gate_kind(n)) + random_circuit(np.random.default_rng(970 + n), n, 20).ops
        blocks = _blocks(ops, noise, n)
        assert [qubits for qubits, _ in blocks] == [op.qubits for op in ops]
        for (_, channel), op in zip(blocks, ops):
            if op.angle is None:
                assert channel is _gate_superop(op, noise)
            else:
                assert np.array_equal(channel, _gate_superop(op, noise))

    def test_runs_fold_into_pairs(self):
        c = Circuit(5, (gate("h", 0), gate("cx", 0, 1), gate("rz", 1, angle=0.3),
                        gate("x", 3), gate("cx", 1, 0), gate("cz", 2, 4), gate("cz", 0, 1),
                        gate("t", 0), gate("s", 3), gate("swap", 4, 2), gate("y", 2)))
        assert [qubits for qubits, _ in _blocks(c.ops, None, 5)] == [(0, 1), (2, 4), (3,)]

    @pytest.mark.parametrize("n", range(_FUSE_FROM_QUBITS, 8))
    def test_one_matmul_and_at_most_one_copy_per_block(self, monkeypatch, n):
        rng = np.random.default_rng(980 + n)
        mats = np.array([random_density(rng, n) for _ in range(3)])
        c = random_circuit(rng, n, 5 * n)
        blocks = _blocks(c.ops, DEFAULT_NOISE, n)
        assert len(blocks) < len(c.ops)
        calls = Counter()

        def counting(name, fn):
            return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting("matmul", np.matmul))
        monkeypatch.setattr(np, "copyto", counting("copyto", np.copyto))
        monkeypatch.setattr(simulator, "_gate_superop", counting("superop", _gate_superop))
        _evolve_mat(mats, c, DEFAULT_NOISE)
        assert calls["matmul"] == len(blocks)
        assert calls["copyto"] <= len(blocks)
        assert calls["superop"] == len(c.ops)


@st.composite
def diagonal_cases(draw):
    """Hypothesis strategy: a circuit of :func:`fusable_circuits`, empty and
    one-qubit-only ones included, moved when drawn onto a register one qubit
    larger whose extra qubit, at any index, no gate touches."""
    c = draw(fusable_circuits())
    if c.n_qubits < 7 and draw(st.booleans()):
        idle = draw(st.integers(0, c.n_qubits))
        c = Circuit(c.n_qubits + 1, tuple(
            GateOp(op.name, tuple(q + (q >= idle) for q in op.qubits), op.angle) for op in c.ops))
    return c


def partly_cold(rng, n, live):
    """A random density matrix on the qubits ``live`` (a proper subset makes
    the others cold), |0><0| on every other qubit of n."""
    small = np.arange(2 ** len(live))
    place = sum((small >> m & 1) << q for m, q in enumerate(live))
    mat = np.zeros((2**n, 2**n), dtype=np.complex128)
    mat[np.ix_(place, place)] = random_density(rng, len(live))
    return mat


def chain_circuit(n):
    """h then cx(q, q + 1) on each qubit in turn, a rotation on each target:
    fused, one block per pair, qubit q finishing at block q (the last two together)."""
    ops = [gate("h", 0)]
    for q in range(n - 1):
        ops += [gate("cx", q, q + 1), gate("ry", q + 1, angle=0.3 + q)]
    return Circuit(n, tuple(ops))


# Pinned circuits for the light cone of a diagonal evolution, each on the
# ground state of 5-7 qubits.
CONE_CASES = {
    # qubits 0 and 1 share one block, which they both join and finish in,
    # while qubits 2-4 hold bit axes
    "pair_starts_and_finishes": lambda n: Circuit(n, (
        gate("h", 2), gate("cx", 2, 3), gate("rx", 3, angle=0.7), gate("cx", 3, 4),
        gate("h", 0), gate("cx", 0, 1), gate("ry", 1, angle=0.3), gate("cx", 4, 2))),
    # qubit n - 1 is touched by one-qubit gates only: one block of its own
    "one_qubit_gates_only": lambda n: Circuit(n, (
        gate("h", n - 1), gate("ry", n - 1, angle=0.4), gate("t", n - 1),
        gate("h", 0), gate("cx", 0, 2), gate("rz", 2, angle=1.1))),
    # block (1, 3) reads qubit 3's two bit axes with 2 columns per matrix (the
    # finished qubit 4); without the 4-column floor its last bits move
    "narrow_operand": lambda n: Circuit(n, (
        gate("rx", 4, angle=0.5), gate("swap", 3, 4), gate("rx", 3, angle=1.0),
        gate("cx", 1, 3))),
}


class TestDiagonalEvolution:
    """evolve(..., diagonal=True) returns the real computational-basis
    diagonals of the full evolution bit for bit.  From _FUSE_FROM_QUBITS
    qubits on each qubit is evolved only between its first and last block:
    a qubit cold in the input (bit 0 in every nonzero entry, as in the ground
    state) carries no bit axes before its first block, and each qubit keeps
    one bit axis after its last.  So each block's matmul reads B * 2^(live
    bit axes) entries, padded to 4 columns per matrix at least."""

    @settings(max_examples=150, deadline=None)
    @given(diagonal_cases(), st.sampled_from([None, DEFAULT_NOISE, STRONG_NOISE]),
           st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_bit_equal_to_the_full_diagonal(self, c, noise, b, seed):
        n = c.n_qubits
        stack = np.array([random_density(np.random.default_rng(seed), n) for _ in range(b)])
        stack.flags.writeable = False
        before = stack.copy()
        ground = DensityMatrix.ground(n)
        rng = np.random.default_rng(seed)
        live = sorted(rng.permutation(n)[: rng.integers(1, n)]) if n > 1 else [0]
        partial = partly_cold(rng, n, live)[None]
        for state in (stack, ground.mat[None], ground, DensityMatrix(n, stack[0]), partial):
            out = evolve(state, c, noise, diagonal=True)
            full = evolve(state, c, noise)
            full = full.mat if isinstance(full, DensityMatrix) else full
            expected = np.diagonal(full, axis1=-2, axis2=-1).real
            assert out.dtype == np.float64 and out.shape == expected.shape
            assert np.array_equal(out, expected)
            assert not np.shares_memory(out, stack) and not np.shares_memory(out, ground.mat)
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE, STRONG_NOISE],
                             ids=["noiseless", "default_noise", "strong_noise"])
    @pytest.mark.parametrize("n", range(_FUSE_FROM_QUBITS, 8))
    @pytest.mark.parametrize("case", CONE_CASES)
    def test_pinned_light_cones_are_bit_equal(self, case, n, noise):
        c = CONE_CASES[case](n)
        ground = DensityMatrix.ground(n)
        expected = np.diagonal(evolve(ground.mat[None], c, noise), axis1=1, axis2=2).real
        assert np.array_equal(evolve(ground.mat[None], c, noise, diagonal=True), expected)
        assert np.array_equal(evolve(ground, c, noise, diagonal=True), expected[0])

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", range(_FUSE_FROM_QUBITS, 8))
    def test_matrices_with_different_cold_qubits_share_a_stack(self, n, noise):
        """Only the qubits cold in both matrices are cold in the stack: qubits
        2..n-3 here, while 0-1 and n-2..n-1 are live in one matrix each."""
        rng = np.random.default_rng(1000 + n)
        stack = np.stack([partly_cold(rng, n, [0, 1]), partly_cold(rng, n, [n - 2, n - 1])])
        c = random_circuit(rng, n, 5 * n)
        expected = np.diagonal(evolve(stack, c, noise), axis1=1, axis2=2).real
        assert np.array_equal(evolve(stack, c, noise, diagonal=True), expected)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_empty_circuit_reads_the_input_diagonal(self, n):
        stack = np.array([random_density(np.random.default_rng(990 + n), n) for _ in range(2)])
        out = evolve(stack, Circuit(n, ()), DEFAULT_NOISE, diagonal=True)
        assert np.array_equal(out, np.diagonal(stack, axis1=1, axis2=2).real)
        assert out.flags.writeable and not np.shares_memory(out, stack)

    @staticmethod
    def operand_sizes(monkeypatch, state, c):
        """The (channel rows, operand entries) of every matmul of one diagonal evolution."""
        sizes, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b, out: sizes.append((len(a), b.size))
                            or matmul(a, b, out=out))
        evolve(state, c, DEFAULT_NOISE, diagonal=True)
        return sizes

    @pytest.mark.parametrize("n", range(_FUSE_FROM_QUBITS, 8))
    def test_one_matmul_per_block(self, monkeypatch, n):
        rng = np.random.default_rng(995 + n)
        c = random_circuit(rng, n, 5 * n)
        sizes = self.operand_sizes(monkeypatch, DensityMatrix.ground(n), c)
        assert len(sizes) == len(_blocks(c.ops, DEFAULT_NOISE, n))

    @pytest.mark.parametrize("n", range(_FUSE_FROM_QUBITS, 8))
    def test_finished_qubits_halve_later_operands(self, monkeypatch, n):
        c = chain_circuit(n)
        pairs = [qubits for qubits, _ in _blocks(c.ops, DEFAULT_NOISE, n)]
        assert pairs == [(q, q + 1) for q in range(n - 1)]
        sizes = self.operand_sizes(monkeypatch, np.stack([DensityMatrix.ground(n).mat] * 2), c)
        # Block q >= 1 reads the q bit axes of the finished qubits 0..q-1 and
        # the two of qubit q, while qubit q + 1 joins: 2 * 2^(q + 2) entries,
        # as 4 rows of 2^q columns per matrix, padded to 4 columns at q = 1.
        # Block 0 reads one entry per matrix (both its qubits join), padded to
        # 4 columns.  Each keeps 8 of 16 channel rows, the last one 4.
        assert sizes == ([(8, 2 * 1 * 4)] + [(8, 2 * 4 * max(2**q, 4)) for q in range(1, n - 2)]
                         + [(4, 2 * 4 * 2 ** (n - 2))])

    @pytest.mark.parametrize("n", range(_FUSE_FROM_QUBITS, 8))
    def test_a_matrix_off_the_ground_state_keeps_every_qubit_live(self, monkeypatch, n):
        """One matrix of the stack with no cold qubit: every qubit is live
        from the first block, and only finished ones shrink the operands."""
        c = chain_circuit(n)
        stack = np.stack([DensityMatrix.ground(n).mat,
                          random_density(np.random.default_rng(1010 + n), n)])
        sizes = self.operand_sizes(monkeypatch, stack, c)
        # Block q reads 2 * 4^n / 2^q entries; it keeps 8 of 16 channel rows, the last one 4.
        assert sizes == [(8, 2 * 4**n >> q) for q in range(n - 2)] + [(4, 2 * 4**n >> (n - 2))]
        monkeypatch.undo()
        full = np.diagonal(evolve(stack, c, DEFAULT_NOISE), axis1=1, axis2=2).real
        assert np.array_equal(evolve(stack, c, DEFAULT_NOISE, diagonal=True), full)

    @pytest.mark.parametrize("n", range(1, _FUSE_FROM_QUBITS))
    def test_small_registers_evolve_every_entry(self, monkeypatch, n):
        c = random_circuit(np.random.default_rng(1000 + n), n, 4 * n)
        sizes = self.operand_sizes(monkeypatch, DensityMatrix.ground(n), c)
        assert sizes == [(4 ** len(op.qubits), 4**n) for op in c.ops]


class TestFullEvolutionOperands:
    """The full evolution, and the diagonal one below _FUSE_FROM_QUBITS, run
    _evolve_mat's block loop on whole channels and every bit axis: one matmul
    per block, on a (B, 4^k, 4^(n - k)) operand that the 4-column floor of
    the light cone never pads.  So one-qubit gates on one qubit and two-qubit
    gates on two multiply 1-column operands, the bits every output below
    _FUSE_FROM_QUBITS is pinned to."""

    @staticmethod
    def operand_shapes(monkeypatch, state, c, diagonal):
        """The (channel, operand) shapes of every matmul of one evolution."""
        shapes, matmul = [], np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, b, out: shapes.append((a.shape, b.shape))
                            or matmul(a, b, out=out))
        evolve(state, c, DEFAULT_NOISE, diagonal=diagonal)
        monkeypatch.undo()
        return shapes

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_whole_matmul_per_block(self, monkeypatch, n):
        rng = np.random.default_rng(1030 + n)
        stack = np.array([random_density(rng, n) for _ in range(2)])
        c = random_circuit(rng, n, 4 * n)
        sizes = [len(qubits) for qubits, _ in _blocks(c.ops, DEFAULT_NOISE, n)]
        for state, b in ((stack, 2), (DensityMatrix.ground(n), 1)):
            expected = [((4**k, 4**k), (b, 4**k, 4 ** (n - k))) for k in sizes]
            assert self.operand_shapes(monkeypatch, state, c, False) == expected
            if n < _FUSE_FROM_QUBITS:
                assert self.operand_shapes(monkeypatch, state, c, True) == expected

    @pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
    @pytest.mark.parametrize("c", [
        Circuit(1, (gate("h", 0), gate("rz", 0, angle=0.3), gate("t", 0))),
        Circuit(2, (gate("cx", 0, 1), gate("cz", 1, 0), gate("swap", 0, 1), gate("cx", 1, 0))),
    ], ids=["one_qubit", "two_qubits"])
    def test_register_wide_gates_multiply_one_column_unpadded(self, monkeypatch, c, diagonal):
        n = c.n_qubits
        shapes = self.operand_shapes(monkeypatch, DensityMatrix.ground(n), c, diagonal)
        assert shapes == [((4**n, 4**n), (1, 4**n, 1))] * len(c.ops)


class TestGateKernel:
    """The channel kernel against the dense U rho U^dag, followed by the
    moveaxis forms of the noise channels."""

    @staticmethod
    def inputs(rng, n):
        """Two density matrices and a non-Hermitian matrix (pauli_povm evolves
        the matrix units |i><j|): as a stack, as a (3, 1) grid and one at a time."""
        d = 2**n
        g = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / d
        stack = np.array([random_density(rng, n), random_density(rng, n), g])
        return [stack, stack.reshape((3, 1, d, d))] + list(stack)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_dense_conjugation(self, n):
        ops = [gate(name, q) for name in GATE_POOL_1Q for q in range(n)]
        ops += [gate(name, q, angle=0.7 + q) for name in GATE_POOL_ROT for q in range(n)]
        ops += [gate(name, a, b) for name in GATE_POOL_2Q
                for a in range(n) for b in range(n) if a != b]
        inputs = self.inputs(np.random.default_rng(900 + n), n)
        for op in ops:
            for mats in inputs:
                out = _evolve_mat(mats, Circuit(n, (op,)), None)
                expected = dense_conjugation(mats, op, n)
                assert out.shape == mats.shape
                if op.name in GATE_POOL_2Q:
                    assert np.array_equal(out, expected), op
                else:
                    assert np.max(np.abs(out - expected)) <= KERNEL_TOL, op

    @pytest.mark.parametrize("n", range(1, 6))
    def test_noise_channels_match_moveaxis_forms(self, n):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for mats in self.inputs(np.random.default_rng(910 + n), n):
            for qubits in [(q,) for q in range(n)] + pairs:
                op = gate("ry", *qubits, angle=0.7) if len(qubits) == 1 else gate("cx", *qubits)
                for p in (0.01, 0.5, 1.0):
                    noise = NoiseModel(depolarizing_1q=p, depolarizing_2q=p)
                    out = _evolve_mat(mats, Circuit(n, (op,)), noise)
                    expected = reference_depolarize(dense_conjugation(mats, op, n), qubits, p, n)
                    assert np.max(np.abs(out - expected)) <= KERNEL_TOL, (qubits, p)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_noisy_one_qubit_gate_matches_the_reference_channels(self, n):
        """A one-qubit gate, its depolarizing and its damping, one superoperator,
        against the dense gate and the two moveaxis channels one after the
        other; the inputs include the matrix units |i><j| (a stack of 4^n at
        n <= 3), mostly exact zeros, as pauli_povm evolves them."""
        strengths = [(0.001, 0.001), (0.3, 0.7), (0.0, 0.2), (0.2, 0.0), (1.0, 1.0), (0.0, 0.0)]
        inputs = self.inputs(np.random.default_rng(930 + n), n)
        if n <= 3:
            inputs.append(np.eye(4**n, dtype=np.complex128).reshape(4**n, 2**n, 2**n))
        for mats in inputs:
            for q in range(n):
                op = gate(GATE_POOL_ROT[q % 3], q, angle=0.7 + q)
                for p, gamma in strengths:
                    noise = NoiseModel(depolarizing_1q=p, amplitude_damping=gamma)
                    out = _evolve_mat(mats, Circuit(n, (op,)), noise)
                    expected = reference_amplitude_damp(reference_depolarize(
                        dense_conjugation(mats, op, n), (q,), p, n), q, gamma, n)
                    assert out.shape == mats.shape
                    assert np.max(np.abs(out - expected)) <= KERNEL_TOL, (q, p, gamma)

    def test_gates_expand_on_their_own_register(self, monkeypatch):
        expand = simulator.expanded_gate_matrix
        calls = []

        def recording(op, n_qubits):
            calls.append((op, n_qubits))
            return expand(op, n_qubits)

        monkeypatch.setattr(simulator, "expanded_gate_matrix", recording)
        simulator._superop.cache_clear()
        c = Circuit(4, tuple(every_gate_kind(4)))
        mats = self.inputs(np.random.default_rng(920), 4)[0]
        _evolve_mat(mats, c, DEFAULT_NOISE)
        # Cold, each gate kind is built once; warm, only the rotations are.
        assert [(op.name, op.angle) for op, _ in calls] == [(op.name, op.angle) for op in c.ops]
        assert all(n_qubits == len(op.qubits) for op, n_qubits in calls)
        calls.clear()
        _evolve_mat(mats, c, DEFAULT_NOISE)
        assert [op.angle for op, _ in calls] == [op.angle for op in c.ops if op.angle is not None]
        assert all(n_qubits == len(op.qubits) == 1 for op, n_qubits in calls)
        calls.clear()
        fixed = Circuit(4, tuple(op for op in c.ops if op.angle is None))
        _evolve_mat(mats, fixed, DEFAULT_NOISE)
        assert not calls


class TestArrayCaches:
    """Every array the simulator and tomography cache is read-only, and the
    channel cache changes no bit of an evolution."""

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    def test_cached_arrays_are_read_only_and_bit_identical(self, noise):
        cached = [_gate_superop(gate("h", 3), noise), _gate_superop(gate("cx", 2, 0), noise),
                  pauli_povm(noise), _forward(noise, noise), simulator._omega(2)]
        assert _gate_superop(gate("h", 0), noise) is cached[0]
        assert _gate_superop(gate("cx", 0, 1), noise) is cached[1]
        if noise is not None:
            cached += [_noise_superop(1, noise), _noise_superop(2, noise)]
        for array in cached:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0
        rotation = gate("rx", 0, angle=0.4)
        assert _gate_superop(rotation, noise) is not _gate_superop(rotation, noise)

        rng = np.random.default_rng(960)
        mats = np.array([random_density(rng, 4) for _ in range(3)])
        c = random_circuit(rng, 4, 40)
        _evolve_mat(mats, c, noise)
        warm = _evolve_mat(mats, c, noise)
        simulator._superop.cache_clear()
        _noise_superop.cache_clear()
        cold = _evolve_mat(mats, c, noise)
        assert np.array_equal(warm, cold)
        assert np.array_equal(warm, reference_evolve_mat(mats, c, noise))


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


@st.composite
def circuits(draw):
    """Hypothesis strategy: a circuit on 1-3 qubits of at most 6n gates drawn
    from every gate in ``qcore.GATES`` that fits, rotations at random angles;
    the empty circuit included."""
    n = draw(st.integers(1, 3))
    names = [name for name, (arity, _) in GATES.items() if arity <= n]
    ops = []
    for name in draw(st.lists(st.sampled_from(names), max_size=6 * n)):
        arity, unitary = GATES[name]
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity,
                               unique=True))
        angle = draw(st.floats(-2 * np.pi, 2 * np.pi)) if callable(unitary) else None
        ops.append(GateOp(name, tuple(qubits), angle))
    return Circuit(n, tuple(ops))


class TestCircuitToChoi:
    @settings(max_examples=150, deadline=None)
    @given(circuits())
    def test_matches_the_dense_reference(self, c):
        choi = circuit_to_choi(c)
        assert choi.n_qubits == c.n_qubits
        assert np.max(np.abs(choi.mat - reference_choi(c))) <= 1e-13
        assert abs(process_fidelity(choi, circuit_to_choi(c)) - 1.0) <= 1e-12

    def test_runs_the_circuit_once_through_evolve(self, monkeypatch, bell_circuit):
        runs = []
        run = simulator.evolve
        monkeypatch.setattr(simulator, "evolve", lambda mats, c, noise: runs.append(
            (mats.shape, c, noise)) or run(mats, c, noise))
        circuit_to_choi(bell_circuit)
        assert runs == [((1, 16, 16), Circuit(4, bell_circuit.ops), None)]

    def test_lost_trace_preservation_raises(self, monkeypatch):
        # Trace 2 and PSD, so a valid Choi matrix, but its input marginal is diag(2, 0).
        monkeypatch.setattr(simulator, "evolve",
                            lambda mats, c, noise: np.diag([2.0, 0, 0, 0]).astype(complex)[None])
        with pytest.raises(NumericError, match="lost trace preservation: 1.000e"):
            circuit_to_choi(Circuit(1))


class TestPauliDistributions:
    @pytest.mark.parametrize("rank", ["pure", "full"])
    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_evolving_each_rotation(self, n, noise, rank):
        rng = np.random.default_rng(40 + n)
        mat = (
            random_density(rng, n)
            if rank == "full"
            else DensityMatrix.from_statevector(random_pure_state(rng, n)).mat
        )
        state = DensityMatrix(n, mat)
        probs = pauli_distributions(state, noise)
        assert probs.shape == (3**n, 2**n)
        for k, row in enumerate(probs):
            rotated = exact_distribution(evolve(state, pauli_rotation(k, n), noise)).probs
            np.testing.assert_allclose(row, xor_readout(rotated, noise), rtol=0, atol=POVM_TOL)

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_each_matrix(self, n, noise):
        rng = np.random.default_rng(50 + n)
        stack = np.array([random_density(rng, n) for _ in range(4)])
        per_state = pauli_distributions(stack, noise)
        assert per_state.shape == (4, 3**n, 2**n)
        for mat, probs in zip(stack, per_state):
            single = pauli_distributions(DensityMatrix(n, mat), noise)
            assert single.shape == (3**n, 2**n)
            np.testing.assert_allclose(probs, single, rtol=0, atol=POVM_TOL)

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE, NoiseModel(0.05, 0.1, 0.07, 0.3)],
                             ids=["noiseless", "default_noise", "strong_noise"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_diagonals_match_per_matrix_reference(self, n, noise):
        rng = np.random.default_rng(90 + n)
        stack = np.array([random_density(rng, n) for _ in range(3)])
        reference = per_setting_pauli_probs(stack, n, noise)
        np.testing.assert_allclose(pauli_distributions(stack, noise), reference,
                                   rtol=0, atol=POVM_TOL)
        single = pauli_distributions(DensityMatrix(n, stack[1]), noise)
        np.testing.assert_allclose(single, reference[1], rtol=0, atol=POVM_TOL)

    @pytest.mark.parametrize("inputs, n", [("ground", n) for n in (1, 2, 3, 4)]
                             + [("preparations", n) for n in (1, 2, 3)])
    def test_noiseless_zero_set_matches_reference(self, inputs, n):
        """The floor makes which probabilities are exactly zero independent of
        the order of the sums, so it matches the rotate-each-setting reference."""
        rng = np.random.default_rng(140 + n)
        start = (DensityMatrix.ground(n).mat[None] if inputs == "ground"
                 else reference_preparations(n, None))
        for _ in range(24):
            subject = random_circuit(rng, n, int(rng.integers(0, 2 * n + 1)))
            stack = _evolve_mat(start, subject, None)
            probs = pauli_distributions(stack)
            reference = per_setting_pauli_probs(stack, n, None)
            np.testing.assert_array_equal(probs == 0.0, reference == 0.0)

    def test_x_basis_of_ground_is_uniform(self):
        x, y, z = pauli_distributions(DensityMatrix.ground(1))
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)

    def test_sampling_follows_rotated_distribution(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        # Rotating both qubits to the X basis (setting 0) maps the Bell state to
        # another two-outcome distribution; sampling must follow it.
        expected = exact_distribution(evolve(state, Circuit(2, (gate("h", 0), gate("h", 1)))))
        counts = sample(pauli_distributions(state)[0], 100000, seed=11)
        np.testing.assert_allclose(counts / 100000, expected.probs, atol=0.01)


class TestProbabilityFloor:
    def test_values_below_the_floor_become_zero(self):
        probs = np.array([[0.5, PROBABILITY_FLOOR / 2, 1e-32, 0.5],
                          [-1e-17, PROBABILITY_FLOOR, 0.25, 0.75]])
        out = _normalized(probs.copy())
        np.testing.assert_array_equal(out == 0.0, [[False, True, True, False],
                                                   [True, False, False, False]])
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-15)

    def test_negative_beyond_rounding_rejected(self):
        with pytest.raises(NumericError, match="negative outcome probability"):
            _normalized(np.array([1.1, -0.1]))


noise_models = st.builds(NoiseModel, *(st.floats(0.0, 1.0) for _ in range(4)))


class TestPauliPovm:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.none(), noise_models))
    def test_effects_are_psd_and_sum_to_identity(self, noise):
        povm = pauli_povm(noise)
        assert povm.shape == (3, 2, 2, 2)
        for letter in range(3):
            np.testing.assert_allclose(povm[letter].sum(axis=0), np.eye(2), rtol=0, atol=POVM_TOL)
            for effect in povm[letter]:
                assert np.max(np.abs(effect - effect.conj().T)) <= POVM_TOL
                assert np.linalg.eigvalsh(effect).min() >= -POVM_TOL

    def test_noiseless_effects_are_the_eigenprojectors(self):
        povm = pauli_povm(None)
        for letter, pauli in enumerate((PAULI_X, PAULI_Y, PAULI_Z)):
            for outcome, sign in enumerate((1.0, -1.0)):
                np.testing.assert_allclose(
                    povm[letter, outcome], (PAULI_I + sign * pauli) / 2.0, rtol=0, atol=POVM_TOL
                )

    def test_built_once_per_noise_model_and_read_only(self):
        assert pauli_povm(DEFAULT_NOISE) is pauli_povm(NoiseModel(0.001, 0.01, 0.001, 0.02))
        with pytest.raises(ValueError):
            pauli_povm(None)[0, 0, 0, 0] = 1.0


class TestSample:
    def test_deterministic_state(self):
        counts = sample(exact_distribution(DensityMatrix.ground(1)).probs, 100, seed=1)
        assert counts.tolist() == [100, 0]

    def test_bell_support_and_balance(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        counts = sample(exact_distribution(state).probs, 3000, seed=5)
        assert set(np.flatnonzero(counts)) <= {0, 3}
        sigma = np.sqrt(3000 * 0.25)
        for k in (0, 3):
            assert abs(counts[k] - 1500) <= 5 * sigma

    def test_same_seed_identical(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        a = sample(exact_distribution(state).probs, 1000, seed=42)
        b = sample(exact_distribution(state).probs, 1000, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        a = sample(exact_distribution(state).probs, 10000, seed=1)
        b = sample(exact_distribution(state).probs, 10000, seed=2)
        assert not np.array_equal(a, b)

    def test_certain_readout_flip(self):
        noise = NoiseModel(readout_flip=1.0)
        probs = apply_readout(exact_distribution(DensityMatrix.ground(2)).probs, noise)
        counts = sample(probs, 50, seed=3)
        assert counts.tolist() == [0, 0, 0, 50]

    def test_readout_flip_rate(self):
        noise = NoiseModel(readout_flip=0.1)
        probs = apply_readout(exact_distribution(DensityMatrix.ground(1)).probs, noise)
        counts = sample(probs, 100000, seed=9)
        rate = counts[1] / 100000
        assert rate == pytest.approx(0.1, abs=0.01)

    def test_zero_readout_keeps_the_probabilities(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        assert apply_readout(probs, None) is probs
        assert apply_readout(probs, NoiseModel(depolarizing_1q=0.2)) is probs

    def test_readout_flips_match_per_outcome_draws(self):
        # Folding the flips into the probabilities draws from the same law as
        # flipping the bits of every drawn shot: pooled over seeds, the two
        # samplers' counts pass a chi-squared homogeneity test.
        rng = np.random.default_rng(12)
        for n, p in ((1, 0.02), (2, 0.3), (3, 1.0), (3, 0.02)):
            probs = exact_distribution(DensityMatrix(n, random_density(rng, n))).probs
            folded = apply_readout(probs, NoiseModel(readout_flip=p))
            pooled = np.zeros((2, 2**n), dtype=np.int64)
            for seed in range(100):
                pooled[0] += sample(folded, 200, seed)
                pooled[1] += per_outcome_readout(probs, 200, 10**6 + seed, p)
            seen = pooled.sum(axis=0) > 0
            assert chi2_contingency(pooled[:, seen]).pvalue > 1e-3, (n, p)

    @pytest.mark.parametrize("p", [0.02, 0.3, 1.0])
    def test_readout_mask_matches_kron_construction(self, p):
        rng = np.random.default_rng(13)
        noise = NoiseModel(readout_flip=p)
        for n in range(1, 9):
            probs = rng.dirichlet(np.ones(2**n), size=3)
            folded = apply_readout(probs, noise)
            np.testing.assert_allclose(folded, xor_readout(probs, noise), rtol=0, atol=POVM_TOL)
            assert folded.shape == probs.shape

    def test_readout_flips_at_huge_shot_counts(self):
        shots = 2**62 + 12345
        state = DensityMatrix(2, random_density(np.random.default_rng(8), 2))
        probs = apply_readout(exact_distribution(state).probs, NoiseModel(readout_flip=0.02))
        counts = sample(probs, shots, seed=4)
        assert counts.dtype == np.int64
        assert sum(int(c) for c in counts) == shots

    @pytest.mark.parametrize("shape", [(5, 4), (2, 9, 8)])
    def test_one_draw_for_every_row(self, monkeypatch, shape):
        rows = np.random.default_rng(14).dirichlet(np.ones(shape[-1]), size=shape[:-1])
        made = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1]
        )
        counts = sample(rows, 30, seed=21)
        assert len(made) == 1
        assert counts.shape == shape and counts.dtype == np.int64
        assert (counts.sum(axis=-1) == 30).all()
        # The rows are drawn in order from the one generator, as one multinomial call.
        expected = default_rng(np.uint64(21)).multinomial(30, rows)
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize(
        "probs",
        [[1.0], [0.5, 0.25, 0.25], [[0.5, 0.5], [0.0, 0.0]], [0.5, 0.9], [0.3, 0.3],
         [1.5, -0.5], [0.5, -0.25, 0.5, 0.25], [np.nan, 1.0], [np.inf, 0.0]],
        ids=["one_entry", "length_3", "two_dims", "sum_1.4", "sum_0.6",
             "negative", "negative_summing_to_1", "nan", "inf"],
    )
    def test_malformed_probabilities_rejected(self, probs):
        # numpy alone would draw from the sum_1.4 row, putting the remainder in the last bin.
        with pytest.raises(ValueError):
            sample(np.array(probs), 10, seed=0)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0, 4), (0,)], ids=["rows", "stack", "entries"])
    def test_empty_probabilities_rejected(self, shape):
        with pytest.raises(DimensionError, match=re.escape(
                f"sample needs rows of 2^n probabilities, got {shape}")):
            sample(np.zeros(shape), 10, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.floats(0.0, 1.0), min_size=2**n, max_size=2**n)
        ).filter(lambda weights: sum(weights) > 1e-6),
        st.integers(1, 10**9),
        st.integers(0, 2**64 - 1),
        st.floats(0.0, 1.0),
    )
    def test_counts_are_nonnegative_int64_summing_to_shots(self, weights, shots, seed, p):
        probs = apply_readout(np.array(weights) / sum(weights), NoiseModel(readout_flip=p))
        counts = sample(probs, shots, seed)
        assert counts.dtype == np.int64
        assert counts.shape == probs.shape
        assert counts.min() >= 0
        assert int(counts.sum()) == shots

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample(exact_distribution(DensityMatrix.ground(1)).probs, 0, seed=0)

    @pytest.mark.parametrize("bad", [10.5, 10.0, True, np.True_],
                             ids=["fraction", "float", "bool", "numpy_bool"])
    def test_non_integer_shots_rejected(self, bad):
        with pytest.raises(ValueError, match=f"shots must be an integer, got {bad!r}"):
            sample(np.array([0.5, 0.5]), bad, seed=0)

    def test_numpy_integer_shots_accepted(self):
        counts = sample(np.array([0.5, 0.5]), np.int64(10), seed=0)
        assert np.array_equal(counts, sample(np.array([0.5, 0.5]), 10, seed=0))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            sample(np.array([0.5, 0.5]), 10, seed)
        assert sample(np.array([0.5, 0.5]), 10, 2**64 - 1).sum() == 10

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.True_],
                             ids=["fraction", "float", "bool", "numpy_bool"])
    def test_non_integer_seed_rejected(self, bad):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {bad!r}"):
            sample(np.array([0.5, 0.5]), 10, bad)

    def test_numpy_integer_seed_accepted(self):
        counts = sample(np.array([0.5, 0.5]), 10, np.uint64(7))
        assert np.array_equal(counts, sample(np.array([0.5, 0.5]), 10, 7))

    def test_convergence_bound_at_1e5_shots(self, bell_circuit):
        state = evolve(DensityMatrix.ground(2), bell_circuit)
        shots = 100000
        expected = exact_distribution(state).probs
        counts = sample(exact_distribution(state).probs, shots, seed=77)
        freq = counts / shots
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
    def test_backend_carries_noise(self):
        noise = NoiseModel(readout_flip=1.0)
        probs = apply_readout(exact_distribution(DensityMatrix.ground(2)).probs, noise)
        assert sample(probs, 10, seed=0).tolist() == [0, 0, 0, 10]
        assert pauli_distributions(DensityMatrix.ground(1), noise)[2].tolist() == [0.0, 1.0]


def assert_is_density_matrix(mat):
    assert abs(np.trace(mat) - 1.0) <= 1e-12
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(mat).min() >= -1e-12


class TestNoiseChannelProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), st.floats(0.0, 1.0))
    def test_depolarize_keeps_a_density_matrix(self, data, n, p):
        rho = data.draw(density_matrices(n))
        size = data.draw(st.integers(1, min(n, 2)))
        qubits = tuple(data.draw(st.permutations(range(n)))[:size])
        noise = NoiseModel(depolarizing_1q=p, depolarizing_2q=p)
        assert_is_density_matrix(noise_channel(rho, qubits, noise, n))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 3), st.floats(0.0, 1.0))
    def test_amplitude_damp_keeps_a_density_matrix(self, data, n, gamma):
        rho = data.draw(density_matrices(n))
        qubit = data.draw(st.integers(0, n - 1))
        p = data.draw(st.floats(0.0, 1.0))
        noise = NoiseModel(depolarizing_1q=p, amplitude_damping=gamma)
        assert_is_density_matrix(noise_channel(rho, (qubit,), noise, n))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2), noise_models)
    def test_noise_superoperator_preserves_trace(self, k, noise):
        """sum_i S[(i, i), (k, l)] = delta_kl: tr(S vec(rho)) = tr(rho) for every rho."""
        d = 2**k
        superop = _noise_superop(k, noise)
        assert superop.shape == (d * d, d * d) and not superop.flags.writeable
        traced = np.trace(superop.reshape(d, d, d * d))
        np.testing.assert_allclose(traced, np.eye(d).reshape(-1), rtol=0, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 4), noise_models)
    def test_evolved_raw_stack_stays_a_density_matrix(self, data, n, noise):
        """The invariant proj no longer re-validates on its evolved state."""
        rho = data.draw(density_matrices(n))
        seed = data.draw(st.integers(0, 2**32 - 1))
        c = random_circuit(np.random.default_rng(seed), n, data.draw(st.integers(1, 16)))
        assert_is_density_matrix(_evolve_mat(rho[None], c, noise)[0])
