"""Polymorphic dispatch and the three protocol implementations."""

import re
import typing

import numpy as np
import pytest

from quassert import protocols, qmath, tomography
from quassert.protocols import (
    AssertionResult,
    ContextError,
    ExpectedValue,
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
    GateOp,
    OutcomeDistribution,
    gate,
    process_fidelity,
    state_fidelity,
)
from quassert.qmath import DimensionError
from quassert.tomography import SizeLimitError
from quassert.simulator import (
    DEFAULT_NOISE,
    NoiseModel,
    apply_readout,
    circuit_to_choi,
    evolve,
    exact_distribution,
    sample,
)

from conftest import count_lapack_solves, random_circuit


@pytest.fixture
def expected_distribution():
    return OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])


@pytest.fixture
def expected_state(bell_circuit):
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

    def test_every_expected_type_selects_one_row(self):
        for kind in typing.get_args(ExpectedValue):
            assert sum(issubclass(kind, types) for types in protocols._PROTOCOLS) == 1, kind

    def test_table_ids_are_the_three_protocols(self):
        ids = [row[0] for row in protocols._PROTOCOLS.values()]
        assert sorted(ids) == sorted([PROTOCOL_PROJ, PROTOCOL_STATE, PROTOCOL_PROCESS])

    def test_subclass_dispatches_like_its_base(self):
        subclass = type("LabelledState", (DensityMatrix,), {})
        assert protocol_for(subclass(1, DensityMatrix.ground(1).mat)) == PROTOCOL_STATE


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

    def test_mis_sized_process_ref_rejected_before_conversion(self, monkeypatch, bell_circuit):
        def fail(c):
            raise AssertionError("circuit_to_choi ran on a mis-sized reference")

        monkeypatch.setattr(protocols, "circuit_to_choi", fail)
        config = RunConfig(shots=100, seed=0)
        with pytest.raises(DimensionError, match="2 qubit"):
            run_protocol(Circuit(1, (gate("h", 0),)), ProcessRef(bell_circuit), config)

    @pytest.mark.parametrize("expected, message", [
        (lambda: DensityMatrix.ground(5), "state_tomo supports at most 4 qubit(s), got 5"),
        (lambda: ProcessRef(Circuit(4)), "process_tomo supports at most 3 qubit(s), got 4"),
    ], ids=["state_5q", "process_ref_4q"])
    def test_oversized_expected_rejected_before_running(self, monkeypatch, expected, message):
        def fail(*args):
            raise AssertionError("ran on a register beyond the tomography cap")

        monkeypatch.setattr(tomography, "evolve", fail)
        monkeypatch.setattr(protocols, "circuit_to_choi", fail)
        value = expected()
        with pytest.raises(SizeLimitError, match=re.escape(message)):
            run_protocol(Circuit(value.n_qubits), value, RunConfig(shots=100, seed=0))

    def test_process_ref_reports_its_circuits_qubit_count(self, bell_circuit):
        assert ProcessRef(bell_circuit).n_qubits == bell_circuit.n_qubits == 2

    def test_noise_flows_through_backend(self, bell_circuit, expected_distribution):
        # Certain readout flips push every shot into forbidden bins.
        noise = NoiseModel(readout_flip=0.5)
        config = RunConfig(shots=3000, seed=2, threshold=0.5, noise=noise)
        result = run_protocol(bell_circuit, expected_distribution, config)
        assert result.probability == 0.0

    def test_artifacts_returned_by_detailed_runner(self, bell_circuit, expected_state):
        config = RunConfig(shots=200, seed=7)
        result, artifacts = run_protocol_detailed(bell_circuit, expected_state, config)
        assert isinstance(result, AssertionResult)
        matrix = artifacts["reconstructed_state"]
        assert matrix.shape == (4, 4) and matrix.dtype == np.complex128

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

    @pytest.mark.parametrize("bad", [1.5, 1.0, True],
                             ids=["fraction", "float", "bool"])
    def test_non_integer_seed_rejected(self, bad):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {bad!r}"):
            RunConfig(seed=bad)

    def test_numpy_integer_seed_stored_as_int(self):
        seed = RunConfig(seed=np.uint64(7)).seed
        assert seed == 7 and type(seed) is int

    def test_shots_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="shots"):
            RunConfig(shots=2**63)

    @pytest.mark.parametrize("bad", [10.5, 10.0, True, np.True_],
                             ids=["fraction", "float", "bool", "numpy_bool"])
    def test_non_integer_shots_rejected(self, bad):
        # A float would draw int(shots) shots but report the float in the diagnostics.
        with pytest.raises(ValueError, match=f"shots must be an integer, got {bad!r}"):
            RunConfig(shots=bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, "0.5", None, 0.5j],
                             ids=["true", "false", "numpy_bool", "string", "none", "complex"])
    def test_non_real_threshold_rejected(self, bad):
        message = f"threshold must be a real number in [0, 1], got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(threshold=bad)

    @pytest.mark.parametrize("good", [0, 1, 0.25, np.float64(0.75), np.int64(1)])
    def test_real_threshold_kept(self, good):
        assert RunConfig(threshold=good).threshold == good

    def test_numpy_integer_shots_accepted(self, bell_circuit, expected_distribution):
        config = RunConfig(shots=np.int64(50))
        assert type(config.shots) is int
        a = run_protocol(bell_circuit, expected_distribution, config)
        b = run_protocol(bell_circuit, expected_distribution, RunConfig(shots=50))
        assert a == b and type(a.diagnostics["shots"]) is int


def _count_solves(monkeypatch) -> tuple[list, list]:
    """Shapes passed to ``qmath.hermitian_eig`` and to the LAPACK ``eigh`` it
    calls for all but a single exactly diagonal matrix, while the patches last."""
    solved, eig = [], qmath.hermitian_eig
    monkeypatch.setattr(qmath, "hermitian_eig",
                        lambda a, *rest: solved.append(a.shape) or eig(a, *rest))
    return solved, count_lapack_solves(monkeypatch)


class TestFidelityWork:
    """Fidelity reads stored spectra: one kept at validation, or for a
    tomography estimate the one its PSD projection rebuilt it from, so the
    estimate is solved once.  The diagonal ground state needs no LAPACK solve."""

    def test_state_tomo_solves_ground_and_projection(self, monkeypatch):
        subject = random_circuit(np.random.default_rng(41), 2, 8)
        expected = evolve(DensityMatrix.ground(2), subject)
        solved, lapack = _count_solves(monkeypatch)
        run_protocol(subject, expected, RunConfig(shots=100, noise=DEFAULT_NOISE))
        assert solved == [(4, 4), (1, 4, 4)]
        assert lapack == [(1, 4, 4)]

    def test_warm_process_tomo_solves_the_projection_alone(self, monkeypatch):
        subject = random_circuit(np.random.default_rng(42), 2, 8)
        expected = circuit_to_choi(subject)
        config = RunConfig(shots=100, noise=DEFAULT_NOISE)
        run_protocol(subject, expected, config)  # builds the cached preparations
        solved, lapack = _count_solves(monkeypatch)
        run_protocol(subject, expected, config)
        assert solved == lapack == [(1, 16, 16)]

    def test_fidelities_solve_nothing(self, monkeypatch, bell_circuit):
        ground = DensityMatrix.ground(2)
        state = evolve(ground, bell_circuit, DEFAULT_NOISE)
        choi = circuit_to_choi(bell_circuit)
        solved, lapack = _count_solves(monkeypatch)
        assert state_fidelity(state, ground) == pytest.approx(0.5, abs=0.05)
        assert process_fidelity(choi, choi) == pytest.approx(1.0)
        assert solved == lapack == []


class TestProjWork:
    """proj validates the ground state once and evolves it as a raw stack."""

    def test_one_density_matrix_and_one_eigensolve(self, monkeypatch):
        subject = random_circuit(np.random.default_rng(40), 3, 12)
        expected = OutcomeDistribution(3, np.full(8, 1 / 8))
        ground = DensityMatrix.ground(3).mat
        built, init = [], DensityMatrix.__init__
        monkeypatch.setattr(DensityMatrix, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        solved, lapack = _count_solves(monkeypatch)
        run_protocol(subject, expected, RunConfig(shots=100, noise=DEFAULT_NOISE))
        assert len(built) == 1 and np.array_equal(built[0][1], ground)
        assert solved == [(8, 8)] and lapack == []

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_match_the_validated_state(self, n, noise):
        rng = np.random.default_rng(50 + n)
        expected = OutcomeDistribution(n, np.full(2**n, 2.0**-n))
        subjects = [Circuit(n, random_circuit(rng, n, 4 * n).ops) for _ in range(3)]
        # A qubit that no gate touches, at every index: it reads bit 0.
        for idle in range(n):
            ops = random_circuit(rng, n - 1, 4 * n).ops if n > 1 else ()
            subjects.append(Circuit(n, tuple(
                GateOp(op.name, tuple(q + (q >= idle) for q in op.qubits), op.angle)
                for op in ops)))
        for subject in subjects:
            config = RunConfig(shots=300, seed=int(rng.integers(2**32)), noise=noise)
            _, artifacts = run_protocol_detailed(subject, expected, config)
            state = evolve(DensityMatrix.ground(n), subject, noise)
            probs = apply_readout(exact_distribution(state).probs, noise)
            counts = sample(probs, config.shots, config.seed)
            assert np.array_equal(artifacts["counts"], counts)
