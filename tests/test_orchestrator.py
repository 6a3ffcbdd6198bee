"""Suite execution, report aggregation and serialization."""

import numpy as np
import pytest

from quassert.orchestrator import (
    Assertion,
    SuiteValidationError,
    TestCase,
    TestSuite,
    format_report,
    parse_report,
    run_suite,
    validate_suite,
)
from quassert.protocols import ProcessRef, RunConfig, run_protocol
from quassert.qcore import Circuit, DensityMatrix, OutcomeDistribution, circuit_to_choi
from quassert.simulator import DEFAULT_NOISE, derive_seed, evolve


@pytest.fixture
def bell_suite(bell_circuit, mutated_circuit):
    """The shipped demo suite: three assertion types against both subroutines."""
    dist = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
    state = evolve(DensityMatrix.ground(2), bell_circuit)
    choi = circuit_to_choi(bell_circuit)
    assertions = (Assertion(dist), Assertion(state), Assertion(choi))
    return TestSuite(
        name="bell_pair_demo",
        n_qubits=2,
        cases=(
            TestCase("test_1", bell_circuit, assertions),
            TestCase("test_2", mutated_circuit, assertions),
        ),
        defaults=RunConfig(shots=3000, seed=17, threshold=0.5),
    )


class TestRunSuite:
    def test_demo_suite_verdict_pattern(self, bell_suite):
        report = run_suite(bell_suite)
        assert [r.result.passed for r in report.records] == [True] * 3 + [False] * 3
        assert [c.passed for c in report.cases] == [True, False]
        assert report.summary == {
            "assertions": 6,
            "assertions_passed": 3,
            "assertions_failed": 3,
            "cases": 2,
            "cases_passed": 1,
            "cases_failed": 1,
        }
        assert not report.all_passed

    def test_demo_suite_probability_bands(self, bell_suite):
        report = run_suite(bell_suite)
        probs = [r.result.probability for r in report.records]
        assert probs[0] >= 0.05  # chi-squared draw for the correct subroutine
        assert probs[1] >= 0.97
        assert probs[2] >= 0.95
        assert probs[3] == 0.0
        assert abs(probs[4] - 0.25) <= 0.05
        assert probs[5] <= 0.05

    def test_empty_circuit_against_point_mass_passes_with_one(self):
        suite = TestSuite(
            name="trivial",
            n_qubits=1,
            cases=(
                TestCase(
                    "noop",
                    Circuit(1),
                    (Assertion(OutcomeDistribution(1, [1.0, 0.0])),),
                ),
            ),
            defaults=RunConfig(shots=100, seed=0),
        )
        report = run_suite(suite)
        assert report.records[0].result.probability == 1.0
        assert report.all_passed

    def test_failures_are_results_not_errors(self, bell_suite):
        report = run_suite(bell_suite)  # must not raise despite three failures
        assert report.summary["assertions_failed"] == 3

    @pytest.mark.parametrize("noise", [None, DEFAULT_NOISE], ids=["noiseless", "default_noise"])
    def test_dispatch_parity_with_direct_protocol_calls(self, bell_suite, noise):
        from dataclasses import replace

        defaults = replace(bell_suite.defaults, noise=noise)
        suite = replace(bell_suite, defaults=defaults, save_data=True)
        report = run_suite(suite)
        assert {r.result.protocol_id for r in report.records} == {
            "proj", "state_tomo", "process_tomo"
        }
        for record in report.records:
            case = next(c for c in suite.cases if c.name == record.case_name)
            assertion = case.assertions[record.index]
            config = RunConfig(
                shots=defaults.shots,
                seed=derive_seed(defaults.seed, case.name, record.index),
                threshold=defaults.threshold,
                noise=noise,
            )
            direct = run_protocol(case.subject, assertion.expected, config)
            assert direct == record.result
        if noise is not None:  # every protocol's counts or estimate move under noise
            clean = run_suite(replace(bell_suite, save_data=True))
            for noisy_record, clean_record in zip(report.records, clean.records):
                assert noisy_record.artifacts != clean_record.artifacts

    def test_per_assertion_overrides(self, bell_circuit):
        dist = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        suite = TestSuite(
            name="overrides",
            n_qubits=2,
            cases=(
                TestCase(
                    "case",
                    bell_circuit,
                    (Assertion(dist, shots=123, threshold=0.01),),
                ),
            ),
            defaults=RunConfig(shots=999, seed=4, threshold=0.9),
        )
        report = run_suite(suite)
        result = report.records[0].result
        assert result.diagnostics["shots"] == 123
        assert result.threshold == 0.01

    def test_save_data_does_not_change_results(self, bell_suite):
        from dataclasses import replace

        plain = run_suite(bell_suite)
        saved = run_suite(replace(bell_suite, save_data=True))
        assert [r.result for r in plain.records] == [r.result for r in saved.records]
        assert all(r.artifacts is None for r in plain.records)
        assert all(r.artifacts for r in saved.records)
        assert "counts" in saved.records[0].artifacts
        assert "reconstructed_state" in saved.records[1].artifacts
        assert "reconstructed_choi" in saved.records[2].artifacts

    def test_suite_determinism(self, bell_suite):
        a = run_suite(bell_suite)
        b = run_suite(bell_suite)
        assert a == b


class TestValidation:
    def test_duplicate_case_names(self, bell_circuit):
        dist = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        suite = TestSuite(
            name="dup",
            n_qubits=2,
            cases=(
                TestCase("same", bell_circuit, (Assertion(dist),)),
                TestCase("same", bell_circuit, (Assertion(dist),)),
            ),
        )
        with pytest.raises(SuiteValidationError, match="duplicate"):
            run_suite(suite)

    def test_case_without_assertions(self, bell_circuit):
        suite = TestSuite(
            name="empty",
            n_qubits=2,
            cases=(TestCase("case", bell_circuit, ()),),
        )
        with pytest.raises(SuiteValidationError, match="no assertions"):
            validate_suite(suite)

    def test_qubit_count_mismatch(self, bell_circuit):
        suite = TestSuite(
            name="mismatch",
            n_qubits=3,
            cases=(
                TestCase(
                    "case",
                    bell_circuit,
                    (Assertion(OutcomeDistribution(2, [0.5, 0, 0, 0.5])),),
                ),
            ),
        )
        with pytest.raises(SuiteValidationError, match="qubit"):
            validate_suite(suite)

    def test_expected_value_qubit_mismatch(self, bell_circuit):
        suite = TestSuite(
            name="mismatch",
            n_qubits=2,
            cases=(
                TestCase(
                    "case",
                    bell_circuit,
                    (Assertion(OutcomeDistribution(1, [1.0, 0.0])),),
                ),
            ),
        )
        with pytest.raises(SuiteValidationError, match="assertion 0"):
            validate_suite(suite)

    def test_process_ref_qubits_checked(self, bell_circuit):
        suite = TestSuite(
            name="refcheck",
            n_qubits=2,
            cases=(
                TestCase("case", bell_circuit, (Assertion(ProcessRef(Circuit(1))),)),
            ),
        )
        with pytest.raises(SuiteValidationError):
            validate_suite(suite)

    @pytest.mark.parametrize(
        "n_qubits, expected",
        [
            (5, lambda n: DensityMatrix.ground(n)),
            (4, lambda n: ProcessRef(Circuit(n))),
        ],
        ids=["state_5q", "process_4q"],
    )
    def test_tomography_size_caps_checked_up_front(self, n_qubits, expected):
        ground = OutcomeDistribution(n_qubits, np.eye(2**n_qubits)[0])
        first = TestCase("first", Circuit(n_qubits), (Assertion(ground),))
        too_big = TestCase(
            "too_big", Circuit(n_qubits), (Assertion(ground), Assertion(expected(n_qubits)))
        )
        suite = TestSuite("caps", n_qubits, (first, too_big))
        with pytest.raises(SuiteValidationError, match="case 'too_big', assertion 1"):
            run_suite(suite)

    def test_bad_override_values(self, bell_circuit):
        dist = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        with pytest.raises(SuiteValidationError, match="shots"):
            validate_suite(
                TestSuite(
                    "s", 2, (TestCase("c", bell_circuit, (Assertion(dist, shots=0),)),)
                )
            )
        with pytest.raises(SuiteValidationError, match="threshold"):
            validate_suite(
                TestSuite(
                    "s", 2, (TestCase("c", bell_circuit, (Assertion(dist, threshold=2.0),)),)
                )
            )


class TestReportFormatting:
    def test_text_mode_exact_lines(self, bell_suite):
        report = run_suite(bell_suite)
        lines = format_report(report, "text").splitlines()
        assert len(lines) == 6
        for line, record in zip(lines, report.records):
            verdict = "PASSED" if record.result.passed else "FAILED"
            expected = f"[{verdict}]: with a {record.result.probability:.3f} probability of passing."
            assert line == expected

    def test_text_formatting_of_known_values(self):
        # Frozen examples of the verdict line format.
        from quassert.orchestrator import AssertionRecord, CaseVerdict, TestReport
        from quassert.protocols import AssertionResult

        def line_for(probability, passed):
            record = AssertionRecord(
                "case",
                0,
                AssertionResult("proj", probability, passed, 0.5, {}),
            )
            report = TestReport("x", (record,), (CaseVerdict("case", passed),), {})
            return format_report(report, "text").rstrip("\n")

        assert line_for(0.995, True) == "[PASSED]: with a 0.995 probability of passing."
        assert line_for(0.0, False) == "[FAILED]: with a 0.000 probability of passing."

    def test_json_round_trip(self, bell_suite):
        from dataclasses import replace

        report = run_suite(replace(bell_suite, save_data=True))
        text = format_report(report, "json")
        assert parse_report(text) == report

    def test_unknown_mode(self, bell_suite):
        report = run_suite(bell_suite)
        with pytest.raises(ValueError):
            format_report(report, "xml")
