"""Suite execution, report aggregation and serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quassert.orchestrator import (
    Assertion,
    SuiteValidationError,
    TestCase,
    TestSuite,
    format_report,
    parse_report,
    run_suite,
)
from quassert.protocols import ProcessRef, RunConfig, run_protocol
from quassert.qcore import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    OutcomeDistribution,
    gate,
)
from quassert.simulator import DEFAULT_NOISE, circuit_to_choi, derive_seed, evolve
from quassert.tomography import MAX_PROCESS_QUBITS, MAX_STATE_QUBITS

NaN = float("nan")


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
    """Each structural rule is raised while the type that owns it is built."""

    def test_duplicate_case_names(self, bell_circuit):
        dist = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        with pytest.raises(SuiteValidationError, match=r"cases\[1\]\.name: duplicate"):
            TestSuite(
                name="dup",
                n_qubits=2,
                cases=(
                    TestCase("same", bell_circuit, (Assertion(dist),)),
                    TestCase("same", bell_circuit, (Assertion(dist),)),
                ),
            )

    def test_case_without_assertions(self, bell_circuit):
        with pytest.raises(SuiteValidationError, match="no assertions"):
            TestCase("case", bell_circuit, ())

    def test_qubit_count_mismatch(self, bell_circuit):
        case = TestCase(
            "case", bell_circuit, (Assertion(OutcomeDistribution(2, [0.5, 0, 0, 0.5])),)
        )
        with pytest.raises(
            SuiteValidationError,
            match=r"cases\[0\]: subject uses 2 qubit\(s\) but the suite declares 3",
        ):
            TestSuite(name="mismatch", n_qubits=3, cases=(case,))

    def test_expected_value_qubit_mismatch(self, bell_circuit):
        with pytest.raises(
            SuiteValidationError,
            match=r"case 'case', assertion 0: expected value uses 1 qubit\(s\) "
            r"but the subject has 2",
        ):
            TestCase("case", bell_circuit, (Assertion(OutcomeDistribution(1, [1.0, 0.0])),))

    def test_process_ref_qubits_checked(self, bell_circuit):
        with pytest.raises(SuiteValidationError, match="assertion 0: expected value uses 1"):
            TestCase("case", bell_circuit, (Assertion(ProcessRef(Circuit(1))),))

    @pytest.mark.parametrize(
        "n_qubits, expected, protocol",
        [
            (5, lambda n: DensityMatrix.ground(n), "state_tomo"),
            (4, lambda n: ProcessRef(Circuit(n)), "process_tomo"),
        ],
        ids=["state_5q", "process_4q"],
    )
    def test_tomography_size_caps_checked_up_front(self, n_qubits, expected, protocol):
        value = expected(n_qubits)
        with pytest.raises(
            SuiteValidationError,
            match=f"{protocol} supports at most {n_qubits - 1} qubit\\(s\\), got {n_qubits}",
        ):
            Assertion(value)

    def test_bad_override_values(self):
        dist = OutcomeDistribution(2, [0.5, 0.0, 0.0, 0.5])
        with pytest.raises(SuiteValidationError, match="shots"):
            Assertion(dist, shots=0)
        with pytest.raises(SuiteValidationError, match="threshold"):
            Assertion(dist, threshold=2.0)


def _expected(kind: str, n_qubits: int):
    if kind == "distribution":
        return OutcomeDistribution(n_qubits, np.full(2**n_qubits, 0.5**n_qubits))
    if kind == "state":
        return DensityMatrix.ground(n_qubits)
    if kind == "choi":
        return circuit_to_choi(Circuit(n_qubits))
    return ProcessRef(Circuit(n_qubits, (gate("h", 0),)))


# The largest register each assertion kind accepts; a distribution's is the
# largest register drawn.
_KIND_CAPS = {"distribution": 5, "state": MAX_STATE_QUBITS, "choi": MAX_PROCESS_QUBITS,
              "process_ref": MAX_PROCESS_QUBITS}
_WRONG_FIELDS = ["register", "defaults", "save_data", "name", "subject", "count", "size", "shots",
                 "threshold", "wrapped"]


@st.composite
def suite_inputs(draw):
    """Raw inputs of a Python-built suite, valid or not: (register, defaults,
    save_data, [(case name, subject register or None, [(kind, size, shots,
    threshold, wrapped in Assertion)])]).  At most one field holds a wrong value
    (a wrong type, a value out of range, a register that does not match, a size
    beyond a tomography cap, a duplicate name or no assertions), so most
    examples build; a threshold is sometimes a numpy scalar."""
    wrong = draw(st.sampled_from([None] * 15 + _WRONG_FIELDS))
    n_cases = draw(st.integers(1, 2))
    bad_case = draw(st.integers(0, n_cases - 1))

    def pick(name, valid, wrong_values, here=True):
        return draw(st.sampled_from(wrong_values if wrong == name and here else valid))

    size = draw(st.integers(1, 5))
    register = pick("register", [size], [float(size), True, str(size), None])
    defaults = pick("defaults", [RunConfig(shots=5, seed=2)] * 3 + [
        RunConfig(shots=5, seed=2, threshold=np.float64(0.5))], [None, {"shots": 5}])
    save_data = pick("save_data", [False] * 3 + [True], ["yes", 1])
    cases = []
    for c in range(n_cases):
        names = [case[0] for case in cases]
        name = pick("name", [n for n in "abc" if n not in names], [5, None] + names, c == bad_case)
        subject = pick("subject", [size], [s for s in range(1, 6) if s != size] + [None],
                       c == bad_case)
        count = pick("count", [1, 1, 2], [0], c == bad_case)
        bad_assertion = draw(st.integers(0, max(count - 1, 0)))
        assertions = []
        for a in range(count):
            here = c == bad_case and a == bad_assertion
            r = subject or size
            kind = pick("size", [k for k, cap in _KIND_CAPS.items() if cap >= r], list(_KIND_CAPS),
                        here)
            top = 4 if kind == "choi" else 5  # a 5-qubit Choi matrix is slow to build
            assertions.append((
                kind,
                pick("size", [r], [s for s in range(1, top + 1)
                                   if s != r or s > _KIND_CAPS[kind]], here),
                pick("shots", [None, 1, 7, np.int64(3)], [0, -1, 2.5, True], here),
                pick("threshold", [None, 0.0, 0.3, 1.0, np.float64(0.5), np.float32(0.25),
                                   np.float16(0.75)], [NaN, 2.0, -0.1, True], here),
                pick("wrapped", [True], [False], here),
            ))
        cases.append((name, subject, assertions))
    return register, defaults, save_data, cases


def _built_assertion(kind, size, shots, threshold, wrapped):
    expected = _expected(kind, size)
    return Assertion(expected, shots, threshold) if wrapped else expected


class TestBuiltChecked:
    """A suite that could be built runs: each type checks its rules and its
    field types at construction."""

    @settings(max_examples=150, deadline=None)
    @given(suite_inputs())
    def test_built_suites_run_or_are_rejected_while_built(self, inputs):
        register, defaults, save_data, raw_cases = inputs
        try:
            suite = TestSuite(
                "random",
                register,
                tuple(
                    TestCase(
                        name,
                        None if subject is None else Circuit(subject, (gate("h", 0),)),
                        tuple(_built_assertion(*assertion) for assertion in assertions),
                    )
                    for name, subject, assertions in raw_cases
                ),
                defaults=defaults,
                save_data=save_data,
            )
        except SuiteValidationError:
            event("rejected while built")
            return
        event("built")
        assert type(suite.n_qubits) is int and type(suite.save_data) is bool
        assert isinstance(suite.defaults, RunConfig) and type(suite.defaults.threshold) is float
        for case in suite.cases:
            assert isinstance(case.name, str) and isinstance(case.subject, Circuit)
            assert all(isinstance(a, Assertion) for a in case.assertions)
            assert all(a.threshold is None or type(a.threshold) is float for a in case.assertions)
        report = run_suite(suite)
        assert len(report.records) == sum(len(case.assertions) for case in suite.cases)
        assert all(0.0 <= r.result.probability <= 1.0 for r in report.records)
        assert parse_report(format_report(report, "json")) == report

    @pytest.mark.parametrize("build, error, message", [
        (lambda c, a: TestSuite("s", 1, (TestCase("a", c, (a,)),), defaults=None),
         SuiteValidationError, "defaults: expected RunConfig, got NoneType"),
        # RunConfig is the protocols' config: it raises ValueError, as for its shots and seed
        (lambda c, a: TestSuite("s", 1, (TestCase("a", c, (a,)),),
                                defaults=RunConfig(noise="default")),
         ValueError, "noise must be a NoiseModel or None, got str"),
        (lambda c, a: TestSuite("s", 1, (TestCase("a", c, (a,)),),
                                defaults=RunConfig(noise={"readout_flip": 0.1})),
         ValueError, "noise must be a NoiseModel or None, got dict"),
        (lambda c, a: TestCase("a", c, (a.expected,)), SuiteValidationError,
         "case 'a', assertions[0]: expected Assertion, got OutcomeDistribution"),
        (lambda c, a: TestCase("a", None, (a,)),
         SuiteValidationError, "case 'a', subject: expected Circuit, got NoneType"),
        (lambda c, a: TestCase(5, c, (a,)), SuiteValidationError, "case name: expected str, got int"),
        (lambda c, a: TestCase("a", c, None),
         SuiteValidationError, "case 'a', assertions: expected tuple or list, got NoneType"),
        (lambda c, a: TestSuite("s", 1, (TestCase("a", c, (a,)),), save_data="yes"),
         SuiteValidationError, "save_data: expected bool, got str"),
        (lambda c, a: TestSuite("s", 1.0, (TestCase("a", c, (a,)),)),
         SuiteValidationError, "n_qubits must be an integer, got 1.0"),
        (lambda c, a: TestSuite("s", 1, None),
         SuiteValidationError, "cases: expected tuple or list, got NoneType"),
        (lambda c, a: TestSuite("s", 1, (a,)),
         SuiteValidationError, "cases[0]: expected TestCase, got Assertion"),
        (lambda c, a: TestSuite(None, 1, (TestCase("a", c, (a,)),)),
         SuiteValidationError, "suite name: expected str, got NoneType"),
    ], ids=["defaults", "noise_str", "noise_dict", "bare_expected", "subject", "case_name",
            "assertions", "save_data", "n_qubits", "cases", "case", "suite_name"])
    def test_wrong_field_types_rejected_while_built(self, build, error, message):
        subject = Circuit(1, (gate("h", 0),))
        assertion = Assertion(OutcomeDistribution(1, [0.5, 0.5]))
        with pytest.raises(error, match=re.escape(message)) as raised:
            build(subject, assertion)
        assert type(raised.value) is error

    def test_register_stored_as_int(self):
        case = TestCase("a", Circuit(1), [Assertion(OutcomeDistribution(1, [1.0, 0.0]))])
        suite = TestSuite("s", np.int64(1), [case])
        assert type(suite.n_qubits) is int and isinstance(suite.cases, tuple)

    def test_process_ref_is_held_as_its_choi_matrix(self, bell_circuit):
        assertion = Assertion(ProcessRef(bell_circuit))
        assert isinstance(assertion.expected, ChoiMatrix)
        assert np.array_equal(assertion.expected.mat, circuit_to_choi(bell_circuit).mat)

    def test_expected_value_without_a_protocol_rejected(self):
        with pytest.raises(SuiteValidationError, match="no protocol accepts"):
            Assertion([0.5, 0.5])

    def test_override_stored_as_int(self):
        assertion = Assertion(OutcomeDistribution(1, [1.0, 0.0]), shots=np.int64(40))
        assert type(assertion.shots) is int and assertion.shots == 40


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
        from quassert.orchestrator import AssertionRecord, TestReport
        from quassert.protocols import AssertionResult

        def line_for(probability):
            record = AssertionRecord("case", 0, AssertionResult("proj", probability, 0.5, {}))
            return format_report(TestReport("x", (record,)), "text").rstrip("\n")

        assert line_for(0.995) == "[PASSED]: with a 0.995 probability of passing."
        assert line_for(0.5) == "[PASSED]: with a 0.500 probability of passing."
        assert line_for(0.0) == "[FAILED]: with a 0.000 probability of passing."

    def test_json_round_trip(self, bell_suite):
        from dataclasses import replace

        report = run_suite(replace(bell_suite, save_data=True))
        text = format_report(report, "json")
        assert parse_report(text) == report

    def test_json_mode_rejects_non_finite_floats(self):
        from quassert.orchestrator import AssertionRecord, TestReport
        from quassert.protocols import AssertionResult

        result = AssertionResult("proj", 0.5, 0.5, {"statistic": float("inf")})
        with pytest.raises(ValueError, match="not JSON compliant"):
            format_report(TestReport("x", (AssertionRecord("case", 0, result),)), "json")

    def test_parse_report_derives_verdicts(self, bell_suite):
        text = format_report(run_suite(bell_suite), "json")
        data = json.loads(text)
        for entry in data["results"]:
            entry["passed"] = not entry["passed"]
        data["cases"] = [{"name": "test_2", "passed": True}]
        data["summary"] = {"assertions": 0}
        parsed = parse_report(json.dumps(data))
        assert [r.result.passed for r in parsed.records] == [True] * 3 + [False] * 3
        assert [(c.name, c.passed) for c in parsed.cases] == [
            ("test_1", True), ("test_2", False)
        ]
        assert parsed.summary == {
            "assertions": 6,
            "assertions_passed": 3,
            "assertions_failed": 3,
            "cases": 2,
            "cases_passed": 1,
            "cases_failed": 1,
        }
        assert not parsed.all_passed
        assert format_report(parsed, "json") == text

    def test_unknown_mode(self, bell_suite):
        report = run_suite(bell_suite)
        with pytest.raises(ValueError):
            format_report(report, "xml")
