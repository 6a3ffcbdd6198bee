"""Test-suite model and execution engine.

A suite is a declarative document: named cases, each holding a subject
circuit and an ordered list of assertions whose expected-value types select
the protocols.  Execution never aborts on a failing assertion - failures are
results, not errors.  Per-assertion seeds derive from the master seed, the
case name and the assertion ordinal, so reports are reproducible and
independent of scheduling.  Suites can equally be built programmatically from
these dataclasses and run with :func:`run_suite`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from quassert.protocols import (
    PROTOCOL_PROCESS,
    PROTOCOL_STATE,
    AssertionResult,
    ExpectedValue,
    ProcessRef,
    RunConfig,
    check_shots,
    check_threshold,
    protocol_for,
    run_protocol_detailed,
)
from quassert.qcore import Circuit, DensityMatrix, OutcomeDistribution
from quassert.simulator import DensityMatrixSimulator, NoiseModel, derive_seed
from quassert.tomography import MAX_PROCESS_QUBITS, MAX_STATE_QUBITS

_TOMOGRAPHY_QUBIT_LIMITS = {
    PROTOCOL_STATE: MAX_STATE_QUBITS,
    PROTOCOL_PROCESS: MAX_PROCESS_QUBITS,
}


class SuiteValidationError(ValueError):
    """The suite is structurally invalid; nothing was executed."""


@dataclass(frozen=True)
class Assertion:
    """One expected value plus optional per-assertion overrides."""

    expected: ExpectedValue
    shots: int | None = None
    threshold: float | None = None


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # domain object, not a pytest class

    name: str
    subject: Circuit
    assertions: tuple[Assertion, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assertions", tuple(self.assertions))


@dataclass(frozen=True)
class SuiteDefaults:
    shots: int = 1000
    seed: int = 0
    threshold: float = 0.5
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        check_shots(self.shots)
        check_threshold(self.threshold)


@dataclass(frozen=True)
class TestSuite:
    __test__ = False  # domain object, not a pytest class

    name: str
    n_qubits: int
    cases: tuple[TestCase, ...]
    defaults: SuiteDefaults = field(default_factory=SuiteDefaults)
    save_data: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "cases", tuple(self.cases))


@dataclass(frozen=True)
class AssertionRecord:
    """One assertion's result in declaration order, plus saved artifacts."""

    case_name: str
    index: int
    result: AssertionResult
    artifacts: dict | None = None


@dataclass(frozen=True)
class CaseVerdict:
    name: str
    passed: bool


@dataclass(frozen=True)
class TestReport:
    __test__ = False  # domain object, not a pytest class

    suite_name: str
    records: tuple[AssertionRecord, ...]
    cases: tuple[CaseVerdict, ...]
    summary: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)


def _expected_qubits(expected: ExpectedValue) -> int:
    if isinstance(expected, ProcessRef):
        return expected.circuit.n_qubits
    return expected.n_qubits


def validate_assertion(assertion: Assertion, n_qubits: int, where: str) -> None:
    """Raise :class:`SuiteValidationError` at ``where`` unless the assertion
    can run on a register of ``n_qubits`` qubits.
    """
    qubits = _expected_qubits(assertion.expected)
    if qubits != n_qubits:
        raise SuiteValidationError(
            f"{where}: expected value uses {qubits} qubit(s) but the register "
            f"has {n_qubits}"
        )
    protocol = protocol_for(assertion.expected)
    limit = _TOMOGRAPHY_QUBIT_LIMITS.get(protocol)
    if limit is not None and n_qubits > limit:
        raise SuiteValidationError(
            f"{where}: {protocol} supports at most {limit} qubit(s), got {n_qubits}"
        )
    try:
        if assertion.shots is not None:
            check_shots(assertion.shots)
        if assertion.threshold is not None:
            check_threshold(assertion.threshold)
    except ValueError as exc:
        raise SuiteValidationError(f"{where}: {exc}") from exc


def validate_suite(suite: TestSuite) -> None:
    """Raise :class:`SuiteValidationError` on any structural problem."""
    seen: set[str] = set()
    for case in suite.cases:
        if case.name in seen:
            raise SuiteValidationError(f"duplicate case name {case.name!r}")
        seen.add(case.name)
        if not case.assertions:
            raise SuiteValidationError(f"case {case.name!r} has no assertions")
        if case.subject.n_qubits != suite.n_qubits:
            raise SuiteValidationError(
                f"case {case.name!r}: subject uses {case.subject.n_qubits} qubit(s) "
                f"but the suite declares {suite.n_qubits}"
            )
        for i, assertion in enumerate(case.assertions):
            validate_assertion(assertion, suite.n_qubits, f"case {case.name!r}, assertion {i}")


def run_suite(suite: TestSuite) -> TestReport:
    """Execute every assertion of every case and aggregate a report."""
    validate_suite(suite)
    backend = DensityMatrixSimulator(noise=suite.defaults.noise)

    records: list[AssertionRecord] = []
    verdicts: list[CaseVerdict] = []
    for case in suite.cases:
        case_passed = True
        for i, assertion in enumerate(case.assertions):
            config = RunConfig(
                backend=backend,
                shots=assertion.shots if assertion.shots is not None else suite.defaults.shots,
                seed=derive_seed(suite.defaults.seed, case.name, i),
                threshold=(
                    assertion.threshold
                    if assertion.threshold is not None
                    else suite.defaults.threshold
                ),
            )
            result, artifacts = run_protocol_detailed(case.subject, assertion.expected, config)
            records.append(
                AssertionRecord(
                    case_name=case.name,
                    index=i,
                    result=result,
                    artifacts=artifacts if suite.save_data else None,
                )
            )
            case_passed = case_passed and result.passed
        verdicts.append(CaseVerdict(case.name, case_passed))

    passed = sum(1 for r in records if r.result.passed)
    cases_passed = sum(1 for v in verdicts if v.passed)
    summary = {
        "assertions": len(records),
        "assertions_passed": passed,
        "assertions_failed": len(records) - passed,
        "cases": len(verdicts),
        "cases_passed": cases_passed,
        "cases_failed": len(verdicts) - cases_passed,
    }
    return TestReport(
        suite_name=suite.name,
        records=tuple(records),
        cases=tuple(verdicts),
        summary=summary,
    )


def report_to_dict(report: TestReport) -> dict:
    return {
        "suite": report.suite_name,
        "results": [
            {
                "case": r.case_name,
                "index": r.index,
                "protocol": r.result.protocol_id,
                "probability": r.result.probability,
                "passed": r.result.passed,
                "threshold": r.result.threshold,
                "diagnostics": r.result.diagnostics,
                "artifacts": r.artifacts,
            }
            for r in report.records
        ],
        "cases": [{"name": c.name, "passed": c.passed} for c in report.cases],
        "summary": report.summary,
    }


def report_from_dict(data: dict) -> TestReport:
    records = tuple(
        AssertionRecord(
            case_name=entry["case"],
            index=entry["index"],
            result=AssertionResult(
                protocol_id=entry["protocol"],
                probability=entry["probability"],
                passed=entry["passed"],
                threshold=entry["threshold"],
                diagnostics=entry["diagnostics"],
            ),
            artifacts=entry["artifacts"],
        )
        for entry in data["results"]
    )
    cases = tuple(CaseVerdict(c["name"], c["passed"]) for c in data["cases"])
    return TestReport(
        suite_name=data["suite"],
        records=records,
        cases=cases,
        summary=data["summary"],
    )


def format_report(report: TestReport, mode: str = "text") -> str:
    """Render the report: one verdict line per assertion, or structured JSON."""
    if mode == "text":
        lines = [
            "[{}]: with a {:.3f} probability of passing.".format(
                "PASSED" if r.result.passed else "FAILED", r.result.probability
            )
            for r in report.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    if mode == "json":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown report mode {mode!r}")


def parse_report(text: str) -> TestReport:
    """Inverse of JSON-mode :func:`format_report`."""
    return report_from_dict(json.loads(text))
