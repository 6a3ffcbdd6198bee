"""Test-suite model and execution engine.

A suite is a declarative document: named cases, each holding a subject
circuit and an ordered list of assertions whose expected-value types select
the protocols.  Each type raises :class:`SuiteValidationError` for its own
rules and field types when it is built, so a suite that exists runs:
:func:`run_suite` checks nothing.  Failures are results, not errors.  Per-assertion seeds
derive from the master seed, the case name and the assertion ordinal, so
reports are reproducible.  A report stores only its records; case verdicts
and the summary derive from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from quassert.protocols import (
    AssertionResult,
    ContextError,
    ExpectedValue,
    RunConfig,
    checked_expected,
    run_protocol_detailed,
)
from quassert.qcore import Circuit, _as_qubit_count
from quassert.simulator import check_shots, check_threshold, derive_seed


class SuiteValidationError(ValueError):
    """The suite is structurally invalid; nothing was executed."""


def _check_type(value, kind: type, what: str) -> None:
    if not isinstance(value, kind):
        raise SuiteValidationError(f"{what}: expected {kind.__name__}, got {type(value).__name__}")


def _tuple_of(items, kind: type, what: str) -> tuple:
    """A tuple or list of ``kind`` values, as a tuple."""
    if not isinstance(items, (tuple, list)):
        raise SuiteValidationError(f"{what}: expected tuple or list, got {type(items).__name__}")
    for i, item in enumerate(items):
        _check_type(item, kind, f"{what}[{i}]")
    return tuple(items)


@dataclass(frozen=True)
class Assertion:
    """One expected value plus optional per-assertion overrides.

    A :class:`ProcessRef` is replaced by its Choi matrix once it has passed
    the tomography cap, so an oversized 4^n matrix is never built.
    """

    expected: ExpectedValue
    shots: int | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "expected", checked_expected(self.expected))
            if self.shots is not None:
                object.__setattr__(self, "shots", check_shots(self.shots))
            if self.threshold is not None:
                object.__setattr__(self, "threshold", check_threshold(self.threshold))
        except (ContextError, ValueError) as exc:
            raise SuiteValidationError(str(exc)) from exc


@dataclass(frozen=True)
class TestCase:
    """A subject circuit and its non-empty assertions, all on its register."""

    __test__ = False  # domain object, not a pytest class

    name: str
    subject: Circuit
    assertions: tuple[Assertion, ...]

    def __post_init__(self) -> None:
        _check_type(self.name, str, "case name")
        _check_type(self.subject, Circuit, f"case {self.name!r}, subject")
        assertions = _tuple_of(self.assertions, Assertion, f"case {self.name!r}, assertions")
        object.__setattr__(self, "assertions", assertions)
        if not self.assertions:
            raise SuiteValidationError(f"case {self.name!r} has no assertions")
        for i, assertion in enumerate(self.assertions):
            qubits = assertion.expected.n_qubits
            if qubits != self.subject.n_qubits:
                raise SuiteValidationError(
                    f"case {self.name!r}, assertion {i}: expected value uses {qubits} "
                    f"qubit(s) but the subject has {self.subject.n_qubits}"
                )


@dataclass(frozen=True)
class TestSuite:
    """Uniquely named cases whose subjects all act on the suite's register."""

    __test__ = False  # domain object, not a pytest class

    name: str
    n_qubits: int
    cases: tuple[TestCase, ...]
    defaults: RunConfig = field(default_factory=RunConfig)
    save_data: bool = False

    def __post_init__(self) -> None:
        _check_type(self.name, str, "suite name")
        try:
            object.__setattr__(self, "n_qubits", _as_qubit_count(self.n_qubits))
        except ValueError as exc:
            raise SuiteValidationError(str(exc)) from exc
        _check_type(self.defaults, RunConfig, "defaults")
        _check_type(self.save_data, bool, "save_data")
        object.__setattr__(self, "cases", _tuple_of(self.cases, TestCase, "cases"))
        names = [case.name for case in self.cases]
        for i, case in enumerate(self.cases):
            if case.name in names[:i]:
                raise SuiteValidationError(f"cases[{i}].name: duplicate case name {case.name!r}")
            if case.subject.n_qubits != self.n_qubits:
                raise SuiteValidationError(
                    f"cases[{i}]: subject uses {case.subject.n_qubits} qubit(s) "
                    f"but the suite declares {self.n_qubits}"
                )


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
    """A suite's records in declaration order; every verdict derives from them."""

    __test__ = False  # domain object, not a pytest class

    suite_name: str
    records: tuple[AssertionRecord, ...]

    @property
    def cases(self) -> tuple[CaseVerdict, ...]:
        """One verdict per case, in order: passed iff all its assertions passed."""
        passed: dict[str, bool] = {}
        for r in self.records:
            passed[r.case_name] = passed.get(r.case_name, True) and r.result.passed
        return tuple(CaseVerdict(name, verdict) for name, verdict in passed.items())

    @property
    def summary(self) -> dict:
        summary = {}
        for unit, verdicts in (("assertions", [r.result.passed for r in self.records]),
                               ("cases", [c.passed for c in self.cases])):
            passed = sum(verdicts)
            summary.update({unit: len(verdicts), f"{unit}_passed": passed,
                            f"{unit}_failed": len(verdicts) - passed})
        return summary

    @property
    def all_passed(self) -> bool:
        return all(r.result.passed for r in self.records)


def _saved_artifacts(artifacts: dict) -> dict:
    """A runner's raw artifacts in report form: counts as {bitstring: count} over
    the nonzero outcomes, a reconstructed matrix as rows of [re, im] pairs."""
    saved = {}
    for name, value in artifacts.items():
        if name == "counts":
            n_qubits = value.size.bit_length() - 1
            saved[name] = {format(k, f"0{n_qubits}b"): int(v) for k, v in enumerate(value) if v}
        else:
            saved[name] = [[[float(z.real), float(z.imag)] for z in row] for row in value]
    return saved


def run_suite(suite: TestSuite) -> TestReport:
    """Execute every assertion of every case, in declaration order; artifacts
    are converted to report form only when the suite saves them."""
    records: list[AssertionRecord] = []
    for case in suite.cases:
        for i, assertion in enumerate(case.assertions):
            overrides = {"shots": assertion.shots, "threshold": assertion.threshold}
            config = replace(
                suite.defaults,
                seed=derive_seed(suite.defaults.seed, case.name, i),
                **{key: value for key, value in overrides.items() if value is not None},
            )
            result, artifacts = run_protocol_detailed(case.subject, assertion.expected, config)
            saved = _saved_artifacts(artifacts) if suite.save_data else None
            records.append(AssertionRecord(case.name, i, result, saved))
    return TestReport(suite.name, tuple(records))


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
    """Inverse of :func:`report_to_dict`; the derived verdict fields are not read."""
    records = tuple(
        AssertionRecord(
            case_name=entry["case"],
            index=entry["index"],
            result=AssertionResult(
                protocol_id=entry["protocol"],
                probability=entry["probability"],
                threshold=entry["threshold"],
                diagnostics=entry["diagnostics"],
            ),
            artifacts=entry["artifacts"],
        )
        for entry in data["results"]
    )
    return TestReport(suite_name=data["suite"], records=records)


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
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    raise ValueError(f"unknown report mode {mode!r}")


def parse_report(text: str) -> TestReport:
    """Inverse of JSON-mode :func:`format_report`."""
    return report_from_dict(json.loads(text))
