"""Protocol library behind polymorphic assertions.

The expected value's type selects the protocol: an outcome distribution is
checked with Pearson's chi-squared test on sampled counts, a density matrix
with state tomography plus fidelity, a Choi matrix (or a reference circuit
standing in for one) with process tomography plus process fidelity.  Every
protocol reduces to a probability of passing in [0, 1] compared against a
confidence threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from quassert.qcore import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    OutcomeDistribution,
    circuit_to_choi,
    process_fidelity,
    state_fidelity,
)
from quassert.qmath import DimensionError, NumericError
from quassert.simulator import DensityMatrixSimulator
from quassert.stats import chi2_gof
from quassert.tomography import (
    measurement_settings,
    process_tomography,
    state_tomography,
)

PROTOCOL_PROJ = "proj"
PROTOCOL_STATE = "state_tomo"
PROTOCOL_PROCESS = "process_tomo"
PROTOCOL_IDS = (PROTOCOL_PROJ, PROTOCOL_STATE, PROTOCOL_PROCESS)

DEFAULT_THRESHOLD = 0.5
MAX_SHOTS = 2**63 - 1  # numpy draws counts as int64


class ContextError(TypeError):
    """Expected-value type does not match the requested protocol."""


@dataclass(frozen=True)
class ProcessRef:
    """Expected channel given as a reference circuit; converted on demand."""

    circuit: Circuit

    def choi(self) -> ChoiMatrix:
        return circuit_to_choi(self.circuit)


ExpectedValue = Union[OutcomeDistribution, DensityMatrix, ChoiMatrix, ProcessRef]


def protocol_for(expected: ExpectedValue) -> str:
    """Total dispatch from expected-value type to protocol id."""
    if isinstance(expected, OutcomeDistribution):
        return PROTOCOL_PROJ
    if isinstance(expected, DensityMatrix):
        return PROTOCOL_STATE
    if isinstance(expected, (ChoiMatrix, ProcessRef)):
        return PROTOCOL_PROCESS
    raise ContextError(
        f"no protocol accepts expected values of type {type(expected).__name__}"
    )


def context_check(expected: ExpectedValue, protocol_id: str) -> bool:
    """True iff the expected value's type selects the given protocol."""
    if protocol_id not in PROTOCOL_IDS:
        raise ValueError(f"unknown protocol id {protocol_id!r}")
    try:
        return protocol_for(expected) == protocol_id
    except ContextError:
        return False


def check_shots(shots: int, name: str = "shots") -> None:
    """Raise ValueError unless ``shots`` is a shot count the sampler can draw."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"{name} must be in [1, 2**63 - 1], got {shots}")


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is a probability."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


@dataclass(frozen=True)
class RunConfig:
    """Execution parameters for one assertion run."""

    backend: DensityMatrixSimulator = field(default_factory=DensityMatrixSimulator)
    shots: int = 1000
    seed: int = 0
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        check_shots(self.shots)
        check_threshold(self.threshold)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class AssertionResult:
    """Outcome of one polymorphic assertion."""

    protocol_id: str
    probability: float
    passed: bool
    threshold: float
    diagnostics: dict = field(default_factory=dict)


def _require_context(expected: ExpectedValue, protocol_id: str) -> None:
    actual = protocol_for(expected)
    if actual != protocol_id:
        raise ContextError(
            f"expected value of type {type(expected).__name__} selects protocol "
            f"{actual!r}, not {protocol_id!r}"
        )


def _counts_to_bitstrings(tallies: dict, n_qubits: int) -> dict[str, int]:
    return {format(k, f"0{n_qubits}b"): v for k, v in sorted(tallies.items())}


def _matrix_to_pairs(mat) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _run_proj(
    subject: Circuit, expected: OutcomeDistribution, config: RunConfig
) -> tuple[float, dict, dict]:
    state = config.backend.evolve(DensityMatrix.ground(subject.n_qubits), subject)
    counts = config.backend.sample(state, None, config.shots, config.seed)
    result = chi2_gof(counts, expected)
    diagnostics = {
        "statistic": result.statistic,
        "dof": result.dof,
        "shots": config.shots,
        "settings": 1,
    }
    artifacts = {"counts": _counts_to_bitstrings(counts.tallies, subject.n_qubits)}
    return result.p_value, diagnostics, artifacts


def _run_state_tomo(
    subject: Circuit, expected: DensityMatrix, config: RunConfig
) -> tuple[float, dict, dict]:
    estimate = state_tomography(None, subject, config.backend, config.shots, config.seed)
    probability = state_fidelity(estimate, expected)
    diagnostics = {
        "settings": len(measurement_settings(subject.n_qubits)),
        "shots_per_setting": config.shots,
        "estimate_purity": estimate.purity(),
    }
    artifacts = {"reconstructed_state": _matrix_to_pairs(estimate.mat)}
    return probability, diagnostics, artifacts


def _run_process_tomo(
    subject: Circuit, expected: ChoiMatrix, config: RunConfig
) -> tuple[float, dict, dict]:
    estimate = process_tomography(subject, config.backend, config.shots, config.seed)
    probability = process_fidelity(estimate, expected)
    diagnostics = {
        "preparations": 4**subject.n_qubits,
        "settings_per_preparation": len(measurement_settings(subject.n_qubits)),
        "shots_per_setting": config.shots,
        "estimate_trace": float(estimate.mat.trace().real),
    }
    artifacts = {"reconstructed_choi": _matrix_to_pairs(estimate.mat)}
    return probability, diagnostics, artifacts


def run_protocol_detailed(
    subject: Circuit,
    expected: ExpectedValue,
    config: RunConfig,
    protocol_id: str | None = None,
) -> tuple[AssertionResult, dict]:
    """Run the protocol selected by the expected value; also return artifacts.

    Passing ``protocol_id`` pins the protocol explicitly; a type mismatch then
    raises :class:`ContextError` naming both sides.  Artifacts are the raw
    intermediates (counts or reconstructed matrices) in JSON-ready form;
    :func:`run_protocol` discards them.
    """
    if protocol_id is None:
        protocol_id = protocol_for(expected)
    else:
        _require_context(expected, protocol_id)

    if isinstance(expected, ProcessRef):
        expected = expected.choi()

    if isinstance(expected, OutcomeDistribution):
        if expected.n_qubits != subject.n_qubits:
            raise DimensionError(
                f"expected distribution on {expected.n_qubits} qubit(s) vs subject on "
                f"{subject.n_qubits}"
            )
    elif expected.n_qubits != subject.n_qubits:
        raise DimensionError(
            f"expected value on {expected.n_qubits} qubit(s) vs subject on "
            f"{subject.n_qubits}"
        )

    try:
        if protocol_id == PROTOCOL_PROJ:
            probability, diagnostics, artifacts = _run_proj(subject, expected, config)
        elif protocol_id == PROTOCOL_STATE:
            probability, diagnostics, artifacts = _run_state_tomo(subject, expected, config)
        else:
            probability, diagnostics, artifacts = _run_process_tomo(subject, expected, config)
    except NumericError as exc:
        raise NumericError(f"{protocol_id}: {exc}") from exc

    result = AssertionResult(
        protocol_id=protocol_id,
        probability=probability,
        passed=probability >= config.threshold,
        threshold=config.threshold,
        diagnostics=diagnostics,
    )
    return result, artifacts


def run_protocol(
    subject: Circuit,
    expected: ExpectedValue,
    config: RunConfig,
    protocol_id: str | None = None,
) -> AssertionResult:
    """Dispatch on the expected value's type and evaluate the assertion."""
    result, _ = run_protocol_detailed(subject, expected, config, protocol_id)
    return result
