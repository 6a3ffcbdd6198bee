"""Protocol library behind polymorphic assertions.

The expected value's type selects the protocol: an outcome distribution is
checked with Pearson's chi-squared test on sampled counts, a density matrix
with state tomography plus fidelity, a Choi matrix (or a reference circuit
standing in for one) with process tomography plus process fidelity.  Every
protocol reduces to a probability of passing in [0, 1] compared against a
confidence threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from quassert.qcore import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    OutcomeDistribution,
    process_fidelity,
    state_fidelity,
)
from quassert.qmath import DimensionError, NumericError
from quassert.simulator import (
    NoiseModel,
    _normalized,
    apply_readout,
    check_noise,
    check_seed,
    check_shots,
    check_threshold,
    circuit_to_choi,
    evolve,
    sample,
)
from quassert.stats import chi2_gof
from quassert.tomography import (
    MAX_PROCESS_QUBITS,
    MAX_STATE_QUBITS,
    SizeLimitError,
    process_tomography,
    state_tomography,
)

PROTOCOL_PROJ = "proj"
PROTOCOL_STATE = "state_tomo"
PROTOCOL_PROCESS = "process_tomo"

DEFAULT_THRESHOLD = 0.5


class ContextError(TypeError):
    """No protocol accepts the expected value's type."""


@dataclass(frozen=True)
class ProcessRef:
    """Expected channel given as a reference circuit; :func:`checked_expected` converts it."""

    circuit: Circuit

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits


ExpectedValue = Union[OutcomeDistribution, DensityMatrix, ChoiMatrix, ProcessRef]


def _protocol(expected: ExpectedValue) -> tuple:
    """The (protocol id, runner, qubit cap) row the expected value's type selects."""
    for types, row in _PROTOCOLS.items():
        if isinstance(expected, types):
            return row
    raise ContextError(f"no protocol accepts expected values of type {type(expected).__name__}")


def protocol_for(expected: ExpectedValue) -> str:
    """Total dispatch from expected-value type to protocol id."""
    return _protocol(expected)[0]


def checked_expected(expected: ExpectedValue) -> ExpectedValue:
    """The expected value within its protocol's qubit cap, a :class:`ProcessRef`
    converted to its Choi matrix only once the cap has passed."""
    protocol_id, _, limit = _protocol(expected)
    if limit is not None and expected.n_qubits > limit:
        message = f"{protocol_id} supports at most {limit} qubit(s), got {expected.n_qubits}"
        raise SizeLimitError(message)
    return circuit_to_choi(expected.circuit) if isinstance(expected, ProcessRef) else expected


def context_check(expected: ExpectedValue, protocol_id: str) -> bool:
    """True iff the expected value's type selects the given protocol."""
    if protocol_id not in {row[0] for row in _PROTOCOLS.values()}:
        raise ValueError(f"unknown protocol id {protocol_id!r}")
    try:
        return protocol_for(expected) == protocol_id
    except ContextError:
        return False


@dataclass(frozen=True)
class RunConfig:
    """Execution parameters for one assertion run."""

    shots: int = 1000
    seed: int = 0
    threshold: float = DEFAULT_THRESHOLD
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "shots", check_shots(self.shots))  # numpy ints stored as int
        object.__setattr__(self, "threshold", check_threshold(self.threshold))
        object.__setattr__(self, "seed", check_seed(self.seed))
        check_noise(self.noise)


@dataclass(frozen=True)
class AssertionResult:
    """Outcome of one polymorphic assertion."""

    protocol_id: str
    probability: float
    threshold: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.probability >= self.threshold


def _run_proj(
    subject: Circuit, expected: OutcomeDistribution, config: RunConfig
) -> tuple[float, dict, dict]:
    # The validated ground state is the trust boundary; only the real diagonal
    # of its CPTP image is evolved and read (symmetrizing would not change it).
    ground = DensityMatrix.ground(subject.n_qubits).mat[None]
    diagonal = evolve(ground, subject, config.noise, diagonal=True)[0]
    probs = apply_readout(_normalized(diagonal), config.noise)
    counts = sample(probs, config.shots, config.seed)
    result = chi2_gof(counts, expected)
    diagnostics = {
        "statistic": result.statistic if math.isfinite(result.statistic) else None,
        "dof": result.dof,
        "shots": config.shots,
        "settings": 1,
    }
    return result.p_value, diagnostics, {"counts": counts}


def _run_state_tomo(
    subject: Circuit, expected: DensityMatrix, config: RunConfig
) -> tuple[float, dict, dict]:
    estimate = state_tomography(subject, config.noise, config.shots, config.seed)
    probability = state_fidelity(estimate, expected)
    diagnostics = {
        "settings": 3**subject.n_qubits,
        "shots_per_setting": config.shots,
        "estimate_purity": estimate.purity(),
    }
    return probability, diagnostics, {"reconstructed_state": estimate.mat}


def _run_process_tomo(
    subject: Circuit, expected: ChoiMatrix, config: RunConfig
) -> tuple[float, dict, dict]:
    estimate = process_tomography(subject, config.noise, config.shots, config.seed)
    probability = process_fidelity(estimate, expected)
    diagnostics = {
        "preparations": 4**subject.n_qubits,
        "settings_per_preparation": 3**subject.n_qubits,
        "shots_per_setting": config.shots,
        "estimate_trace": float(estimate.mat.trace().real),
    }
    return probability, diagnostics, {"reconstructed_choi": estimate.mat}


# The one dispatch, by isinstance: type(s) -> (protocol id, runner, qubit cap or None).
_PROTOCOLS = {
    OutcomeDistribution: (PROTOCOL_PROJ, _run_proj, None),
    DensityMatrix: (PROTOCOL_STATE, _run_state_tomo, MAX_STATE_QUBITS),
    (ChoiMatrix, ProcessRef): (PROTOCOL_PROCESS, _run_process_tomo, MAX_PROCESS_QUBITS),
}


def run_protocol_detailed(
    subject: Circuit, expected: ExpectedValue, config: RunConfig
) -> tuple[AssertionResult, dict]:
    """Run the protocol selected by the expected value; also return artifacts.

    Artifacts are the raw intermediates as arrays: the int64 counts, or the
    reconstructed matrix.  :func:`run_protocol` discards them.
    """
    protocol_id, run, _ = _protocol(expected)
    if expected.n_qubits != subject.n_qubits:
        raise DimensionError(
            f"expected value on {expected.n_qubits} qubit(s) vs subject on "
            f"{subject.n_qubits}"
        )
    expected = checked_expected(expected)

    try:
        probability, diagnostics, artifacts = run(subject, expected, config)
    except NumericError as exc:
        raise NumericError(f"{protocol_id}: {exc}") from exc

    result = AssertionResult(
        protocol_id=protocol_id,
        probability=probability,
        threshold=config.threshold,
        diagnostics=diagnostics,
    )
    return result, artifacts


def run_protocol(subject: Circuit, expected: ExpectedValue, config: RunConfig) -> AssertionResult:
    """Dispatch on the expected value's type and evaluate the assertion."""
    result, _ = run_protocol_detailed(subject, expected, config)
    return result
