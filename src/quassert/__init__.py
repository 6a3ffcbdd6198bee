"""quassert: unit testing for quantum subroutines.

Polymorphic probabilistic equality assertions evaluated by one of three
protocols (chi-squared test on measurement counts, quantum state tomography,
quantum process tomography) against an embedded density-matrix simulator.
"""

from quassert.qcore import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    GateOp,
    OutcomeDistribution,
    gate,
    process_fidelity,
    state_fidelity,
)
from quassert.simulator import (
    NoiseModel,
    circuit_to_choi,
    derive_seed,
    evolve,
    exact_distribution,
    pauli_distributions,
    sample,
)
from quassert.stats import Chi2Result, chi2_gof, regularized_gamma_q
from quassert.tomography import process_tomography, state_tomography
from quassert.protocols import (
    AssertionResult,
    ProcessRef,
    RunConfig,
    context_check,
    run_protocol,
)
from quassert.orchestrator import (
    Assertion,
    TestCase,
    TestReport,
    TestSuite,
    format_report,
    parse_report,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Assertion",
    "AssertionResult",
    "Chi2Result",
    "ChoiMatrix",
    "Circuit",
    "DensityMatrix",
    "GateOp",
    "NoiseModel",
    "OutcomeDistribution",
    "ProcessRef",
    "RunConfig",
    "TestCase",
    "TestReport",
    "TestSuite",
    "chi2_gof",
    "circuit_to_choi",
    "context_check",
    "derive_seed",
    "evolve",
    "exact_distribution",
    "format_report",
    "gate",
    "parse_report",
    "pauli_distributions",
    "process_fidelity",
    "process_tomography",
    "regularized_gamma_q",
    "run_protocol",
    "run_suite",
    "sample",
    "state_fidelity",
    "state_tomography",
]
