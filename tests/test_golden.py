"""Golden-report contract: reports must not drift when internals change.

``golden_report.json`` freezes the output of the demo suite (with artifacts,
noiseless and with the ``default`` noise preset), the three shipped sweeps on
a short shot grid, and programmatic suites for 3- and 4-qubit state
tomography, noisy 2-qubit process tomography, a noisy 6-qubit chi-squared
test and a noiseless 7-qubit one with an idle qubit.  Verdicts, counts, CSV rows and every
other non-float value must match exactly; floats (probabilities, diagnostics,
reconstructed matrices) may move by at most ``FLOAT_TOL``, relative for
magnitudes above 1.

An intended change of behaviour regenerates the entries it moves with
``PYTHONPATH=src python tests/test_golden.py KEY ...`` (keys as in
``ENTRY_KEYS``, e.g. ``bell_pair/default``) and names the change in
CHANGES.md.  Only the named entries are rewritten; the others stay byte for
byte as they were, so the floats of untouched entries do not pick up the
regenerating machine's last-bit rounding.  With no key every entry is rewritten; an
unknown key exits 2 and lists ``ENTRY_KEYS``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quassert.cli import load_suite, load_sweep, run_sweep
from quassert.orchestrator import (
    Assertion,
    TestCase,
    TestSuite,
    report_to_dict,
    run_suite,
)
from quassert.protocols import ProcessRef, RunConfig
from quassert.qcore import (
    Circuit,
    DensityMatrix,
    OutcomeDistribution,
    gate,
)
from quassert.simulator import DEFAULT_NOISE, circuit_to_choi, evolve, exact_distribution
from conftest import circuit_to_unitary

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_report.json"
FLOAT_TOL = 1e-9

SWEEP_GRID = (10, 100, 1000)
SWEEP_TRIALS = 2
NOISE = {"noiseless": None, "default": DEFAULT_NOISE}


def _ideal_state(c: Circuit) -> DensityMatrix:
    return DensityMatrix.from_statevector(circuit_to_unitary(c)[:, 0])


def _ideal_distribution(c: Circuit) -> OutcomeDistribution:
    return OutcomeDistribution(c.n_qubits, np.abs(circuit_to_unitary(c)[:, 0]) ** 2)


def _noisy_distribution(c: Circuit) -> OutcomeDistribution:
    """Exact outcome distribution under the default preset, readout flips included."""
    state = evolve(DensityMatrix.ground(c.n_qubits), c, DEFAULT_NOISE)
    probs = exact_distribution(state).probs.reshape((2,) * c.n_qubits)
    flip = DEFAULT_NOISE.readout_flip
    for axis in range(c.n_qubits):
        probs = (1.0 - flip) * probs + flip * np.flip(probs, axis=axis)
    return OutcomeDistribution(c.n_qubits, probs.reshape(-1))


def _programmatic_suites() -> dict[str, TestSuite]:
    state3 = Circuit(3, (gate("h", 0), gate("cx", 0, 1), gate("cx", 1, 2),
                         gate("rx", 2, angle=0.7), gate("t", 1)))
    state3_wrong = Circuit(3, (gate("h", 0), gate("cx", 0, 1), gate("cx", 1, 2),
                               gate("rx", 2, angle=2.2), gate("t", 1)))
    state4 = Circuit(4, (gate("h", 0), gate("cx", 0, 1), gate("ry", 2, angle=0.4),
                         gate("cz", 2, 3), gate("swap", 1, 3), gate("s", 0)))
    process2 = Circuit(2, (gate("h", 0), gate("cx", 0, 1), gate("rz", 1, angle=0.3)))
    process2_wrong = Circuit(2, (gate("h", 1), gate("cx", 0, 1), gate("rz", 1, angle=0.3)))
    proj6 = Circuit(6, (gate("h", 0), gate("h", 1), gate("h", 2), gate("cx", 2, 3),
                        gate("cx", 3, 4), gate("ry", 5, angle=1.1), gate("swap", 0, 5)))
    proj6_wrong = Circuit(6, (gate("h", 0), gate("h", 1), gate("h", 2), gate("cx", 2, 3),
                              gate("cx", 3, 4), gate("ry", 5, angle=0.8), gate("swap", 0, 5)))
    # Qubit 6 stays idle, qubit 5 sees one-qubit gates only, and the Hadamards
    # leave outcome probabilities at p = 0.5 ties, which a draw reads to the last bit.
    proj7 = Circuit(7, (gate("h", 0), gate("cx", 0, 1), gate("h", 2), gate("ry", 3, angle=0.6),
                        gate("cx", 2, 3), gate("h", 4), gate("cz", 3, 4), gate("swap", 1, 4),
                        gate("h", 5), gate("t", 5), gate("rx", 0, angle=0.4), gate("cx", 4, 0)))
    proj7_wrong = Circuit(7, proj7.ops[:3] + (gate("ry", 3, angle=1.5),) + proj7.ops[4:])

    def suite(name, n, subject, expected, shots, noise):
        case = TestCase(name, subject, tuple(Assertion(e) for e in expected))
        defaults = RunConfig(shots=shots, seed=29, noise=noise)
        return TestSuite(name, n, (case,), defaults=defaults, save_data=True)

    return {
        "state_tomo_3q": suite("state_tomo_3q", 3, state3,
                               (_ideal_state(state3), _ideal_state(state3_wrong)), 400, None),
        "state_tomo_4q_noisy": suite("state_tomo_4q_noisy", 4, state4,
                                     (_ideal_state(state4),), 200, DEFAULT_NOISE),
        "process_tomo_2q_noisy": suite("process_tomo_2q_noisy", 2, process2,
                                       (ProcessRef(process2), circuit_to_choi(process2_wrong)),
                                       200, DEFAULT_NOISE),
        "proj_6q_noisy": suite("proj_6q_noisy", 6, proj6,
                               (_noisy_distribution(proj6), _noisy_distribution(proj6_wrong)),
                               2000, DEFAULT_NOISE),
        "proj_7q_noiseless": suite("proj_7q_noiseless", 7, proj7,
                                   (_ideal_distribution(proj7), _ideal_distribution(proj7_wrong)),
                                   2000, None),
    }


def _json_ready(value):
    return json.loads(json.dumps(value))


def compute_entry(key: str):
    """Recompute one golden entry; keys are ``<source>/<variant>``."""
    source, variant = key.split("/")
    if source == "bell_pair":
        suite = load_suite(ROOT / "suites" / "bell_pair.json")
        suite = replace(suite, save_data=True,
                        defaults=replace(suite.defaults, noise=NOISE[variant]))
        return _json_ready(report_to_dict(run_suite(suite)))
    if source.startswith("sweep_"):
        config = load_sweep(ROOT / "suites" / f"{source}.json")
        config = replace(config, shot_grid=SWEEP_GRID, trials_per_point=SWEEP_TRIALS,
                         noise=NOISE[variant])
        csv_text, _, _ = run_sweep(config, rates=True)
        return csv_text.splitlines()
    return _json_ready(report_to_dict(run_suite(_programmatic_suites()[variant])))


ENTRY_KEYS = (
    [f"bell_pair/{v}" for v in NOISE]
    + [f"{s}/{v}" for s in ("sweep_proj", "sweep_state", "sweep_process") for v in NOISE]
    + [f"suite/{name}" for name in ("state_tomo_3q", "state_tomo_4q_noisy",
                                    "process_tomo_2q_noisy", "proj_6q_noisy",
                                    "proj_7q_noiseless")]
)


def assert_matches(actual, expected, path: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), f"{path}: keys differ"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), f"{path}: {actual!r} is not a float"
        close = actual == expected or (
            math.isfinite(expected)
            and abs(actual - expected) <= FLOAT_TOL * max(1.0, abs(expected))
        )
        assert close, f"{path}: {actual!r} vs golden {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} vs golden {expected!r}"
        )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_entry(golden):
    assert sorted(golden) == sorted(ENTRY_KEYS)


@pytest.mark.parametrize("key", ENTRY_KEYS)
def test_report_matches_golden(golden, key):
    assert_matches(compute_entry(key), golden[key], key)


def _dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def main(keys: list[str]) -> int:
    """Rewrite the named entries of the golden file, or all of them if none is named."""
    unknown = [key for key in keys if key not in ENTRY_KEYS]
    if unknown:
        print(f"unknown entry key(s): {', '.join(unknown)}; ENTRY_KEYS: {', '.join(ENTRY_KEYS)}",
              file=sys.stderr)
        return 2
    data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if keys else {}
    data.update({key: compute_entry(key) for key in keys or ENTRY_KEYS})
    GOLDEN_PATH.write_text(_dump(data), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")
    return 0


def test_golden_file_is_in_its_written_form(golden):
    # A rewrite of some keys loads and re-dumps the others: that must keep their bytes.
    assert _dump(golden) == GOLDEN_PATH.read_text(encoding="utf-8")


def test_rewrite_touches_only_the_named_keys(golden, tmp_path, monkeypatch, capsys):
    key, other = "sweep_proj/noiseless", "suite/proj_6q_noisy"
    stale = dict(golden, **{key: ["stale"], other: ["kept"]})
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_PATH", tmp_path / "golden.json")
    GOLDEN_PATH.write_text(_dump(stale), encoding="utf-8")
    assert main([key]) == 0
    assert GOLDEN_PATH.read_text(encoding="utf-8") == _dump(dict(stale, **{key: golden[key]}))
    assert main(["sweep_proj/noisy"]) == 2
    assert GOLDEN_PATH.read_text(encoding="utf-8") == _dump(dict(stale, **{key: golden[key]}))
    err = capsys.readouterr().err
    assert all(k in err for k in ["sweep_proj/noisy"] + ENTRY_KEYS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
