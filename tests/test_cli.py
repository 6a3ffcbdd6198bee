"""Command-line behavior: exit codes, report output, sweep CSV, overrides."""

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import reference_circuit, reference_number_array
from quassert import cli
from quassert.cli import (
    DEFAULT_TRIALS,
    SweepConfig,
    _number_array,
    decode_noise,
    load_suite,
    load_sweep,
    main,
    run_sweep,
)
from quassert.orchestrator import (
    Assertion,
    SuiteValidationError,
    TestCase,
    format_report,
    parse_report,
)
from quassert.qcore import GATES, Circuit, DensityMatrix, OutcomeDistribution, gate

NaN = float("nan")
Infinity = float("inf")
from quassert.simulator import DEFAULT_NOISE

SUITE_PATH = str(Path(__file__).resolve().parent.parent / "suites" / "bell_pair.json")
SWEEP_STATE_PATH = str(Path(__file__).resolve().parent.parent / "suites" / "sweep_state.json")

EXPECTED_DEMO_LINES = 6


@pytest.fixture
def tiny_suite(tmp_path):
    doc = {
        "name": "tiny",
        "n_qubits": 1,
        "defaults": {"shots": 200, "seed": 3, "threshold": 0.5},
        "cases": [
            {
                "name": "noop",
                "circuit": [],
                "assertions": [{"type": "distribution", "value": [1.0, 0.0]}],
            }
        ],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def tiny_sweep(tmp_path):
    doc = {
        "name": "tiny-sweep",
        "n_qubits": 1,
        "seed": 5,
        "shot_grid": [10, 50],
        "trials_per_point": 4,
        "positive_case": {
            "name": "pos",
            "circuit": [{"gate": "h", "qubits": [0]}],
            "assertion": {"type": "distribution", "value": [0.5, 0.5]},
        },
        "negative_case": {
            "name": "neg",
            "circuit": [{"gate": "x", "qubits": [0]}],
            "assertion": {"type": "distribution", "value": [0.5, 0.5]},
        },
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadSuite:
    def test_demo_suite_loads(self):
        suite = load_suite(SUITE_PATH)
        assert suite.name == "bell_pair_demo"
        assert suite.n_qubits == 2
        assert len(suite.cases) == 2
        assert suite.defaults.shots == 3000
        assert suite.defaults.noise is None

    def test_schema_violation_reports_location(self, tmp_path):
        doc = {"name": "bad", "n_qubits": 2, "cases": [{"name": "c", "circuit": []}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SuiteValidationError, match=r"cases\[0\]"):
            load_suite(path)

    def test_bad_gate_reports_location(self, tmp_path):
        doc = {
            "name": "bad",
            "n_qubits": 1,
            "cases": [
                {
                    "name": "c",
                    "circuit": [{"gate": "ccx", "qubits": [0]}],
                    "assertions": [{"type": "distribution", "value": [1, 0]}],
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SuiteValidationError):
            load_suite(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(SuiteValidationError, match="line"):
            load_suite(path)

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SuiteValidationError, match="nested too deeply"):
            load_suite(path)

    def test_noise_presets(self):
        assert decode_noise("default") == DEFAULT_NOISE
        assert decode_noise("none") is None
        assert decode_noise(None) is None
        assert decode_noise({"readout_flip": 0.3}).readout_flip == 0.3
        with pytest.raises(SuiteValidationError):
            decode_noise("loud")


class TestLoadSweep:
    def test_demo_sweep_loads(self):
        config = load_sweep(SWEEP_STATE_PATH)
        assert config.shot_grid == (10, 30, 100, 300, 1000, 3000, 10000)
        assert config.trials_per_point == DEFAULT_TRIALS

    def test_mismatched_assertion_types_rejected(self, tmp_path):
        doc = json.loads(Path(SWEEP_STATE_PATH).read_text())
        doc["negative_case"]["assertion"] = {
            "type": "distribution",
            "value": [0.5, 0.0, 0.0, 0.5],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SuiteValidationError, match="different assertion types"):
            load_sweep(path)

    def test_unsorted_grid_rejected(self, tmp_path):
        doc = json.loads(Path(SWEEP_STATE_PATH).read_text())
        doc["shot_grid"] = [100, 10]
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SuiteValidationError, match="ascending"):
            load_sweep(path)

    @pytest.mark.parametrize(
        "n_qubits, oversized, where",
        [
            (5, "positive_case", "positive_case.assertion: state_tomo supports at most 4"),
            (4, "negative_case", "negative_case.assertion: process_tomo supports at most 3"),
        ],
        ids=["state_5q", "process_4q"],
    )
    def test_tomography_caps_checked_before_running(self, capsys, tmp_path, n_qubits,
                                                     oversized, where):
        dim = 2**n_qubits
        ground = [1.0] + [0.0] * (dim - 1)
        if n_qubits == 5:
            value = {"type": "state",
                     "value": [[[v, 0.0] for v in (ground if r == 0 else [0.0] * dim)]
                               for r in range(dim)]}
        else:
            value = {"type": "process_ref", "value": []}
        case = {"name": "c", "circuit": [], "assertion": {"type": "distribution", "value": ground}}
        doc = {"name": "caps", "n_qubits": n_qubits, "shot_grid": [10], "trials_per_point": 1,
               "positive_case": dict(case, name="pos"), "negative_case": dict(case, name="neg")}
        doc[oversized]["assertion"] = value
        path = tmp_path / "caps.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SuiteValidationError, match=where):
            load_sweep(path)
        assert main(["sweep", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert where in captured.err


def _sweep_case(name: str, subject_qubits: int = 1, expected_qubits: int = 1) -> TestCase:
    expected = OutcomeDistribution(expected_qubits, [0.5**expected_qubits] * 2**expected_qubits)
    return TestCase(name, Circuit(subject_qubits, (gate("h", 0),)), (Assertion(expected),))


class TestSweepConfig:
    """A Python-built sweep is checked when it is built, not partway through its run."""

    def test_every_grid_entry_checked(self):
        with pytest.raises(ValueError, match="shot_grid entries must be an integer, got 20.5"):
            SweepConfig("s", _sweep_case("pos"), _sweep_case("neg"), shot_grid=(10, 20.5, 30))

    @pytest.mark.parametrize("trials", [2.5, True], ids=["float", "bool"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials_per_point must be an integer"):
            SweepConfig("s", _sweep_case("pos"), _sweep_case("neg"), trials_per_point=trials)

    @pytest.mark.parametrize("noise, kind", [("default", "str"), ({"readout_flip": 0.1}, "dict")],
                             ids=["str", "dict"])
    def test_noise_must_be_a_noise_model(self, noise, kind):
        with pytest.raises(ValueError, match=f"noise must be a NoiseModel or None, got {kind}"):
            SweepConfig("s", _sweep_case("pos"), _sweep_case("neg"), noise=noise)

    def test_numbers_stored_as_ints(self):
        config = SweepConfig("s", _sweep_case("pos"), _sweep_case("neg"),
                             shot_grid=(np.int64(10), 20), trials_per_point=np.int64(2))
        assert config.shot_grid == (10, 20) and type(config.shot_grid[0]) is int
        assert type(config.trials_per_point) is int
        csv_text, _, _ = run_sweep(config)
        assert csv_text.splitlines()[1].startswith("10,")

    @pytest.mark.parametrize("assertions, side", [
        (lambda d: (Assertion(d, shots=7, threshold=0.9), Assertion(DensityMatrix.ground(1))),
         "positive"),
        (lambda d: (Assertion(d), Assertion(d)), "negative"),
        (lambda d: (Assertion(d, shots=7),), "positive"),
        (lambda d: (Assertion(d, threshold=0.9),), "negative"),
    ], ids=["override_and_second_assertion", "two_assertions", "shots", "threshold"])
    def test_case_holds_one_assertion_without_overrides(self, assertions, side):
        dist = OutcomeDistribution(1, [0.5, 0.5])
        cases = {"positive": _sweep_case("pos"), "negative": _sweep_case("neg")}
        name = cases[side].name
        cases[side] = TestCase(name, Circuit(1, (gate("h", 0),)), assertions(dist))
        with pytest.raises(ValueError, match=f"case '{name}' must hold exactly one assertion"):
            SweepConfig("s", cases["positive"], cases["negative"])

    @pytest.mark.parametrize("fields, message", [
        (lambda: (None, _sweep_case("pos"), _sweep_case("neg")),
         "sweep name: expected str, got NoneType"),
        (lambda: ("s", None, _sweep_case("neg")),
         "positive_case: expected TestCase, got NoneType"),
        (lambda: ("s", _sweep_case("pos"), "neg"), "negative_case: expected TestCase, got str"),
    ], ids=["name", "positive_case", "negative_case"])
    def test_field_types_checked_first(self, fields, message):
        with pytest.raises(SuiteValidationError, match=message):
            SweepConfig(*fields())

    def test_mismatched_register_rejected_while_built(self):
        with pytest.raises(SuiteValidationError, match="expected value uses 1 qubit"):
            SweepConfig("s", _sweep_case("pos", 2, 1), _sweep_case("neg", 2, 2))


class TestCmdRun:
    def test_demo_suite_text_output(self, capsys):
        code = main(["run", SUITE_PATH])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 1  # test_2 fails
        assert len(lines) == EXPECTED_DEMO_LINES
        assert lines[0].startswith("[PASSED]: with a ")
        assert lines[3] == "[FAILED]: with a 0.000 probability of passing."

    def test_demo_suite_json_output(self, capsys):
        code = main(["run", SUITE_PATH, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [r["passed"] for r in payload["results"]] == [True] * 3 + [False] * 3
        assert payload["summary"]["cases_failed"] == 1

    def test_passing_suite_exit_zero(self, capsys, tiny_suite):
        code = main(["run", tiny_suite])
        assert code == 0
        assert capsys.readouterr().out == "[PASSED]: with a 1.000 probability of passing.\n"

    @pytest.mark.parametrize(
        "command, runner, error",
        [
            ("run", "run_suite", MemoryError("Unable to allocate 256. GiB for an array with "
                                             "shape (65536, 65536) and data type complex128")),
            ("sweep", "run_protocol", MemoryError()),
        ],
        ids=["run", "sweep"],
    )
    def test_refused_allocation_exit_three(self, capsys, monkeypatch, tiny_suite, tiny_sweep,
                                           command, runner, error):
        """numpy's refusal is raised by a stand-in runner: a real oversized
        allocation can succeed on a host that overcommits memory, then exhaust it."""

        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"quassert.cli.{runner}", refuse)
        code = main([command, tiny_suite if command == "run" else tiny_sweep])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numeric error: out of memory: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_missing_file_exit_two(self, capsys):
        assert main(["run", "/definitely/not/here.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_document_exit_two(self, capsys, tmp_path):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["run", str(path)]) == 2
        assert "n_qubits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, where",
        [
            # json.loads accepts NaN and Infinity, and the schema's "number" does too.
            (
                {"name": "c", "circuit": [], "assertions": [
                    {"type": "state", "value": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
                "cases[1].assertions[0]",
            ),
            (
                {"name": "c", "circuit": [{"gate": "rx", "qubits": [0], "angle": Infinity}],
                 "assertions": [{"type": "distribution", "value": [0.5, 0.5]}]},
                "cases[1].circuit[0]",
            ),
        ],
        ids=["nan_state", "infinite_angle"],
    )
    def test_non_finite_input_exit_two(self, capsys, tmp_path, case, where):
        first = {"name": "first", "circuit": [],
                 "assertions": [{"type": "distribution", "value": [1.0, 0.0]}]}
        doc = {"name": "nonfinite", "n_qubits": 1, "cases": [first, case]}
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert where in captured.err and "finite" in captured.err

    def test_infinite_matrix_entry_prints_one_error_line(self, tmp_path):
        # numpy's complex multiply meets an infinite imaginary part before the
        # matrix type rejects it; its warning must not reach stderr.
        state = [[[1, 0], [0, Infinity]], [[0, 0], [0, 0]]]
        doc = {"name": "inf", "n_qubits": 1, "cases": [
            {"name": "c", "circuit": [], "assertions": [{"type": "state", "value": state}]}]}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        done = subprocess.run([sys.executable, "-m", "quassert.cli", "run", str(path)],
                              capture_output=True, text=True)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"error: {path}: cases[0].assertions[0]: density matrix has non-finite entries\n"
        )

    def test_threshold_and_shots_overrides(self, capsys):
        # Per-verdict threshold: at 0.999 the single-draw chi-squared p-value
        # for the correct subroutine (0.942) fails too, flipping its verdict.
        main(["run", SUITE_PATH, "--threshold", "0.999"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAILED]")
        code = main(["run", SUITE_PATH, "--shots", "10"])
        out = capsys.readouterr().out
        assert code == 1
        assert len(out.splitlines()) == EXPECTED_DEMO_LINES

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--shots", "1000000000000000000000000000000"], "shots"),
            (["--shots", "0"], "shots"),
            (["--threshold", "1.5"], "threshold"),
            (["--threshold", "nan"], "threshold"),
            (["--seed", "-1"], "seed"),
            (["--seed", str(2**64)], "seed"),
        ],
        ids=["shots_1e30", "shots_zero", "threshold_above_1", "threshold_nan", "seed_negative",
             "seed_above_64_bits"],
    )
    def test_flag_overrides_checked_like_document_values(self, capsys, tiny_suite, flags,
                                                          field):
        assert main(["run", tiny_suite] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flags[0]}: {field} must be")

    def test_seed_override_changes_draw(self, capsys):
        main(["run", SUITE_PATH, "--seed", "1"])
        first = capsys.readouterr().out
        main(["run", SUITE_PATH, "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_noise_override_degrades_chi2(self, capsys):
        code = main(["run", SUITE_PATH, "--noise", "default"])
        out = capsys.readouterr().out
        # Readout flips hit forbidden bins: the chi-squared line fails at 0.
        assert out.splitlines()[0] == "[FAILED]: with a 0.000 probability of passing."
        assert code == 1

    def test_noisy_json_report_is_strict_json(self, capsys, tmp_path):
        # A forbidden-bin hit has an infinite chi2 statistic, which a report
        # writes as null: NaN and Infinity are not JSON.
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        out_dir = tmp_path / "out"
        argv = ["run", SUITE_PATH, "--noise", "default", "--format", "json"]
        assert main(argv + ["--save-data", str(out_dir)]) == 1
        stdout = capsys.readouterr().out
        for text in (stdout, (out_dir / "report.json").read_text(encoding="utf-8")):
            payload = json.loads(text, parse_constant=reject)
            assert payload["results"][0]["diagnostics"]["statistic"] is None
            assert format_report(parse_report(text), "json") == text

    def test_noise_file_override(self, capsys, tmp_path, tiny_suite):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({"readout_flip": 1.0}))
        code = main(["run", tiny_suite, "--noise", str(noise_path)])
        assert code == 1  # every shot flips into the forbidden bin
        assert "[FAILED]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"readout_flip": true}', "noise.readout_flip"),
            ("[" * 100_000, "JSON nested too deeply"),
        ],
        ids=["bool_strength", "deep_nesting"],
    )
    def test_malformed_noise_file_exit_two(self, capsys, tmp_path, tiny_suite, text, where):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(text)
        assert main(["run", tiny_suite, "--noise", str(noise_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{noise_path}: {where}" in captured.err

    def test_save_data_writes_report(self, capsys, tmp_path, tiny_suite):
        out_dir = tmp_path / "artifacts"
        main(["run", tiny_suite, "--save-data", str(out_dir)])
        capsys.readouterr()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["results"][0]["artifacts"]["counts"] == {"0": 200}

    @pytest.mark.parametrize("below", ["", "sub"], ids=["is_a_file", "below_a_file"])
    def test_unusable_save_data_dir_rejected_before_running(self, capsys, tmp_path, tiny_suite,
                                                             below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir = blocker / below if below else blocker
        assert main(["run", tiny_suite, "--save-data", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out_dir) in captured.err

    def test_save_data_field_alone_writes_no_file(self, capsys, tmp_path, monkeypatch, tiny_suite):
        doc = json.loads(Path(tiny_suite).read_text())
        doc["save_data"] = True
        suite_path = tmp_path / "saving.json"
        suite_path.write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        main(["run", str(suite_path), "--format", "json"])
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["results"][0]["artifacts"]["counts"] == {"0": 200}
        assert sorted(tmp_path.rglob("*")) == before
        main(["run", str(suite_path), "--format", "json", "--save-data", str(tmp_path / "out")])
        assert capsys.readouterr().out == stdout
        assert (tmp_path / "out" / "report.json").read_bytes() == stdout.encode()

    def test_run_determinism(self, capsys):
        main(["run", SUITE_PATH, "--format", "json"])
        first = capsys.readouterr().out
        main(["run", SUITE_PATH, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestCmdSweep:
    def test_csv_shape_and_ranges(self, capsys, tiny_sweep):
        code = main(["sweep", tiny_sweep])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "shots,alpha,beta,J"
        assert len(lines) == 3
        for line in lines[1:]:
            shots, alpha, beta, j = line.split(",")
            assert int(shots) in (10, 50)
            assert 0.0 <= float(alpha) <= 1.0
            assert 0.0 <= float(beta) <= 1.0
            assert -1.0 <= float(j) <= 1.0

    def test_sweep_determinism(self, capsys, tiny_sweep):
        main(["sweep", tiny_sweep])
        first = capsys.readouterr().out
        main(["sweep", tiny_sweep])
        second = capsys.readouterr().out
        assert first == second

    def test_rates_columns(self, capsys, tiny_sweep):
        main(["sweep", tiny_sweep, "--rates"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "shots,alpha,beta,J,alpha_pass,beta_pass"
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_timing_goes_to_stderr(self, capsys, tiny_sweep):
        main(["sweep", tiny_sweep, "--timing"])
        captured = capsys.readouterr()
        assert "seconds_per_logical_shot" in captured.err
        assert "seconds_per_logical_shot" not in captured.out

    def test_trials_override(self, capsys, tiny_sweep):
        config = load_sweep(tiny_sweep)
        csv_text, protocol, _ = run_sweep(config)
        assert protocol == "proj"
        code = main(["sweep", tiny_sweep, "--trials", "2"])
        assert code == 0
        override = capsys.readouterr().out
        assert override != csv_text  # fewer trials shift the means

    def test_zero_trials_flag_rejected(self, capsys, tiny_sweep):
        assert main(["sweep", tiny_sweep, "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --trials: trials_per_point must be")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_flag_outside_64_bits_rejected(self, capsys, tiny_sweep, seed):
        assert main(["sweep", tiny_sweep, "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --seed: seed must be in [0, 2**64), got {seed}")

    def test_mismatched_types_exit_two(self, capsys, tmp_path):
        doc = json.loads(Path(SWEEP_STATE_PATH).read_text())
        doc["negative_case"]["assertion"] = {
            "type": "distribution",
            "value": [0.5, 0.0, 0.0, 0.5],
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path)]) == 2
        assert "different assertion types" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Malformed-document table: one malformed suite or sweep document per rule.
# Every row must exit 2 before anything runs, print nothing on stdout and
# name the offending location on stderr.

_DROP = object()


def _table_suite() -> dict:
    return {
        "name": "table",
        "n_qubits": 1,
        "save_data": False,
        "defaults": {"shots": 50, "seed": 3, "threshold": 0.5, "noise": None},
        "cases": [
            {
                "name": "c",
                "circuit": [{"gate": "rx", "qubits": [0], "angle": 0.5}],
                "assertions": [
                    {"type": "distribution", "value": [0.9, 0.1], "shots": 40, "threshold": 0.1},
                    {"type": "state", "value": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                    {"type": "process_ref", "value": [{"gate": "h", "qubits": [0]}]},
                ],
            }
        ],
    }


def _table_sweep() -> dict:
    return {
        "name": "table-sweep",
        "n_qubits": 1,
        "seed": 5,
        "shot_grid": [10, 20],
        "trials_per_point": 2,
        "noise": None,
        "positive_case": {
            "name": "pos",
            "circuit": [{"gate": "h", "qubits": [0]}],
            "assertion": {"type": "distribution", "value": [0.5, 0.5]},
        },
        "negative_case": {
            "name": "neg",
            "circuit": [{"gate": "x", "qubits": [0]}],
            "assertion": {"type": "distribution", "value": [0.5, 0.5]},
        },
    }


_TABLE_DOCS = {"run": _table_suite, "sweep": _table_sweep}


def _table_document(tmp_path, command: str, path: tuple, value) -> str:
    doc = _TABLE_DOCS[command]()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    out = tmp_path / f"{command}.json"
    out.write_text(json.dumps(doc))
    return str(out)


_A0 = ("cases", 0, "assertions", 0)
_G0 = ("cases", 0, "circuit", 0)
_STATE = ("cases", 0, "assertions", 1, "value")
_REF = ("cases", 0, "assertions", 2, "value")

_SCHEMA_RULE_ROWS = [
    # missing required key
    ("run", ("n_qubits",), _DROP, ["n_qubits"], "missing_n_qubits"),
    ("run", ("cases", 0, "assertions"), _DROP, ["cases[0]", "assertions"], "missing_assertions"),
    ("run", _G0 + ("qubits",), _DROP, ["cases[0].circuit[0]", "qubits"], "missing_qubits"),
    ("run", _A0 + ("value",), _DROP, ["cases[0].assertions[0]", "value"], "missing_value"),
    ("sweep", ("positive_case",), _DROP, ["positive_case"], "missing_positive_case"),
    ("sweep", ("negative_case", "assertion"), _DROP, ["negative_case", "assertion"],
     "missing_sweep_assertion"),
    # unknown key
    ("run", ("extra",), 1, ["extra"], "unknown_top_key"),
    ("run", ("defaults", "retries"), 3, ["defaults", "retries"], "unknown_defaults_key"),
    ("run", _G0 + ("control",), 1, ["cases[0].circuit[0]", "control"], "unknown_gate_key"),
    ("run", _A0 + ("tolerance",), 0.1, ["cases[0].assertions[0]", "tolerance"],
     "unknown_assertion_key"),
    ("run", ("defaults", "noise"), {"dephasing": 0.1}, ["defaults.noise"], "unknown_noise_key"),
    ("sweep", ("trials",), 2, ["trials"], "unknown_sweep_key"),
    ("sweep", ("positive_case", "extra"), 1, ["positive_case", "extra"], "unknown_case_key"),
    # a sweep takes its shots from shot_grid and averages probabilities
    ("sweep", ("positive_case", "assertion", "shots"), 40,
     ["positive_case.assertion: unknown key 'shots'"], "sweep_assertion_shots"),
    ("sweep", ("negative_case", "assertion", "threshold"), 0.1,
     ["negative_case.assertion: unknown key 'threshold'"], "sweep_assertion_threshold"),
    # wrong JSON type for each field
    ("run", ("name",), 5, ["name"], "type_name"),
    ("run", ("n_qubits",), "1", ["n_qubits"], "type_n_qubits"),
    ("run", ("save_data",), "yes", ["save_data"], "type_save_data"),
    ("run", ("defaults",), [], ["defaults"], "type_defaults"),
    ("run", ("defaults", "shots"), "100", ["defaults", "shots"], "type_defaults_shots"),
    ("run", ("defaults", "seed"), "3", ["defaults", "seed"], "type_defaults_seed"),
    ("run", ("defaults", "threshold"), "0.5", ["defaults", "threshold"],
     "type_defaults_threshold"),
    ("run", ("defaults", "noise"), 5, ["defaults.noise"], "type_noise"),
    ("run", ("defaults", "noise"), {"readout_flip": "0.1"}, ["defaults.noise"],
     "type_noise_field"),
    ("run", ("cases",), {}, ["cases"], "type_cases"),
    ("run", ("cases", 0), "c", ["cases[0]"], "type_case"),
    ("run", ("cases", 0, "name"), 7, ["cases[0].name"], "type_case_name"),
    ("run", ("cases", 0, "circuit"), {}, ["cases[0].circuit"], "type_circuit"),
    ("run", _G0, "h", ["cases[0].circuit[0]"], "type_gate_entry"),
    ("run", _G0 + ("gate",), 1, ["cases[0].circuit[0]"], "type_gate_name"),
    ("run", _G0 + ("qubits",), 0, ["cases[0].circuit[0].qubits"], "type_qubits"),
    ("run", _G0 + ("qubits", 0), "0", ["cases[0].circuit[0].qubits[0]"], "type_qubit"),
    ("run", _G0 + ("angle",), "0.5", ["cases[0].circuit[0].angle"], "type_angle"),
    ("run", ("cases", 0, "assertions"), {}, ["cases[0].assertions"], "type_assertions"),
    ("run", _A0, [], ["cases[0].assertions[0]"], "type_assertion"),
    ("run", _A0 + ("type",), 1, ["cases[0].assertions[0]"], "type_assertion_type"),
    ("run", _A0 + ("type",), ["state"], ["cases[0].assertions[0]"], "array_assertion_type"),
    ("run", _A0 + ("shots",), "40", ["cases[0].assertions[0]", "shots"], "type_assertion_shots"),
    ("run", _A0 + ("threshold",), "0.1", ["cases[0].assertions[0]", "threshold"],
     "type_assertion_threshold"),
    ("sweep", ("seed",), "5", ["seed"], "type_sweep_seed"),
    ("sweep", ("shot_grid",), "10", ["shot_grid"], "type_shot_grid"),
    ("sweep", ("shot_grid", 0), "10", ["shot_grid[0]"], "type_shot_grid_entry"),
    ("sweep", ("trials_per_point",), "2", ["trials_per_point"], "type_trials"),
    ("sweep", ("noise",), 5, ["noise"], "type_sweep_noise"),
    ("sweep", ("positive_case",), "pos", ["positive_case"], "type_sweep_case"),
    ("sweep", ("positive_case", "circuit", 0, "qubits", 0), "0",
     ["positive_case.circuit[0].qubits[0]"], "type_sweep_qubit"),
    # true where a number goes
    ("run", ("n_qubits",), True, ["n_qubits"], "bool_n_qubits"),
    ("run", ("defaults", "shots"), True, ["defaults", "shots"], "bool_shots"),
    ("run", ("defaults", "threshold"), True, ["defaults", "threshold"], "bool_threshold"),
    ("run", _G0 + ("qubits", 0), True, ["cases[0].circuit[0].qubits[0]"], "bool_qubit"),
    ("run", _G0 + ("angle",), True, ["cases[0].circuit[0].angle"], "bool_angle"),
    ("run", ("defaults", "noise"), {"readout_flip": True}, ["defaults.noise"], "bool_noise"),
    ("sweep", ("shot_grid", 0), True, ["shot_grid[0]"], "bool_shot_grid_entry"),
    # empty name, empty cases/assertions
    ("run", ("name",), "", ["name"], "empty_name"),
    ("run", ("cases", 0, "name"), "", ["cases[0].name"], "empty_case_name"),
    ("run", ("cases",), [], ["cases"], "empty_cases"),
    ("run", ("cases", 0, "assertions"), [], ["cases[0].assertions"], "empty_assertions"),
    ("sweep", ("name",), "", ["name"], "empty_sweep_name"),
    ("sweep", ("positive_case", "name"), "", ["positive_case.name"], "empty_sweep_case_name"),
    # value ranges
    ("run", ("n_qubits",), 0, ["n_qubits"], "zero_qubits"),
    ("run", _G0, {"gate": "cx", "qubits": [0, 1, 2]}, ["cases[0].circuit[0]"], "three_qubits"),
    ("run", _G0 + ("qubits",), [], ["cases[0].circuit[0]"], "no_qubits"),
    ("run", _G0 + ("qubits",), [-1], ["cases[0].circuit[0]"], "negative_qubit"),
    ("run", _G0 + ("gate",), "ccx", ["cases[0].circuit[0]"], "unknown_gate"),
    ("run", ("defaults", "noise"), {"depolarizing_1q": 1.5}, ["defaults.noise"], "noise_above_1"),
    ("run", ("defaults", "noise"), {"readout_flip": -0.1}, ["defaults.noise"], "noise_below_0"),
    ("run", _A0 + ("type",), "unitary", ["cases[0].assertions[0]"], "unknown_assertion_type"),
    ("run", ("defaults", "shots"), 0, ["defaults", "shots"], "zero_shots"),
    ("run", _A0 + ("shots",), 0, ["cases[0].assertions[0]", "shots"], "zero_assertion_shots"),
    ("run", ("defaults", "threshold"), 1.5, ["defaults", "threshold"], "threshold_above_1"),
    ("run", _A0 + ("threshold",), -0.1, ["cases[0].assertions[0]", "threshold"],
     "assertion_threshold_below_0"),
    ("sweep", ("n_qubits",), 0, ["n_qubits"], "zero_sweep_qubits"),
    ("sweep", ("noise",), {"depolarizing_2q": 2}, ["noise"], "sweep_noise_above_1"),
    ("sweep", ("negative_case", "assertion", "type"), "unitary", ["negative_case.assertion"],
     "unknown_sweep_assertion_type"),
    ("sweep", ("shot_grid",), [100, 10], ["shot_grid"], "shot_grid_descending"),
    ("sweep", ("shot_grid",), [], ["shot_grid"], "shot_grid_empty"),
    ("sweep", ("shot_grid", 0), 0, ["shot_grid"], "shot_grid_zero"),
    ("sweep", ("trials_per_point",), 0, ["trials_per_point"], "zero_trials"),
]

# Rules beyond the JSON types of fields: what sits inside numeric values, the
# checks on process_ref circuits, shot counts numpy can draw and register size.
_ONE_PASS_REJECTION_ROWS = [
    # booleans, strings and wrongly nested arrays inside numeric values
    ("run", _A0 + ("value",), [True, False], ["cases[0].assertions[0].value[0]"],
     "bool_in_distribution"),
    ("run", _A0 + ("value",), ["0.9", "0.1"], ["cases[0].assertions[0].value[0]"],
     "string_in_distribution"),
    ("run", _A0 + ("value",), [[0.9, 0.1]], ["cases[0].assertions[0].value[0]"],
     "nested_distribution"),
    ("run", _STATE, [[["1", 0], [0, 0]], [[0, 0], [0, 0]]],
     ["cases[0].assertions[1].value[0][0][0]"], "string_in_state"),
    ("run", _STATE, [[[1, False], [0, 0]], [[0, 0], [0, 0]]],
     ["cases[0].assertions[1].value[0][0][1]"], "bool_in_state"),
    ("sweep", ("positive_case", "assertion", "value"), [0.5, True],
     ["positive_case.assertion.value[1]"], "bool_in_sweep_distribution"),
    ("run", _A0 + ("value",), [0.9, None],
     ["cases[0].assertions[0].value[1]: expected a number, got null"], "null_in_distribution"),
    ("run", _STATE, [[[1, 0], [0, 0]], [[0, 0], [0, None]]],
     ["cases[0].assertions[1].value[1][1][1]: expected a number, got null"], "null_in_state"),
    ("run", _STATE, [[[1, 0], {"re": 0}], [[0, 0], [0, 0]]],
     ["cases[0].assertions[1].value[0][1]: expected an array, got an object"],
     "object_in_matrix_row"),
    ("run", _STATE, [[[[1], 0], [0, 0]], [[0, 0], [0, 0]]],
     ["cases[0].assertions[1].value[0][0][0]: expected a number, got an array"],
     "depth_4_matrix_entry"),
    # well-typed numbers that do not form a square matrix of [re, im] pairs
    ("run", _STATE, [[[1, 0], [0, 0]], [[0, 0]]],
     ["cases[0].assertions[1].value: expected a square matrix of [re, im] pairs"],
     "ragged_matrix_rows"),
    ("run", _STATE, [[[1, 0, 0], [0, 0]], [[0, 0], [0, 0]]],
     ["cases[0].assertions[1].value: expected a square matrix of [re, im] pairs"],
     "three_element_matrix_entry"),
    ("run", _STATE, [],
     ["cases[0].assertions[1].value: expected a square matrix of [re, im] pairs"],
     "empty_matrix"),
    ("run", _STATE, [[[1, 0], [0, 0]]],
     ["cases[0].assertions[1].value: expected a square matrix of [re, im] pairs"],
     "non_square_matrix"),
    # integers too large for a float where a number goes
    ("run", _G0 + ("angle",), 10**400, ["cases[0].circuit[0].angle", "too large for a float"],
     "huge_int_angle"),
    ("run", _A0 + ("value",), [10**400, 0], ["cases[0].assertions[0].value[0]", "too large"],
     "huge_int_in_distribution"),
    ("run", _STATE, [[[1, 0], [0, 0]], [[0, 0], [0, -10**400]]],
     ["cases[0].assertions[1].value[1][1][1]", "too large"], "huge_int_in_state"),
    # process_ref circuits get the same checks as subject circuits
    ("run", _REF, [{"gate": "h"}], ["cases[0].assertions[2].value[0]", "qubits"],
     "process_ref_missing_qubits"),
    ("run", _REF, [{"gate": "h", "qubits": [0.5]}], ["cases[0].assertions[2].value[0].qubits[0]"],
     "process_ref_fractional_qubit"),
    ("run", _REF, [{"gate": "h", "qubits": [0], "extra": 1}],
     ["cases[0].assertions[2].value[0]", "extra"], "process_ref_unknown_key"),
    ("run", _REF, {}, ["cases[0].assertions[2].value"], "process_ref_not_a_list"),
    # gate items that a one-pass read must still send to the located walk
    ("run", _G0, {"gate": "x", "qubits": [0], "angle": None},
     ["cases[0].circuit[0].angle: expected a number, got null"], "null_angle_on_x"),
    ("run", _G0 + ("angle",), None,
     ["cases[0].circuit[0].angle: expected a number, got null"], "null_angle_on_rx"),
    ("run", _G0, {"gate": "cx", "qubits": [0, True]},
     ["cases[0].circuit[0].qubits[1]: expected an integer, got true"], "bool_qubit_in_cx"),
    ("run", _G0, {"gate": "cx", "qubits": [0, 0]},
     ["cases[0].circuit[0]: gate 'cx' applied to duplicate qubits (0, 0)"], "duplicate_qubit_cx"),
    ("run", _G0, {"gate": "ccx", "qubits": [0.5]},
     ["cases[0].circuit[0].qubits[0]: expected an integer, got 0.5"],
     "unknown_gate_and_bad_qubit"),
    # shots above 2**63 - 1
    ("run", ("defaults", "shots"), 2**63, ["defaults", "shots"], "shots_above_int64"),
    ("run", _A0 + ("shots",), 1e30, ["cases[0].assertions[0]", "shots"],
     "assertion_shots_1e30"),
    ("sweep", ("shot_grid",), [10, 2**63], ["shot_grid"], "shot_grid_above_int64"),
    # master seeds outside [0, 2**64), the range every generator seed shares
    ("run", ("defaults", "seed"), -1, ["defaults", "seed must be in [0, 2**64)"],
     "negative_seed"),
    ("run", ("defaults", "seed"), 2**64, ["defaults", "seed must be in [0, 2**64)"],
     "seed_above_64_bits"),
    ("sweep", ("seed",), -1, ["seed must be in [0, 2**64)"], "negative_sweep_seed"),
    ("sweep", ("seed",), 2**64, ["seed must be in [0, 2**64)"], "sweep_seed_above_64_bits"),
    # registers too large for any document to describe
    ("run", ("n_qubits",), 1e30, ["n_qubits"], "register_no_document_can_describe"),
    # a Choi matrix whose trace is not 2**n
    ("run", ("cases", 0, "assertions", 2),
     {"type": "process", "value": [[[1, 0]] + [[0, 0]] * 3] + [[[0, 0]] * 4] * 3},
     ["cases[0].assertions[2]", "trace must be 2**n"], "process_trace_not_two_to_the_n"),
]


def _params(rows):
    return [pytest.param(*row[:4], id=row[4]) for row in rows]


class TestMalformedDocuments:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_table_documents_run(self, capsys, tmp_path, command):
        path = _table_document(tmp_path, command, ("name",), "table")
        assert main([command, path]) in (0, 1)
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, path, value, needles",
        _params(_SCHEMA_RULE_ROWS + _ONE_PASS_REJECTION_ROWS),
    )
    def test_rejected_before_running(self, capsys, tmp_path, command, path, value, needles):
        document = _table_document(tmp_path, command, path, value)
        assert main([command, document]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for needle in needles:
            assert needle in captured.err

    def test_integer_too_long_to_read_names_its_path(self, capsys, tmp_path):
        document = Path(_table_document(tmp_path, "run", _G0 + ("angle",), "ANGLE"))
        document.write_text(document.read_text().replace('"ANGLE"', "1" * 5001))
        assert main(["run", str(document)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {document}: an integer has too many digits to read\n"

    @pytest.mark.parametrize(
        "argv",
        [["run", "{bad}"], ["sweep", "{bad}"], ["run", "{suite}", "--noise", "{bad}"]],
        ids=["run", "sweep", "noise_file"],
    )
    def test_non_utf8_document_names_its_path(self, capsys, tmp_path, tiny_suite, argv):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main([arg.format(bad=path, suite=tiny_suite) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text: invalid start byte\n"

    def test_duplicate_case_name_located(self, capsys, tmp_path):
        document = _table_document(tmp_path, "run", ("name",), "table")
        doc = json.loads(Path(document).read_text())
        doc["cases"] = [dict(doc["cases"][0], name="a"), dict(doc["cases"][0], name="a")]
        Path(document).write_text(json.dumps(doc))
        assert main(["run", document]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{document}: cases[1].name: duplicate case name 'a'" in captured.err

    @pytest.mark.parametrize(
        "command, path, as_float, as_int",
        _params([
            ("run", ("n_qubits",), 1.0, 1, "float_n_qubits"),
            ("run", ("defaults", "seed"), 3.0, 3, "float_seed"),
            ("run", _A0 + ("shots",), 40.0, 40, "float_assertion_shots"),
            ("sweep", ("seed",), 5.0, 5, "float_sweep_seed"),
            ("run", _G0 + ("qubits", 0), 0.0, 0, "float_qubit"),
        ]),
    )
    def test_integral_float_reads_as_integer(self, capsys, tmp_path, command, path, as_float,
                                             as_int):
        flags = ["--format", "json"] if command == "run" else []
        code = main([command, _table_document(tmp_path, command, path, as_int)] + flags)
        expected = capsys.readouterr().out
        assert main([command, _table_document(tmp_path, command, path, as_float)] + flags) == code
        assert capsys.readouterr().out == expected


# Numeric values are read in bulk (cli._number_array); the located walk runs
# only to word a rejection.  A valid leaf may be any int or float JSON admits;
# the planted ones are what numpy would read as a number, or refuse, while the
# walk rejects them.
_FLOAT_MAX = sys.float_info.max
_VALID_LEAVES = st.one_of(
    st.integers(-(2**64), 2**64),
    st.floats(),
    st.sampled_from([-0.0, 2**53 + 1, 1e308, _FLOAT_MAX, int(_FLOAT_MAX)]),
)
_BAD_LEAVES = st.sampled_from(
    [True, False, "1.5", "x", None, {}, {"re": 1}, [], [1.0], 10**400, int(_FLOAT_MAX) + 1]
)


@st.composite
def _number_values(draw, depth: int):
    """An array nested ``depth`` deep, perhaps with a bad leaf planted or, at
    depth 3, a row or [re, im] entry made one longer or shorter."""
    shape = [draw(st.integers(0, 4)) for _ in range(depth)]

    def build(level):
        if level == depth:
            return draw(_VALID_LEAVES)
        return [build(level + 1) for _ in range(shape[level])]

    value = build(0)
    if all(shape) and draw(st.booleans()):
        target = value
        for size in shape[:-1]:
            target = target[draw(st.integers(0, size - 1))]
        target[draw(st.integers(0, shape[-1] - 1))] = draw(_BAD_LEAVES)
    if depth == 3 and all(shape) and draw(st.booleans()):
        target = value[draw(st.integers(0, shape[0] - 1))]
        if draw(st.booleans()):
            target = target[draw(st.integers(0, shape[1] - 1))]
        if draw(st.booleans()):
            target.pop()
        else:
            target.append(copy.deepcopy(target[0]))
    return value


class TestNumberArrays:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([1, 3]).flatmap(lambda d: st.tuples(st.just(d), _number_values(d))))
    def test_bulk_read_equals_the_located_walk(self, case):
        depth, value = case
        try:
            expected = reference_number_array(value, "value", depth)
        except SuiteValidationError as exc:
            event("rejected")
            with pytest.raises(SuiteValidationError) as got:
                _number_array(value, "value", depth)
            assert str(got.value) == str(exc)
            return
        except ValueError:  # ragged: every leaf is a number, but numpy cannot stack them
            event("ragged")
            assert depth == 3 and _number_array(value, "value", depth) is None
            return
        event("read")
        got = _number_array(value, "value", depth)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_decode_work_does_not_grow_with_the_matrix(self, tmp_path, monkeypatch):
        calls = []
        expect = cli._expect
        monkeypatch.setattr(cli, "_expect", lambda *a, **k: calls.append(a[1]) or expect(*a, **k))
        counts = []
        for n in (2, 4):
            ground = [[[0.0, 0.0]] * 2**n for _ in range(2**n)]
            ground[0] = [[1.0, 0.0]] + [[0.0, 0.0]] * (2**n - 1)
            doc = {"name": "work", "n_qubits": n, "cases": [
                {"name": "c", "circuit": [], "assertions": [{"type": "state", "value": ground}]}
            ]}
            path = tmp_path / f"state_{n}.json"
            path.write_text(json.dumps(doc))
            calls.clear()
            load_suite(path)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert not any("value" in where for where in calls)


# Gate items are read in one pass (cli._read_gate); the located walk
# (cli._decode_gate) runs only on an item that the pass refuses.  Each planted
# value breaks one field's JSON type, a GateOp rule or the register, or is a
# valid value of another type (an integer angle, -0.0).
_PLANTED = {
    "item": ["h", None, ["h", [0]]],
    "gate": [1, None, True, "ccx", "X", ["x"], {}],
    "qubits": [0, "0", None, {}, [], [0, 1, 2]],
    "qubit": [True, False, 1.0, 0.5, "0", None, -1, 3, 2**70, [0], 10**400],
    "angle": [None, True, "0.5", 0, 1, -0.0, 10**400, int(_FLOAT_MAX), int(_FLOAT_MAX) + 1,
              Infinity, NaN, [0.5]],
    "drop": ["gate", "qubits", "angle"],
    "extra": [0],
}


@st.composite
def _gate_items(draw):
    """A list of gate items for a 3-qubit register, perhaps one field planted."""
    items = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(GATES)))
        arity, rotation = GATES[name]
        qubits = draw(st.lists(st.integers(0, 2), min_size=arity, max_size=arity, unique=True))
        item = {"gate": name, "qubits": qubits}
        if rotation:
            item["angle"] = draw(st.floats(-7, 7) | st.integers(-7, 7))
        items.append(item)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(items) - 1))
        field = draw(st.sampled_from(sorted(_PLANTED)))
        value = draw(st.sampled_from(_PLANTED[field]))
        if field == "item":
            items[k] = value
        elif field == "qubit":
            items[k]["qubits"][draw(st.integers(0, len(items[k]["qubits"]) - 1))] = value
        elif field == "drop":
            items[k].pop(value, None)
        else:
            items[k]["extra" if field == "extra" else field] = value
    return items


def _ops(circuit: Circuit) -> list:
    return [(op.name, op.qubits, tuple(map(type, op.qubits)), repr(op.angle), type(op.angle))
            for op in circuit.ops]


class TestGateDecode:
    @settings(max_examples=400, deadline=None)
    @given(_gate_items())
    def test_one_pass_equals_the_located_walk(self, items):
        try:
            expected = reference_circuit(items, 3, "circuit")
        except SuiteValidationError as exc:
            event("rejected")
            with pytest.raises(SuiteValidationError) as got:
                cli._decode_circuit(items, 3, "circuit")
            assert str(got.value) == str(exc)
            return
        event("read")
        assert _ops(cli._decode_circuit(items, 3, "circuit")) == _ops(expected)

    def test_decode_work_does_not_grow_with_the_circuit(self, tmp_path, monkeypatch):
        calls = []
        expect = cli._expect
        monkeypatch.setattr(cli, "_expect", lambda *a, **k: calls.append(a[1]) or expect(*a, **k))
        block = [{"gate": "h", "qubits": [0]}, {"gate": "cx", "qubits": [0, 1]},
                 {"gate": "rz", "qubits": [1], "angle": 0.25},
                 {"gate": "ry", "qubits": [0], "angle": -1}]
        counts = []
        for repeats in (1, 10):
            doc = {"name": "work", "n_qubits": 2, "cases": [
                {"name": "c", "circuit": block * repeats, "assertions": [
                    {"type": "process_ref", "value": block * repeats}]}
            ]}
            path = tmp_path / f"gates_{repeats}.json"
            path.write_text(json.dumps(doc))
            calls.clear()
            load_suite(path)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert not any("circuit[" in where or "value[" in where for where in calls)


_SHIPPED_DOCUMENTS = sorted((Path(__file__).resolve().parent.parent / "suites").glob("*.json"))
_FUZZ_VALUES = [True, "0.5", None, {"re": 0.5}, [0.5], 10**400, float("nan")]


def _value_paths(value, path=()):
    """(path, entry) for every object field and array entry under ``value``."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _value_paths(child, path + (key,))


class TestShippedDocumentFuzz:
    """One field or numeric leaf of a shipped document replaced by a value of
    another JSON type: the CLI runs it or rejects it with its exit code, never
    a traceback, and every rejection names the file.  Sweeps run one trial
    per grid point, which keeps the examples fast."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_document_runs_or_is_rejected(self, tmp_path_factory, data):
        source = data.draw(st.sampled_from(_SHIPPED_DOCUMENTS), label="document")
        doc = json.loads(source.read_text())
        fields, leaves = [], []
        for path, entry in _value_paths(doc):
            if type(entry) in (int, float):
                leaves.append(path)
            elif type(path[-1]) is str:
                fields.append(path)
        *parents, last = data.draw(st.sampled_from(fields) | st.sampled_from(leaves), label="path")
        target = doc
        for key in parents:
            target = target[key]
        target[last] = data.draw(st.sampled_from(_FUZZ_VALUES), label="replacement")
        path = tmp_path_factory.mktemp("fuzz") / source.name
        path.write_text(json.dumps(doc))
        argv = ["run", str(path)] if "cases" in doc else ["sweep", str(path), "--trials", "1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert str(path) in err.getvalue()
