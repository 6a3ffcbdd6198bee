"""Command-line behavior: exit codes, report output, sweep CSV, overrides."""

import json
from pathlib import Path

import pytest

from quassert.cli import (
    DEFAULT_TRIALS,
    decode_noise,
    load_suite,
    load_sweep,
    main,
    run_sweep,
)
from quassert.orchestrator import SuiteValidationError

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

    def test_noise_file_override(self, capsys, tmp_path, tiny_suite):
        noise_path = tmp_path / "noise.json"
        noise_path.write_text(json.dumps({"readout_flip": 1.0}))
        code = main(["run", tiny_suite, "--noise", str(noise_path)])
        assert code == 1  # every shot flips into the forbidden bin
        assert "[FAILED]" in capsys.readouterr().out

    def test_save_data_writes_report(self, capsys, tmp_path, tiny_suite):
        out_dir = tmp_path / "artifacts"
        main(["run", tiny_suite, "--save-data", str(out_dir)])
        capsys.readouterr()
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["results"][0]["artifacts"]["counts"] == {"0": 200}

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
