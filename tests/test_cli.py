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

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--shots", "1000000000000000000000000000000"], "shots"),
            (["--shots", "0"], "shots"),
            (["--threshold", "1.5"], "threshold"),
            (["--threshold", "nan"], "threshold"),
        ],
        ids=["shots_1e30", "shots_zero", "threshold_above_1", "threshold_nan"],
    )
    def test_flag_overrides_checked_like_document_values(self, capsys, tiny_suite, flags,
                                                          field):
        assert main(["run", tiny_suite] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

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
        assert "trials_per_point" in captured.err

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
    # process_ref circuits get the same checks as subject circuits
    ("run", _REF, [{"gate": "h"}], ["cases[0].assertions[2].value[0]", "qubits"],
     "process_ref_missing_qubits"),
    ("run", _REF, [{"gate": "h", "qubits": [0.5]}], ["cases[0].assertions[2].value[0].qubits[0]"],
     "process_ref_fractional_qubit"),
    ("run", _REF, [{"gate": "h", "qubits": [0], "extra": 1}],
     ["cases[0].assertions[2].value[0]", "extra"], "process_ref_unknown_key"),
    ("run", _REF, {}, ["cases[0].assertions[2].value"], "process_ref_not_a_list"),
    # shots above 2**63 - 1
    ("run", ("defaults", "shots"), 2**63, ["defaults", "shots"], "shots_above_int64"),
    ("run", _A0 + ("shots",), 1e30, ["cases[0].assertions[0]", "shots"],
     "assertion_shots_1e30"),
    ("sweep", ("shot_grid",), [10, 2**63], ["shot_grid"], "shot_grid_above_int64"),
    # registers too large for any document to describe
    ("run", ("n_qubits",), 1e30, ["n_qubits"], "register_no_document_can_describe"),
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

    @pytest.mark.parametrize(
        "command, path, as_float, as_int",
        _params([
            ("run", ("n_qubits",), 1.0, 1, "float_n_qubits"),
            ("run", ("defaults", "seed"), 3.0, 3, "float_seed"),
            ("run", _A0 + ("shots",), 40.0, 40, "float_assertion_shots"),
            ("sweep", ("seed",), 5.0, 5, "float_sweep_seed"),
        ]),
    )
    def test_integral_float_reads_as_integer(self, capsys, tmp_path, command, path, as_float,
                                             as_int):
        flags = ["--format", "json"] if command == "run" else []
        code = main([command, _table_document(tmp_path, command, path, as_int)] + flags)
        expected = capsys.readouterr().out
        assert main([command, _table_document(tmp_path, command, path, as_float)] + flags) == code
        assert capsys.readouterr().out == expected
