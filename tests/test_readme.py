"""The README's examples run as shown, and CI runs the ROADMAP's Tier-1 command
on the oldest Python the package declares and on 3.11, once more on 3.11 with
one OpenBLAS thread, then the installed entry point on a suite, on a suite
saving its report, on a suite whose report file is a directory, a sweep, a
noisy process sweep and a noisy state sweep, then, on 3.11 with the default,
bell_pair's report and the ``--rates`` sweeps compared byte for byte across
one OpenBLAS thread and the default, and a benchmark smoke run.
Every ``BENCH_<n>.json`` at the root parses and names the machine it was
measured on, every private name the README's module table cites exists, and
the "Supported gates" sentence names exactly the gate table's rows."""

import importlib
import json
import re
from pathlib import Path

import pytest

from quassert.cli import main
from quassert.qcore import GATES

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block_after(marker: str, language: str = "") -> str:
    """The first fenced block of ``language`` that follows ``marker``."""
    start = README.index(marker)
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.S | re.M).search(README, start)
    return match.group(1)


def test_python_example_runs(capsys):
    exec(_block_after("Suites can equally be built in Python", "python"), {})
    verdict, blank = capsys.readouterr().out.splitlines()  # print adds a second newline
    assert re.fullmatch(r"\[PASSED\]: with a [01]\.\d{3} probability of passing\.", verdict)
    assert blank == ""


def test_verdict_lines_match_the_cli(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["run", "suites/bell_pair.json"]) == 1
    assert capsys.readouterr().out == _block_after("prints one verdict line per assertion")


# The installed console script: bell_pair's failing assertion exits 1, a sweep 0.
ENTRY_POINT_RUN = (
    'status=0; quassert run suites/bell_pair.json || status=$?; test "$status" -eq 1'
)
# --save-data writes the report stdout shows; a directory at report.json exits 2
# before the run, with nothing on stdout.
ENTRY_POINT_SAVE = (
    'status=0; quassert run suites/bell_pair.json --format json --save-data "$RUNNER_TEMP/qa"'
    ' > "$RUNNER_TEMP/qa.json" || status=$?; test "$status" -eq 1'
    ' && cmp "$RUNNER_TEMP/qa/report.json" "$RUNNER_TEMP/qa.json"'
)
ENTRY_POINT_UNWRITABLE_REPORT = (
    'mkdir -p "$RUNNER_TEMP/blocked/report.json"; status=0;'
    ' quassert run suites/bell_pair.json --save-data "$RUNNER_TEMP/blocked"'
    ' > "$RUNNER_TEMP/blocked.out" || status=$?; test "$status" -eq 2'
    ' && test ! -s "$RUNNER_TEMP/blocked.out"'
)
ENTRY_POINT_SWEEP = "quassert sweep suites/sweep_proj.json --trials 2"
# Process tomography under noise through the installed console script.
ENTRY_POINT_NOISY_SWEEP = "quassert sweep suites/sweep_process.json --trials 2 --noise default"
# State tomography under noise, the one protocol whose sweep ran only in tests.
ENTRY_POINT_NOISY_STATE_SWEEP = "quassert sweep suites/sweep_state.json --trials 2 --noise default"
# bell_pair's JSON report and each --rates sweep CSV, noiseless and noisy, on one
# OpenBLAS thread and on the default, compared byte for byte.
THREAD_BITS = (
    'set -e; i=0; for args in "run suites/bell_pair.json --format json"'
    + "".join(f' "sweep suites/sweep_{kind}.json --trials 2 --rates{noise}"'
              for kind in ("proj", "state", "process") for noise in ("", " --noise default"))
    + '; do i=$((i + 1)); for threads in 1 ""; do status=0;'
    ' OPENBLAS_NUM_THREADS=$threads quassert $args > "$RUNNER_TEMP/bits$i-$threads" || status=$?;'
    ' test "$status" -le 1; done; cmp "$RUNNER_TEMP/bits$i-1" "$RUNNER_TEMP/bits$i-"; done'
)
# Runs every perfbench workload briefly and fails unless its last line reports
# "correct": true.
BENCHMARK_SMOKE = (
    "python3 perfbench/run.py --workload all --seed 1 --seconds 1 | tee /dev/stderr | tail -n 1"
    " | python3 -c \"import json, sys; assert json.load(sys.stdin)['correct'] is True\""
)


def test_ci_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M).group(1)
    job = workflow["jobs"]["tests"]
    runs = [step.get("run") for step in job["steps"]]
    assert runs[-10:] == ['pip install -e ".[test]"', tier1, ENTRY_POINT_RUN, ENTRY_POINT_SAVE,
                          ENTRY_POINT_UNWRITABLE_REPORT, ENTRY_POINT_SWEEP, ENTRY_POINT_NOISY_SWEEP,
                          ENTRY_POINT_NOISY_STATE_SWEEP, THREAD_BITS, BENCHMARK_SMOKE]
    assert job["timeout-minutes"] == 20
    floor = re.search(r'^requires-python = ">=([\d.]+)"$',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).group(1)
    matrix = job["strategy"]["matrix"]
    assert matrix["python-version"] == [floor, "3.11"]
    # Tier-1 also runs on 3.11 with OpenBLAS pinned to one thread.
    assert matrix["openblas-threads"] == [""]
    assert matrix["include"] == [{"python-version": "3.11", "openblas-threads": "1"}]
    assert job["steps"][-9]["env"] == {"OPENBLAS_NUM_THREADS": "${{ matrix.openblas-threads }}"}
    setup = next(step for step in job["steps"] if step.get("uses", "").startswith("actions/setup-python"))
    assert setup["with"]["python-version"] == "${{ matrix.python-version }}"
    assert [step.get("if") for step in job["steps"]][-9:] == [None] * 7 + [
        "matrix.python-version == '3.11' && matrix.openblas-threads == ''"] * 2


def bench_file_problems(name: str, text: str) -> list[str]:
    """What a ``BENCH_<n>.json`` lacks: it must parse as a JSON object whose
    ``machine`` records the CPU count ``nproc`` and the ``numpy`` version."""
    try:
        record = json.loads(text)
    except ValueError as exc:
        return [f"{name}: not JSON ({exc})"]
    machine = record.get("machine") if isinstance(record, dict) else None
    if not isinstance(machine, dict):
        return [f"{name}: no machine record"]
    return [f"{name}: machine.{key} missing" for key in ("nproc", "numpy") if key not in machine]


def test_every_bench_file_records_its_machine():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    assert [p for f in files for p in bench_file_problems(f.name, f.read_text(encoding="utf-8"))] == []


def test_bench_file_scan_flags_planted_problems():
    [unparsed] = bench_file_problems("a", "{")
    assert unparsed.startswith("a: not JSON (")
    assert bench_file_problems("b", "[]") == ["b: no machine record"]
    assert bench_file_problems("c", '{"machine": {"nproc": 2}}') == ["c: machine.numpy missing"]
    assert bench_file_problems("d", '{"machine": {"nproc": 2, "numpy": "2.4.6"}}') == []


def private_name_problems(readme: str) -> tuple[list[str], list[str]]:
    """The underscore-prefixed names the module table's rows cite, as
    ``module._name`` (or ``_name``, in the row's own module), and those of
    them that the module does not define."""
    cited = []
    for module, contents in re.findall(r"^\| `(\w+)`\s*\| (.*) \|$", readme, re.M):
        cited += [f"{owner or module}.{name}"
                  for owner, name in re.findall(r"`(?:(\w+)\.)?(_\w+)`", contents)]
    missing = [ref for ref in cited if not hasattr(
        importlib.import_module(f"quassert.{ref.split('.')[0]}"), ref.split(".")[1])]
    return cited, missing


def test_readme_cites_only_private_names_that_exist():
    cited, missing = private_name_problems(README)
    assert "simulator._blocks" in cited and "tomography._choi_mat" not in cited
    assert missing == []


def test_private_name_scan_flags_planted_problems():
    row = "| `simulator` | a loop (`_evolve_mat`, `_gone`), with `qcore._from_projection` and `_x y` |"
    assert private_name_problems(row) == (
        ["simulator._evolve_mat", "simulator._gone", "qcore._from_projection"], ["simulator._gone"])


def gate_rows(gates) -> list[list[str]]:
    """A gate table's names split as the README lists them: one-qubit gates
    without an angle, rotations, two-qubit gates."""
    return [[name for name, (arity, unitary) in gates.items()
             if arity == k and callable(unitary) == rotation]
            for k, rotation in ((1, False), (1, True), (2, False))]


def test_readme_names_exactly_the_gate_table():
    sentence = re.search(r'Supported gates: `([^`]*)` and `([^`]*)` \(with `"angle"`,\s+'
                         r'a finite number of radians\) on one\s+qubit, `([^`]*)` on two\.', README)
    documented = [group.split() for group in sentence.groups()]
    assert documented == gate_rows(GATES)
    assert documented != gate_rows({**GATES, "iswap": GATES["swap"]})  # a row without its doc
