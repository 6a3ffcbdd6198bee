"""The README's examples run as shown, and CI runs the ROADMAP's Tier-1 command
and then a benchmark smoke run."""

import re
from pathlib import Path

import pytest

from quassert.cli import main

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
    assert runs[-3:] == ['pip install -e ".[test]"', tier1, BENCHMARK_SMOKE]
    assert job["timeout-minutes"] == 20
