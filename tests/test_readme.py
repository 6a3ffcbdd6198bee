"""The README's examples run as shown."""

import re
from pathlib import Path

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
