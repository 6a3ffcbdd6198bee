"""Every name a module imports is used in that module.

No lint tool is part of the test environment, so this AST scan is the
unused-import lint for ``src/quassert``.  ``__init__.py`` is exempt: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quassert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_name():
    source = "import json\nfrom os import path, sep\nfrom x import y as z\nprint(sep)\n"
    assert unused_imports(source) == ["line 1: json", "line 2: path", "line 3: z"]


def test_scan_counts_annotations_and_attribute_roots():
    source = (
        "from __future__ import annotations\nimport numpy as np\nfrom a import T\n"
        "def f(x: T) -> None:\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == []
