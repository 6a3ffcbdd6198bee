"""Every name a module imports is used in that module, and exports resolve.

No lint tool is part of the test environment, so these AST scans are the
import lints for ``src/quassert``.  ``__init__.py`` is exempt from the
unused-import scan: its imports are the package's re-exports, so instead
every name it imports must be listed in ``__all__`` and every name in
``__all__`` must resolve.  A deleted type therefore cannot leave a stale
export behind.
"""

import ast
from pathlib import Path

import pytest

import quassert

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quassert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement, with its line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def unexported_imports(source: str) -> list[str]:
    """Imported names missing from the module's literal ``__all__``."""
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    imported = imported_names(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in exported]


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


def test_every_export_resolves():
    assert [name for name in quassert.__all__ if not hasattr(quassert, name)] == []
    assert len(set(quassert.__all__)) == len(quassert.__all__)


def test_every_package_import_is_exported():
    assert unexported_imports((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []


def test_export_scan_flags_an_unlisted_name():
    source = "from a import B, c\nimport d\n__all__ = ['B']\n"
    assert unexported_imports(source) == ["line 1: c", "line 2: d"]
