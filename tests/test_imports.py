"""Every name a module imports is used in that module, exports resolve, and
no private definition is dead.

No lint tool is part of the test environment, so these AST scans are the
import and dead-code lints for ``src/quassert``; the unused-import scan
covers ``tests/`` too.  ``__init__.py`` is exempt from the unused-import scan: its imports are the package's re-exports, so
instead every name it imports must be listed in ``__all__`` and every name
in ``__all__`` must resolve.  A deleted type therefore cannot leave a stale
export behind.  Every module-level private function, class or constant
(``_name``, dunders excepted) must be referenced somewhere in the package
outside its own definition, so a deleted path cannot leave its helpers
behind.  No two config dataclasses (every field defaulted) may declare the
same ordered field list, so one set of execution parameters has one type.
Only ``simulator.sample`` may touch ``numpy.random``, so every count an
assertion draws comes from the one generator its seed builds.  Only
``qmath.hermitian_eig`` may name ``eigh`` or ``eigvalsh``, so every
eigensolve passes its finiteness and Hermiticity checks.  Only
``cli._number_array`` may call the located walk ``cli._numbers``, so every
numeric value of a document is read in bulk and walked only to word its
rejection; likewise only ``cli._decode_circuit`` may call the per-gate walk
``cli._decode_gate``, so every gate item is read in one pass first.  No
module defines or imports ``circuit_to_unitary``, and only
``simulator._superop`` expands a gate with ``qcore.expanded_gate_matrix``,
so every circuit runs through the one channel kernel; only
``simulator._blocks`` calls ``simulator._gate_superop``, so every gate's
channel reaches that kernel through the one block builder.  Only
``tomography`` may call ``qcore._from_projection``, which stores a matrix
without validating it, so only a ``qmath.psd_project`` output is stored so.  ``einsum``
appears nowhere in the package: ``qmath.kron_map`` is its one contraction.
Every ``lru_cache`` states an integer ``maxsize`` and ``functools.cache`` is
not used, so no cache keyed by user input (angles, noise models) can grow
without bound.  A fresh ``import quassert.cli`` loads only ``quassert``,
``numpy`` and the standard library: the test-only packages (scipy,
hypothesis) are installed, and one stray import would slow every start.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quassert

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quassert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TEST_MODULES],
)
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level private names not referenced in any module outside their own definition."""
    statements = [(module, node) for module, source in sorted(sources.items())
                  for node in ast.parse(source).body]
    referenced = [_referenced_names(node) for _, node in statements]
    dead = []
    for i, (module, node) in enumerate(statements):
        for name in filter(_is_private, _defined_names(node)):
            if not any(name in names for j, names in enumerate(referenced) if j != i):
                dead.append(f"{module}:{node.lineno} {name}")
    return dead


def test_no_dead_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_private_definitions(sources) == []


def test_dead_definition_scan_flags_unreferenced_names():
    sources = {
        "a.py": (
            "_USED = 1\n_UNUSED: int = 2\n__version__ = '1'\n"
            "def _helper():\n    return _USED\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Orphan:\n    pass\n"
            "def public():\n    return _helper()\n"
        ),
        "b.py": "import a\nprint(a._VIA_ATTRIBUTE)\n",
        "c.py": "_VIA_ATTRIBUTE = 0\n",
    }
    assert dead_private_definitions(sources) == [
        "a.py:2 _UNUSED", "a.py:6 _recursive", "a.py:8 _Orphan",
    ]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _has_default(value: ast.expr | None) -> bool:
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def config_field_lists(source: str) -> dict[str, tuple[str, ...]]:
    """Ordered field names of each dataclass whose fields all have defaults."""
    configs = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            if fields and all(_has_default(f.value) for f in fields):
                configs[node.name] = tuple(f.target.id for f in fields)
    return configs


def duplicate_configs(sources: dict[str, str]) -> list[str]:
    """Config dataclasses repeating the field list of an earlier one."""
    first: dict[tuple[str, ...], str] = {}
    duplicates = []
    for module, source in sorted(sources.items()):
        for name, field_names in config_field_lists(source).items():
            where = f"{module}:{name}"
            if field_names in first:
                duplicates.append(f"{where} repeats {first[field_names]}")
            first.setdefault(field_names, where)
    return duplicates


def test_no_duplicate_config_dataclasses():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert duplicate_configs(sources) == []


def test_config_scan_flags_repeated_field_lists():
    sources = {
        "a.py": (
            "import dataclasses\nfrom dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\nclass Run:\n    shots: int = 1\n    seed: int = 0\n"
            "@dataclass(frozen=True, eq=False)\nclass State:\n"
            "    n_qubits: int\n    mat: object = field(repr=False)\n"
            "class Plain:\n    shots: int = 1\n    seed: int = 0\n"
        ),
        "b.py": (
            "import dataclasses\nfrom dataclasses import dataclass, field\n"
            "@dataclasses.dataclass\nclass Defaults:\n"
            "    shots: int = 2\n    seed: int = field(default=0)\n"
            "@dataclass\nclass Reordered:\n    seed: int = 0\n    shots: int = 1\n"
            "@dataclass(frozen=True, eq=False)\nclass Choi:\n"
            "    n_qubits: int\n    mat: object = field(repr=False)\n"
            "@dataclass\nclass Factory:\n    seed: int = 0\n"
            "    shots: list = field(default_factory=list)\n"
        ),
    }
    assert config_field_lists(sources["a.py"]) == {"Run": ("shots", "seed")}
    assert duplicate_configs(sources) == [
        "b.py:Defaults repeats a.py:Run", "b.py:Factory repeats b.py:Reordered",
    ]


def numpy_random_uses(source: str) -> list[str]:
    """Each use of ``numpy.random`` as "owner:line", where owner is the
    enclosing top-level definition (``<module>`` outside any)."""
    uses = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                hit = node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = module.startswith("numpy.random") or (
                    module == "numpy" and any(a.name == "random" for a in node.names))
            elif isinstance(node, ast.Import):
                hit = any(a.name.startswith("numpy.random") for a in node.names)
            else:
                hit = False
            if hit:
                uses.append(f"{owner}:{node.lineno}")
    return uses


def test_only_sample_touches_numpy_random():
    owners = {f"{p.name}:{use.split(':')[0]}" for p in PACKAGE.glob("*.py")
              for use in numpy_random_uses(p.read_text(encoding="utf-8"))}
    assert owners == {"simulator.py:sample"}


def test_random_scan_flags_planted_generators():
    source = (
        "import numpy as np\nfrom numpy.random import default_rng\nimport numpy.random\n"
        "from numpy import random\nfrom typing import Generator\n"
        "def sample(seed):\n    return np.random.default_rng(seed)\n"
        "def helper():\n    return numpy.random.Generator(np.random.PCG64(1))\n"
        "RNG = np.random.default_rng(0)\n"
    )
    assert numpy_random_uses(source) == [
        "<module>:2", "<module>:3", "<module>:4", "sample:7", "helper:9", "helper:9",
        "<module>:10",
    ]


def eigensolver_uses(source: str) -> list[str]:
    """Each use of LAPACK's Hermitian eigensolvers (``eigh``, ``eigvalsh``) as
    "owner:line", where owner is the enclosing top-level definition."""
    names = {"eigh", "eigvalsh"}
    uses = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                hit = any(a.name.split(".")[-1] in names for a in node.names)
            else:
                hit = getattr(node, "attr", getattr(node, "id", None)) in names
            if hit:
                uses.append(f"{owner}:{node.lineno}")
    return uses


def test_only_hermitian_eig_calls_eigh():
    owners = {f"{p.name}:{use.split(':')[0]}" for p in PACKAGE.glob("*.py")
              for use in eigensolver_uses(p.read_text(encoding="utf-8"))}
    assert owners == {"qmath.py:hermitian_eig"}


def test_eigensolver_scan_flags_planted_calls():
    source = (
        "import numpy as np\nfrom numpy.linalg import eigh\nimport scipy.linalg as sl\n"
        "from scipy.linalg import eigvalsh as ev\n"
        "def hermitian_eig(a):\n    return np.linalg.eigh(a)\n"
        "def spectrum(a):\n    return sl.eigvalsh(a)\n"
        "SOLVE = eigh\n"
        "def fine(a):\n    return np.linalg.eig(a), a.eighth\n"
    )
    assert eigensolver_uses(source) == [
        "<module>:2", "<module>:4", "hermitian_eig:6", "spectrum:8", "<module>:9",
    ]


def located_walk_uses(source: str, walk: str) -> list[str]:
    """Each use of the located walk named ``walk`` outside its own (perhaps
    recursive) definition as "owner:line", where owner is the enclosing
    top-level definition."""
    uses = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        if owner == walk:
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                hit = any(a.name == walk for a in node.names)
            else:
                hit = getattr(node, "attr", getattr(node, "id", None)) == walk
            if hit:
                uses.append(f"{owner}:{node.lineno}")
    return uses


def _walk_owners(walk: str) -> set[str]:
    return {f"{p.name}:{use.split(':')[0]}" for p in PACKAGE.glob("*.py")
            for use in located_walk_uses(p.read_text(encoding="utf-8"), walk)}


def test_only_the_bulk_read_walks_numbers():
    assert _walk_owners("_numbers") == {"cli.py:_number_array"}


def test_only_the_circuit_decoder_walks_gates():
    assert _walk_owners("_decode_gate") == {"cli.py:_decode_circuit"}


def test_only_tomography_stores_unvalidated_estimates():
    assert _walk_owners("_from_projection") == {
        "tomography.py:<module>", "tomography.py:_estimate",
    }


def test_circuits_run_through_the_one_channel_kernel():
    # No dense circuit product: a reference circuit's Choi matrix comes from
    # simulator.evolve, and only the channel builder expands a gate.
    defined = [f"{p.name}:{node.name}" for p in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               if getattr(node, "name", None) == "circuit_to_unitary"]
    assert defined == [] and _walk_owners("circuit_to_unitary") == set()
    assert _walk_owners("expanded_gate_matrix") == {"simulator.py:<module>",
                                                    "simulator.py:_superop"}


def test_only_the_block_builder_takes_gate_channels():
    # Every gate's channel reaches the kernel through simulator._blocks, so
    # there is one channel path, fused or not.
    assert _walk_owners("_gate_superop") == {"simulator.py:_blocks"}


def test_located_walk_scan_flags_planted_callers():
    source = (
        "from quassert.cli import _numbers\nimport quassert.cli as cli\n"
        "def _numbers(value, where, depth):\n    return _numbers(value[0], where, depth - 1)\n"
        "def _number_array(value, where, depth):\n    _numbers(value, where, depth)\n"
        "def _decode_matrix(value, where):\n    return cli._numbers(value, where, 3)\n"
        "WALK = _numbers\n"
        "def fine(value):\n    return _number_array(value, 'v', 1), value._numbers_seen\n"
    )
    assert located_walk_uses(source, "_numbers") == [
        "<module>:1", "_number_array:6", "_decode_matrix:8", "<module>:9",
    ]
    assert located_walk_uses(source, "_number_array") == ["fine:11"]


def einsum_mentions(source: str) -> list[int]:
    """Line numbers of every mention of ``einsum``, in code, strings or comments."""
    return [i for i, line in enumerate(source.splitlines(), 1) if "einsum" in line]


def test_no_einsum_in_the_package():
    mentions = [f"{p.name}:{line}" for p in sorted(PACKAGE.glob("*.py"))
                for line in einsum_mentions(p.read_text(encoding="utf-8"))]
    assert mentions == []


def test_einsum_scan_flags_planted_contractions():
    source = (
        "import numpy as np\nfrom numpy import einsum as contract\n"
        "def f(a, b):\n    return np.einsum('ij,jk->ik', a, b)\n"
        "PATH = np.einsum_path\n"
        "# planned like opt_einsum\n"
        "def g(a):\n    return a @ a\n"
    )
    assert einsum_mentions(source) == [2, 4, 5, 6]


def _is_bounded(call: ast.Call) -> bool:
    """True iff an ``lru_cache(...)`` call states a maxsize other than None."""
    maxsize = call.args[0] if call.args else next(
        (k.value for k in call.keywords if k.arg == "maxsize"), None)
    return maxsize is not None and not (
        isinstance(maxsize, ast.Constant) and maxsize.value is None)


def unbounded_caches(source: str) -> list[int]:
    """Line numbers of each ``functools.cache`` and each ``lru_cache`` that is
    bare or called without a maxsize, or with ``maxsize=None``."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            hit = any(alias.name == "cache" for alias in node.names)
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            hit = getattr(node.value, "id", None) == "functools"
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            hit = id(node) not in calls or not _is_bounded(calls[id(node)])
        else:
            hit = False
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_every_cache_in_the_package_is_bounded():
    found = [f"{p.name}:{line}" for p in sorted(PACKAGE.glob("*.py"))
             for line in unbounded_caches(p.read_text(encoding="utf-8"))]
    assert found == []


def test_cache_scan_flags_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache\ndef a(x):\n    return x\n"
        "@lru_cache(maxsize=None)\ndef b(x):\n    return x\n"
        "@functools.cache\ndef c(x):\n    return x\n"
        "@functools.lru_cache(maxsize=64)\ndef d(x):\n    return x\n"
        "@lru_cache(32, typed=True)\ndef e(x):\n    return x\n"
        "@lru_cache(typed=True)\ndef f(x):\n    return x\n"
        "g = functools.lru_cache(None)(len)\n"
        "cache = {}\nh = cache.get\n"
    )
    assert unbounded_caches(source) == [2, 3, 6, 9, 18, 21]


def foreign_modules(code: str, path: list[str]) -> list[str]:
    """The top-level packages, other than ``quassert``, ``numpy`` and the
    standard library, that running ``code`` in a fresh interpreter with
    ``path`` on ``PYTHONPATH`` loads; those loaded at start-up do not count."""
    script = ("import json, sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    tops = {name.split(".")[0] for name in json.loads(out)}
    return sorted(tops - {"quassert", "numpy"} - sys.stdlib_module_names)


def test_cli_imports_only_numpy_and_the_standard_library():
    assert foreign_modules("import quassert.cli", [str(PACKAGE.parent)]) == []


def test_foreign_module_scan_flags_a_planted_import(tmp_path):
    (tmp_path / "stray.py").write_text("import json\n", encoding="utf-8")
    code = "import quassert.cli\nimport stray\nimport xml.dom"
    assert foreign_modules(code, [str(PACKAGE.parent), str(tmp_path)]) == ["stray"]
