"""The algorithm layers never import the layers built on top of them.

``repro.core``, ``repro.rx``, ``repro.signals``, ``repro.uwb``,
``repro.digital`` and ``repro.analog`` are the paper's system; the
runtime, the declarative API and the CLI sit above them and import
them, so a module-level import in the upward direction closes an import
cycle whose outcome depends on which module is imported first.  It is
checked statically here.  Function-local imports — ``run_atc`` /
``run_datc`` reaching for ``repro.api`` — are allowed.
"""

import ast
from pathlib import Path

import pytest

import repro

LOWER = ("core", "rx", "signals", "uwb", "digital", "analog")
UPPER = ("repro.runtime", "repro.api", "repro.cli")
ROOT = Path(repro.__file__).resolve().parent


def _module_level_imports(node):
    """Import nodes outside any function or class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield from _module_level_imports(child)


def _imported_modules(path: Path, root: Path = ROOT):
    """Absolute names of every module a file imports at module level."""
    package = ["repro", *path.relative_to(root).parent.parts]
    for node in _module_level_imports(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
            continue
        base = package[: len(package) - node.level + 1] if node.level else []
        module = ".".join(base + ([node.module] if node.module else []))
        yield module
        yield from (f"{module}.{alias.name}" for alias in node.names)


def _is_upper(name: str) -> bool:
    return any(name == up or name.startswith(up + ".") for up in UPPER)


@pytest.mark.parametrize("layer", LOWER)
def test_no_module_level_upward_import(layer):
    offenders = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / layer).rglob("*.py"))
        for name in _imported_modules(path)
        if _is_upper(name)
    ]
    assert offenders == []


def test_checker_sees_relative_upward_imports(tmp_path):
    """The resolver maps ``from ..runtime import x`` onto repro.runtime."""
    fake = tmp_path / "core" / "mod.py"
    fake.parent.mkdir()
    fake.write_text(
        "from ..runtime.executors import map_jobs\n"
        "from .. import api\n"
        "def f():\n    from ..cli import main\n"
    )
    found = [n for n in _imported_modules(fake, tmp_path) if _is_upper(n)]
    assert "repro.runtime.executors" in found
    assert "repro.api" in found
    assert not any(n.startswith("repro.cli") for n in found)
