"""The package's imports and exports, read from its source."""

import ast
from pathlib import Path

import pytest

import qfidisc

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qfidisc").glob("*.py"))


def imported_modules(tree: ast.Module) -> list[str]:
    """Every module an ``import`` or ``from ... import`` names, at any depth;
    relative imports carry their leading dots."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def test_the_package_has_sources():
    assert {path.name for path in SOURCES} >= {"__init__.py", "quantum.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    # numpy is the one runtime dependency; scipy serves the tests alone.
    modules = imported_modules(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_every_export_resolves():
    assert len(set(qfidisc.__all__)) == len(qfidisc.__all__)
    assert [name for name in qfidisc.__all__ if not hasattr(qfidisc, name)] == []


@pytest.mark.parametrize("name", ["quantum.py", "discontinuity.py"])
def test_the_quantum_side_imports_nothing_from_classical(name):
    # The kernel-motion rule lives in quantum alone; the classical
    # finite-difference path keeps its own absolute thresholds.
    [path] = [path for path in SOURCES if path.name == name]
    modules = imported_modules(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert [m for m in modules if m == ".classical"] == []
