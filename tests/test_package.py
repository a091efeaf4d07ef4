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


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "quantum.py"], ids=lambda path: path.name
)
def test_only_quantum_reads_the_support_cut(path):
    # One support cut, relative to each block's largest eigenvalue: the
    # classical Fisher information is the QFI of a diagonal state.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "SUPPORT_TOL")
        or (isinstance(node, ast.Attribute) and node.attr == "SUPPORT_TOL")
        or (isinstance(node, ast.alias) and node.name == "SUPPORT_TOL")
    ]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_sets_or_names_a_bit_generator_state(path):
    # Streams come from numpy's public seeding (``default_rng``) alone: a
    # bit generator's ``state`` assigned by hand, or PCG64 named, would tie
    # the draws to how one numpy release seeds it.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "PCG64")
        or (isinstance(node, ast.Attribute) and node.attr == "state"
            and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.Name) and node.id == "PCG64")
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "PCG64")
    ]
    assert found == []
