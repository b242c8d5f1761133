"""Checks on the package source itself."""

import ast
import pathlib

import cosetalg

SRC = pathlib.Path(cosetalg.__file__).resolve().parent


def _nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements():
    # invariants must hold under ``python -O``, which strips every assert
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_floats():
    # the arithmetic is exact: no float literal and no use of the float builtin
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert found == []


def test_no_unused_imports():
    # every name a module imports is used in it; the package's __init__
    # imports to re-export, and ``annotations`` is a compiler switch
    imported: dict[str, dict[str, int]] = {}
    used: dict[str, set[str]] = {}
    for name, node in _nodes():
        if name == "__init__.py":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "annotations":
                    imported.setdefault(name, {})[bound] = node.lineno
        elif isinstance(node, ast.Name):
            used.setdefault(name, set()).add(node.id)
    found = [
        f"{name}:{line} {bound}"
        for name, names in imported.items()
        for bound, line in names.items()
        if bound not in used.get(name, set())
    ]
    assert found == []
