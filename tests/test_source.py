"""Checks on the package source itself."""

import ast
import pathlib

import cosetalg

SRC = pathlib.Path(cosetalg.__file__).resolve().parent


def test_no_assert_statements():
    # invariants must hold under ``python -O``, which strips every assert
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
