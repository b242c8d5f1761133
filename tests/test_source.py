"""Checks on the package source itself."""

import ast
import pathlib
import re
from graphlib import TopologicalSorter

import cosetalg

SRC = pathlib.Path(cosetalg.__file__).resolve().parent
NUMBERS = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine")


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


def test_no_environment_reads():
    # a result depends on the call's arguments, never on the process environment:
    # no ``os.environ`` / ``os.getenv`` access and no import of either name
    names = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if (isinstance(node, ast.Attribute) and node.attr in names)
        or (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.alias) and node.name in names)
    ]
    assert found == []


def test_no_dataclasses():
    # every CLI process imports the value types, and ``dataclasses`` costs each
    # one the import of ``dataclasses`` and ``inspect``; the types are plain classes
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_terms_slot_only_in_combination():
    # every sparse-term type stores its terms through ``Combination``
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in _nodes()
        if name != "combination.py" and isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        and any(isinstance(c, ast.Constant) and c.value == "terms" for c in ast.walk(stmt.value))
    ]
    assert found == []


def test_relative_imports_form_no_cycle():
    # e.g. ``combination`` must not import ``epsring``, whose types subclass it;
    # ``prepare`` raises ``CycleError`` naming the cycle
    modules = {path.stem for path in SRC.glob("*.py")}
    graph: dict[str, set[str]] = {m: set() for m in modules}
    for name, node in _nodes():
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [a.name for a in node.names]
            graph[name[:-3]] |= {t.split(".")[0] for t in targets} & modules
    TopologicalSorter(graph).prepare()


def test_combination_docstring_lists_every_subclass():
    # ``combination``'s module docstring names its subclasses and their number:
    # every subclass in the package is named, and every name is a subclass in
    # the package or in the tests
    defined: dict[pathlib.Path, set[str]] = {}
    for root in (SRC, pathlib.Path(__file__).resolve().parent):
        defined[root] = {
            node.name
            for path in sorted(root.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Combination" for base in node.bases)
        }
    doc = ast.get_docstring(ast.parse((SRC / "combination.py").read_text()))
    found = re.search(r"Its\s+(\w+)\s+subclasses(.*?)\.\s", doc, re.DOTALL)
    assert found, "combination.py's docstring has no sentence 'Its <number> subclasses ...'"
    listed = re.findall(r"``(\w+)``", found.group(2))
    assert defined[SRC] <= set(listed)
    assert set(listed) <= set().union(*defined.values())
    assert NUMBERS.index(found.group(1)) == len(listed)
