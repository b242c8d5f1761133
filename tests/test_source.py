"""Checks on the package source itself."""

import ast
import pathlib
import re
from graphlib import TopologicalSorter

import cosetalg
from cosetalg import algebra, braid, cosets

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
    # one the import of ``dataclasses`` and ``inspect``; the types are named tuples
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


# the unbounded caches the package has; a new one needs its own case, since
# each grows with every distinct argument a long-lived process sees
UNBOUNDED_CACHES = {
    "algebra._product_terms",
    "oracle._partition_by_matrix",
    "poisson._bracket_basis",
    "poisson._order_one_linear",
    "universal._product_terms",
}


def _is_unbounded_cache(node):
    # ``lru_cache(maxsize=None)``, ``functools.lru_cache(None)`` and ``functools.cache``
    if not isinstance(node, (ast.Call, ast.Name, ast.Attribute)):
        return False
    func = node.func if isinstance(node, ast.Call) else node
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "cache":
        return not isinstance(node, ast.Call)
    if name != "lru_cache" or not isinstance(node, ast.Call):
        return False
    sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def _unbounded_cache_sites(nodes):
    owner: dict[int, str] = {}  # id of a decorator -> the function it decorates
    found = set()
    for name, node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(d), node.name) for d in node.decorator_list)
        elif _is_unbounded_cache(node):
            found.add(f"{name[:-3]}.{owner.get(id(node), f'line {node.lineno}')}")
    return found


def test_no_new_unbounded_caches():
    assert _unbounded_cache_sites(_nodes()) - UNBOUNDED_CACHES == set()


def test_unbounded_cache_sites_are_recognised():
    source = (
        "import functools\n"
        "@lru_cache(maxsize=None)\ndef f(): pass\n"
        "@functools.lru_cache(None)\ndef g(): pass\n"
        "@functools.cache\ndef h(): pass\n"
        "@lru_cache(maxsize=64)\ndef bounded(): pass\n"
        "@lru_cache\ndef default(): pass\n"
        "k = lru_cache(maxsize=None)(len)\n"
    )
    nodes = (("m.py", node) for node in ast.walk(ast.parse(source)))
    assert _unbounded_cache_sites(nodes) == {"m.f", "m.g", "m.h", "m.line 12"}


# the only functions that form a factorial: every other weight is a product of
# binomials (``cosets._multinomial``), whose cost does not grow with a margin
FACTORIAL_SITES = {"cosets.coset_size", "universal._product_terms"}


def _factorial_sites(nodes):
    """module.function of every use of ``factorial``; an import is module.import."""
    owner: dict[tuple[str, int], str] = {}  # (module, id of a node) -> innermost function
    found = set()
    for name, node in nodes:
        module = name[:-3]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(((module, id(n)), node.name) for n in ast.walk(node))
        elif (isinstance(node, ast.Name) and node.id == "factorial") or (
            isinstance(node, ast.Attribute) and node.attr == "factorial"
        ):
            found.add(f"{module}.{owner.get((module, id(node)), f'line {node.lineno}')}")
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] == "factorial":
            found.add(f"{module}.import")
    return found


def test_factorial_only_at_its_sites():
    imports = {f"{site.split('.')[0]}.import" for site in FACTORIAL_SITES}
    assert _factorial_sites(_nodes()) == FACTORIAL_SITES | imports


def test_factorial_sites_are_recognised():
    source = (
        "import math\n"
        "from math import factorial\n"
        "def f(n): return factorial(n)\n"
        "def g(n):\n"
        "    def h(k): return math.factorial(k)\n"
        "    return h(n)\n"
        "def p(xs): return list(map(factorial, xs))\n"
        "def comb_only(n): return math.comb(n, 2)\n"
        "k = factorial(3)\n"
    )
    nodes = (("m.py", node) for node in ast.walk(ast.parse(source)))
    assert _factorial_sites(nodes) == {"m.import", "m.f", "m.h", "m.p", "m.line 9"}


# the value types are named tuples, whose C tuple protocol gives them equality,
# hashing, immutability, pickling, repr and order; none writes its own
VALUE_TYPES = ("Margins", "CosetMatrix", "OffDiagonalType")
# the reports are named tuples too, with the fields callers read
REPORT_TYPES = {
    algebra.AssociativityReport: ("margins", "basis_size", "triples_checked", "violations"),
    braid.RelationCheck: ("relation", "indices", "holds", "commutator"),
    braid.BraidReport: ("margins", "checks"),
}
TUPLE_PROTOCOL = {
    "__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__", "__repr__", "__lt__"
}


def _tuple_protocol_sites(nodes):
    """module.class.name of every tuple-protocol name a class body defines or assigns."""
    found = set()
    for name, node in nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                continue
            found |= {f"{name[:-3]}.{node.name}.{n}" for n in names & TUPLE_PROTOCOL}
    return found


def test_value_types_are_named_tuples():
    for name in VALUE_TYPES:
        cls = getattr(cosets, name)
        (base,) = cls.__bases__
        assert base.__bases__ == (tuple,) and base._fields == cls._fields, name
    own = {f"cosets.{name}.{method}" for name in VALUE_TYPES for method in TUPLE_PROTOCOL}
    for cls, fields in REPORT_TYPES.items():
        (base,) = cls.__bases__
        assert base.__bases__ == (tuple,) and cls._fields == fields, cls.__name__
        assert "__init__" not in vars(cls) and cls.__slots__ == (), cls.__name__
        module = cls.__module__.rpartition(".")[2]
        own |= {f"{module}.{cls.__name__}.{method}" for method in TUPLE_PROTOCOL}
    assert _tuple_protocol_sites(_nodes()) & own == set()
    assert not hasattr(cosets, "_frozen")
    assert [n for n in vars(cosets) if n.startswith("_set_")] == []


def test_tuple_protocol_sites_are_recognised():
    source = (
        "class A(tuple):\n"
        "    def __hash__(self): return 0\n"
        "    def nu(self): return 1\n"
        "class B:\n"
        "    __setattr__ = __delattr__ = print\n"
        "    __repr__: object = repr\n"
        "    __slots__ = ()\n"
    )
    nodes = (("m.py", node) for node in ast.walk(ast.parse(source)))
    assert _tuple_protocol_sites(nodes) == {
        "m.A.__hash__", "m.B.__setattr__", "m.B.__delattr__", "m.B.__repr__"
    }


# ``cli`` alone knows the output format: no other module serialises to JSON
def _json_sites(nodes):
    """module.line of every ``to_json_dict`` a module defines and every import of ``json``."""
    found = set()
    for name, node in nodes:
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "json" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "json"
        else:
            method = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            hit = method and node.name == "to_json_dict"
        if hit:
            found.add(f"{name[:-3]}.{node.lineno}")
    return found


def test_json_only_in_cli():
    assert {site.split(".")[0] for site in _json_sites(_nodes())} == {"cli"}


def test_json_sites_are_recognised():
    source = (
        "import json\n"
        "from json import dumps\n"
        "import os, json.decoder\n"
        "class A:\n"
        "    def to_json_dict(self): return {}\n"
        "    def as_dict(self): return {}\n"
        "import jsonschema\n"
    )
    nodes = (("m.py", node) for node in ast.walk(ast.parse(source)))
    assert _json_sites(nodes) == {"m.1", "m.2", "m.3", "m.5"}
