"""The benchmark's use of the package: every name it imports or wraps exists.

``bench/`` imports names from ``cosetalg`` and wraps public functions by
name, so a package change that drops one breaks the benchmark run.  These
tests run that contact surface in process; they put ``bench/`` on the path
and write nothing there.
"""

import ast
import importlib
import pathlib
import sys

import cosetalg

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_imports():
    """(file, module, name) for each ``from cosetalg... import name`` in bench/*.py,
    and (file, module, None) for each ``import cosetalg...``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cosetalg":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "cosetalg":
                        yield path.name, alias.name, None


def _resolves(module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_imports_resolve():
    found = list(_bench_imports())
    assert any(name == "poisson_bracket_via_ring" for _, _, name in found)
    missing = [f"{path}: {module}.{name}" for path, module, name in found if not _resolves(module, name)]
    assert missing == []


def test_bench_caches_and_tracing_install(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import tracing

    assert set(run.cache_entries()) == {
        "algebra.cache_entries", "universal.cache_entries", "poisson.cache_entries",
    }
    run.clear_caches()
    originals = {
        name: getattr(cosetalg.oracle, name)
        for name in ("coset_partition", "oracle_product", "oracle_structure_constant")
    }
    product = cosetalg.universal.universal_product
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert all(getattr(cosetalg.oracle, name) is not f for name, f in originals.items())
        # the package's lazy export reaches the wrapper while it is installed
        assert cosetalg.universal_product is cosetalg.universal.universal_product is not product
    finally:
        tracer.unwrap_all()
    assert all(getattr(cosetalg.oracle, name) is f for name, f in originals.items())
    assert cosetalg.universal_product is cosetalg.universal.universal_product is product
