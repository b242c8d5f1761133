"""The package's lazy exports, and what a fresh process imports.

``cosetalg/__init__.py`` names every export and the module it lives in, and
loads that module on first use, so a renamed export no longer fails ``import
cosetalg``: ``test_lazy_exports_resolve`` makes that check instead.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import cosetalg

SRC = pathlib.Path(cosetalg.__file__).resolve().parent


def test_lazy_exports_resolve():
    for name, module in cosetalg._MODULE_OF.items():
        assert getattr(cosetalg, name) is getattr(importlib.import_module(module), name)
    assert set(cosetalg._SUBMODULES) == {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    for module in cosetalg._SUBMODULES:
        assert getattr(cosetalg, module) is importlib.import_module(f"cosetalg.{module}")
    assert {*cosetalg._MODULE_OF, *cosetalg._SUBMODULES} <= set(dir(cosetalg))
    assert set(cosetalg.__all__) == set(cosetalg._MODULE_OF)
    with pytest.raises(AttributeError):
        cosetalg.no_such_name


def test_lazy_exports_are_not_cached(monkeypatch):
    # the benchmark's tracer swaps module functions for wrappers and back; a
    # package that stored a name it had looked up would keep the wrapper
    original = cosetalg.braid.r_element
    monkeypatch.setattr(cosetalg.braid, "r_element", lambda *args: None)
    assert cosetalg.r_element is cosetalg.braid.r_element is not original
    monkeypatch.undo()
    assert cosetalg.r_element is original


def _loaded(code):
    """The modules a fresh interpreter has loaded after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)"],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    return set(proc.stderr.split())


def test_fresh_import_loads_no_submodule():
    loaded = _loaded("import cosetalg")
    assert "cosetalg" in loaded
    assert {m for m in loaded if m.startswith("cosetalg.")} == set()
    # first use of a name loads its module and what that module imports
    loaded = _loaded("import cosetalg; cosetalg.Margins((1,))")
    assert {m for m in loaded if m.startswith("cosetalg.")} == {"cosetalg.cosets", "cosetalg.errors"}


def _cli_loaded(*argv):
    """The modules loaded after ``python -m cosetalg.cli *argv`` runs, read from sys.modules."""
    return _loaded(
        "import runpy, sys\n"
        f"sys.argv = ['cosetalg', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('cosetalg.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0"
    )


def test_fresh_cli_call_loads_only_its_layers():
    loaded = _cli_loaded("mu", "--n", "2,2", "--matrix", "1,1,1,1")
    assert "cosetalg.cosets" in loaded
    heavy = {"algebra", "epsring", "universal", "poisson", "braid", "nu2"}
    assert {f"cosetalg.{m}" for m in heavy} & loaded == set()
    assert "dataclasses" not in loaded
    # the universal product shares the slice builder in ``cosets``, not the finite algebra
    loaded = _cli_loaded("universal", "--nu", "3", "--a", "1,2,1,2,3,1,3,1,1", "--b", "")
    assert {"cosetalg.universal", "cosetalg.epsring"} <= loaded
    assert "cosetalg.algebra" not in loaded
    # the graded layer computes without the ring; only its reference route needs it
    for command in ("poisson", "graded"):
        loaded = _cli_loaded(command, "--nu", "3", "--a", "1,2,1,2,3,1,3,1,1", "--b", "1,2,2,2,1,2")
        assert "cosetalg.poisson" in loaded
        assert {"cosetalg.universal", "cosetalg.epsring"} & loaded == set()
