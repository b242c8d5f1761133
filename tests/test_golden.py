"""Replay the golden CLI corpus and require byte-identical stdout and exit codes.

The corpus lives in ``tests/golden`` and is written by ``golden/generate.py``.
Every case replays in process; one case per subcommand and one error case
also replay as ``python -m cosetalg.cli`` in a fresh interpreter, where only
the modules the call itself imports are loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from golden import generate
from golden.generate import run_case

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
ROOT = GOLDEN.parent.parent


def _subcommands():
    from cosetalg.cli import build_parser

    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def _fresh_cases():
    """The first passing case of each subcommand, and the margin-overflow error."""
    commands = _subcommands()
    first = {}
    for case in CASES:
        if case["exit"] == 0:
            first.setdefault(next(arg for arg in case["argv"] if arg in commands), case)
    return [*first.values(), *(c for c in CASES if c["name"] == "error-margin-overflow")]


def test_corpus_covers_every_subcommand():
    used = {arg for case in CASES for arg in case["argv"]}
    assert set(_subcommands()) <= used
    assert len(_fresh_cases()) == len(_subcommands()) + 1


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case):
    code, out = run_case(case["argv"])
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()


@pytest.mark.parametrize("case", _fresh_cases(), ids=lambda c: c["name"])
def test_golden_case_fresh_process(case):
    proc = subprocess.run(
        [sys.executable, "-m", "cosetalg.cli", *case["argv"]],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
    )
    assert proc.returncode == case["exit"]
    assert proc.stdout == (GOLDEN / f"{case['name']}.out").read_bytes()


def test_generate_writes_nothing_when_a_case_fails(monkeypatch, tmp_path):
    calls = []

    def run(argv):
        calls.append(argv)
        if len(calls) == 2:
            raise BrokenPipeError
        return 0, "{}\n"

    monkeypatch.setattr(generate, "HERE", tmp_path)
    monkeypatch.setattr(generate, "run_case", run)
    with pytest.raises(BrokenPipeError):
        generate.main()
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []
