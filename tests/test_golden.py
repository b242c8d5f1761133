"""Replay the golden CLI corpus and require byte-identical stdout and exit codes.

The corpus lives in ``tests/golden`` and is written by ``golden/generate.py``.
"""

import json
import pathlib

import pytest

from golden.generate import run_case

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def test_corpus_covers_every_subcommand():
    from cosetalg.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    used = {arg for case in CASES for arg in case["argv"]}
    assert set(sub.choices) <= used


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case):
    code, out = run_case(case["argv"])
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
