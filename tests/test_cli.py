import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import cosetalg
from cosetalg import Margins, algebra, oracle
from cosetalg.cli import TABLE_CHUNK, main
from cosetalg.rationals import format_rational


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mu_example(capsys):
    code, out = run(capsys, "mu", "--n", "2,2", "--matrix", "1,1,1,1")
    assert code == 0
    assert out.strip() == '"16"'


def test_cosets(capsys):
    code, out = run(capsys, "cosets", "--n", "2,2")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 3
    assert payload["matrices"][0] == {"n": [2, 2], "entries": [[0, 2], [2, 0]]}


def test_product(capsys):
    code, out = run(capsys, "product", "--n", "2,2", "--a", "1,1,1,1", "--b", "1,1,1,1")
    payload = json.loads(out)
    assert code == 0
    coeffs = {tuple(map(tuple, t["c"]["entries"])): t["coeff"] for t in payload["terms"]}
    assert coeffs == {
        ((0, 2), (2, 0)): "1/4",
        ((1, 1), (1, 1)): "1/2",
        ((2, 0), (0, 2)): "1/4",
    }


def test_identical_invocations_byte_identical(capsys):
    _, first = run(capsys, "table", "--n", "2,2")
    _, second = run(capsys, "table", "--n", "2,2")
    assert first == second
    lines = [json.loads(line) for line in first.strip().splitlines()]
    assert len(lines) == 11  # nonzero entries only
    for row in lines:
        assert set(row) == {"a", "b", "c", "coeff"}


def test_verify_assoc(capsys):
    code, out = run(capsys, "verify-assoc", "--n", "2,2")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_oracle_check_message(capsys):
    code, out = run(capsys, "oracle-check", "--n", "2,2")
    payload = json.loads(out)
    assert code == 0
    assert payload["agree"] is True
    assert payload["message"] == "all 27 triples agree"


def test_braid_check(capsys):
    code, out = run(capsys, "braid-check", "--n", "1,1,1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_hold"] is True
    kinds = {c["relation"] for c in payload["checks"]}
    assert "(9)" in kinds  # four distinct blocks: disjoint pairs commute


def test_universal_single_constant(capsys):
    code, out = run(
        capsys, "universal", "--nu", "2", "--a", "1,2,1,2,1,1", "--b", "1,2,1,2,1,1",
        "--c", "",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["coeff"] == {
        "num": [{"deg": [1, 1], "coeff": "1"}],
        "den": [],
    }


def test_specialize(capsys):
    code, out = run(
        capsys, "specialize", "--n", "2,2", "--a", "1,2,1,2,1,1", "--b", "1,2,1,2,1,1",
    )
    payload = json.loads(out)
    assert code == 0
    values = {tuple(map(tuple, t["c"]["offdiag"])): t["value"] for t in payload["terms"]}
    assert values == {
        (): "1/4",
        ((1, 2, 1), (2, 1, 1)): "1/2",
        ((1, 2, 2), (2, 1, 2)): "1/4",
    }


def test_specialize_pole_reported(capsys):
    # single constant with an off-diagonal load the margins cannot carry is a
    # precondition failure, reported as structured JSON
    code, out = run(
        capsys, "specialize", "--n", "2,2", "--a", "1,2,3,2,1,3", "--b", "", "--c", "",
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["error"] == "margin-overflow"


def test_nu2_all_methods_agree(capsys):
    code, out = run(
        capsys, "nu2", "s", "--a", "1", "--b", "1", "--c", "0", "--n1", "3", "--n2", "3",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["agree"] is True
    assert payload["values"]["sum"] == "1/9"
    assert set(payload["values"]) == {"sum", "closed", "eq3", "oracle"}


def test_nu2_single_method(capsys):
    code, out = run(
        capsys, "nu2", "s", "--a", "2", "--b", "2", "--c", "1", "--n1", "4", "--n2", "4",
        "--method", "closed",
    )
    assert code == 0
    assert json.loads(out) == "2/9"  # value pinned by the oracle at N = 8


def test_poisson_cli(capsys):
    code, out = run(
        capsys, "poisson", "--nu", "3",
        "--a", "1,2,1,2,1,1", "--b", "2,3,1,3,2,1",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["nu"] == 3
    assert payload["terms"]  # nonzero bracket for these types


def test_graded_cli(capsys):
    code, out = run(capsys, "graded", "--nu", "2", "--a", "1,2,1,2,1,1", "--b", "1,2,1,2,1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["terms"] == [
        {"type": {"nu": 2, "offdiag": [[1, 2, 2], [2, 1, 2]]}, "coeff": "1"}
    ]


def test_usage_error_exit_code(capsys):
    assert main(["mu", "--n", "2,2"]) == 1  # missing --matrix
    code, out = run(capsys, "mu", "--n", "2,2", "--matrix", "1,1,1")
    assert code == 1
    assert json.loads(out)["error"] == "usage"


def test_bad_margins_matrix(capsys):
    code, out = run(capsys, "mu", "--n", "2,2", "--matrix", "2,1,0,1")
    assert code == 1
    assert json.loads(out)["error"] == "usage"


def test_reader_closing_early_exits_1_quietly():
    # the (3,3,3) table is 4.5 MB of JSON lines, far more than a pipe holds, so
    # the process is still writing when the reader closes its end
    proc = subprocess.Popen(
        [sys.executable, "-m", "cosetalg.cli", "table", "--n", "3,3,3"],
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(cosetalg.__file__).resolve().parents[1])},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(100).startswith(b'{"a": ')
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_table_bytes_and_bounded_writes(monkeypatch):
    # the golden corpus has no (3,3,3) table; the lines must be json.dumps of
    # each row's dict, and each write at most TABLE_CHUNK of them
    fake = _Writes()
    monkeypatch.setattr(sys, "stdout", fake)
    assert main(["table", "--n", "3,3,3"]) == 0
    want = [
        json.dumps({"a": a.to_json_dict(), "b": b.to_json_dict(), "c": c.to_json_dict(),
                    "coeff": format_rational(v)}) + "\n"
        for a, b, c, v in algebra.product_table(Margins((3, 3, 3)))
    ]
    got = "".join(fake.writes).splitlines(keepends=True)
    # the first differing line, not a diff of two 4.5 MB strings
    assert next(((k, x, y) for k, (x, y) in enumerate(zip(got, want)) if x != y), None) is None
    assert len(got) == len(want)
    assert len(fake.writes) > 1
    assert max(w.count("\n") for w in fake.writes) <= TABLE_CHUNK


def test_oracle_check_at_hard_cap_is_quick_and_fills_no_group_cache(capsys):
    # N = 9 is the hard cap: the whole group has 9! permutations, and no
    # production route enumerates it
    oracle._partition_by_matrix.cache_clear()
    started = time.perf_counter()
    code, out = run(capsys, "--nmax", "9", "--seed", "0", "oracle-check", "--n", "4,5", "--sample", "2")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert json.loads(out)["agree"] is True
    assert elapsed < 2
    assert oracle._partition_by_matrix.cache_info().currsize == 0


def test_oracle_check_refuses_oversized_group_before_any_product(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("oracle-check ran a product past the limit")

    monkeypatch.setattr(algebra, "multiply", refuse)
    code, out = run(capsys, "oracle-check", "--n", "3,3,3,3", "--sample", "1")
    assert code == 1
    assert json.loads(out) == {"error": "limit-exceeded", "N": 12, "limit": 8}
