"""Write the golden CLI corpus: stdout bytes and exit code of fixed calls.

Run from the repository root with the package on the path:

    PYTHONPATH=src python tests/golden/generate.py

Each case writes ``<name>.out`` (the exact stdout) and its entry in
``cases.json`` (argv and exit code); no file is written until every case has
run.  ``tests/test_golden.py`` replays every
case and asserts byte equality.  Regenerate only when a change to the
output is intended, and say which cases changed and why.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
from unittest import mock

HERE = pathlib.Path(__file__).resolve().parent

NU3_A = "1,2,1,2,3,1,3,1,1"          # the 3-cycle
NU3_B = "1,2,2,2,1,2"                # a double transposition
NU3_C = "1,2,1,2,1,1,2,3,1,3,2,1"
NU4_A = "1,2,1,2,3,1,3,4,1,4,1,1"    # the 4-cycle
NU4_B = "1,3,1,3,1,1,2,4,1,4,2,1"
NU4_C = "1,2,1,2,1,1"

P2222_A = "1,1,0,0,1,1,0,0,0,0,1,1,0,0,1,1"
P2222_B = "0,1,1,0,1,0,0,1,1,0,0,1,0,1,1,0"

# 31 blocks of one point: every slice is a 31 x 31 table of 961 cells
ONES_31 = ",".join(["1"] * 31)
IDENTITY_31 = ",".join(str(int(i == j)) for i in range(31) for j in range(31))

CASES = [
    ("cosets-122", ["cosets", "--n", "1,2,2"]),
    ("mu-222", ["mu", "--n", "2,2,2", "--matrix", "0,1,1,1,0,1,1,1,0"]),
    ("table-222", ["table", "--n", "2,2,2"]),
    ("table-123", ["table", "--n", "1,2,3"]),          # only the flip fixes n
    ("table-1111", ["table", "--n", "1,1,1,1"]),      # all of S_4 fixes n
    ("product-2222", ["product", "--n", "2,2,2,2", "--a", P2222_A, "--b", P2222_B]),
    ("product-123", ["product", "--n", "1,2,3", "--a", "0,0,1,0,1,1,1,1,1", "--b",
                     "1,0,0,0,1,1,0,1,2"]),
    ("product-2222-rev", ["product", "--n", "2,2,2,2", "--a", P2222_B, "--b", P2222_A]),
    ("product-identity-31", ["product", "--n", ONES_31, "--a", IDENTITY_31, "--b", IDENTITY_31]),
    # a diagonal of about 10**5 points in each block, off-diagonal mass 6 and 4
    ("product-large-diagonal", ["product", "--n", "100000,100000,100000",
                                "--a", "99998,1,1,1,99998,1,1,1,99998",
                                "--b", "99999,1,0,0,99999,1,1,0,99999"]),
    ("verify-assoc-112", ["verify-assoc", "--n", "1,1,2"]),
    ("oracle-check-22", ["oracle-check", "--n", "2,2"]),
    ("oracle-check-122-sample", ["--seed", "3", "oracle-check", "--n", "1,2,2", "--sample", "4"]),
    ("universal-nu3", ["universal", "--nu", "3", "--a", NU3_A, "--b", NU3_B]),
    ("universal-nu3-cycle", ["universal", "--nu", "3", "--a", NU3_A, "--b", NU3_A]),
    ("universal-nu3-double", ["universal", "--nu", "3", "--a", NU3_B, "--b", NU3_B]),
    ("universal-nu3-const", ["universal", "--nu", "3", "--a", NU3_C, "--b", NU3_C, "--c", ""]),
    ("universal-nu4", ["universal", "--nu", "4", "--a", NU4_A, "--b", NU4_B]),
    ("universal-nu4-c", ["universal", "--nu", "4", "--a", NU4_B, "--b", NU4_C]),
    ("universal-nu40-zero", ["universal", "--nu", "40", "--a", "", "--b", ""]),
    # 5 of its 25 targets cancel a factor of the common denominator
    ("universal-nu3-cancel", ["universal", "--nu", "3", "--a", "1,3,1,2,3,1,3,1,1,3,2,1",
                              "--b", "1,2,1,1,3,1,2,1,2,2,3,1,3,2,2"]),
    # no candidate divides, though one numerator vanishes at (2, 3, 1) on eps_3 = 1
    ("universal-nu3-false-zero", ["universal", "--nu", "3", "--a", "1,3,2,3,1,2",
                                  "--b", "1,2,1,1,3,2,2,1,2,2,3,1,3,1,1,3,2,2"]),
    # one target cancels (1 - 2*eps_2) and (1 - 2*eps_3): two variables at once
    ("universal-nu3-cancel-two-variables",
     ["universal", "--nu", "3", "--a", "1,2,1,1,3,1,2,1,1,2,3,2,3,1,1,3,2,2",
      "--b", "1,2,2,1,3,2,2,1,2,2,3,1,3,1,2,3,2,1",
      "--c", "1,2,1,1,3,1,2,1,1,2,3,3,3,1,1,3,2,3"]),
    # one of its 17 targets cancels its candidate: a nu=4 cancellation
    ("universal-nu4-cancel", ["universal", "--nu", "4", "--a",
                              "2,3,1,2,4,1,3,2,1,3,4,1,4,2,1,4,3,1",
                              "--b", "1,4,1,3,4,1,4,1,1,4,3,1"]),
    # a*_j + b*_j = 257: every packed field, the degree row's too, is two bytes wide
    ("universal-nu2-wide", ["universal", "--nu", "2", "--a", "1,2,255,2,1,255",
                            "--b", "1,2,2,2,1,2"]),
    ("specialize-nu3", ["specialize", "--n", "2,2,3", "--a", NU3_A, "--b", NU3_C]),
    ("specialize-nu3-const", ["specialize", "--n", "2,3,2", "--a", NU3_B, "--b", NU3_A,
                              "--c", NU3_C]),
    ("specialize-nu4", ["specialize", "--n", "2,2,2,2", "--a", NU4_A, "--b", NU4_B]),
    # 788 targets, 526 nonzero values; the numerators have several distinct top
    # degrees, so the weight table at (3,3,3,3) grows during the call
    ("specialize-nu4-many", ["specialize", "--n", "3,3,3,3",
                             "--a", "1,3,1,1,4,1,2,1,1,3,2,1,3,4,1,4,1,1,4,3,1",
                             "--b", "1,3,1,1,4,1,2,1,1,2,3,1,3,2,1,3,4,1,4,1,1,4,2,1"]),
    ("poisson-nu3", ["poisson", "--nu", "3", "--a", NU3_A, "--b", NU3_C]),
    ("poisson-nu4", ["poisson", "--nu", "4", "--a", NU4_A, "--b", NU4_B]),
    ("graded-nu3", ["graded", "--nu", "3", "--a", NU3_B, "--b", NU3_C]),
    ("graded-nu4", ["graded", "--nu", "4", "--a", NU4_B, "--b", NU4_C]),
    ("braid-check-1111", ["braid-check", "--n", "1,1,1,1"]),
    ("braid-check-222", ["braid-check", "--n", "2,2,2"]),
    # the benchmark's margins: relation (9) has instances, and each element is scaled by 9
    ("braid-check-3333", ["braid-check", "--n", "3,3,3,3"]),
    ("nu2-all", ["nu2", "s", "--a", "2", "--b", "1", "--c", "1", "--n1", "3", "--n2", "4"]),
    ("nu2-closed", ["nu2", "s", "--a", "2", "--b", "2", "--c", "3", "--n1", "5", "--n2", "4",
                    "--method", "closed"]),
    # a diagonal of 1,997 points in each block; three routes, the oracle skipped
    ("nu2-s-2000", ["nu2", "s", "--a", "3", "--b", "2", "--c", "1", "--n1", "2000", "--n2",
                    "2000"]),
    # diagonals of 99,997 points: every weight is a binomial product, so this
    # costs what the small cases do
    ("nu2-s-large", ["nu2", "s", "--a", "3", "--b", "2", "--c", "1", "--n1", "100000", "--n2",
                     "100000"]),
    # error paths
    ("error-margin-overflow", ["specialize", "--n", "1,2,2", "--a", NU3_B, "--b", ""]),
    ("error-limit-exceeded", ["oracle-check", "--n", "3,3,3", "--sample", "1"]),
    ("error-mu-columns", ["mu", "--n", "2,2", "--matrix", "2,1,0,1"]),
    ("error-mu-length", ["mu", "--n", "2,2", "--matrix", "1,1,1"]),
    ("error-unbalanced", ["universal", "--nu", "3", "--a", "1,2,1", "--b", ""]),
    ("error-index-range", ["graded", "--nu", "2", "--a", "1,3,1,3,1,1", "--b", ""]),
    ("error-triples", ["poisson", "--nu", "2", "--a", "1,2", "--b", ""]),
    ("error-bad-margins", ["cosets", "--n", "2,0"]),
    ("error-max-basis", ["table", "--n", "2,2,2", "--max-basis", "5"]),
    # 22,069,251 coset matrices: refused from their count, none enumerated
    ("error-max-basis-count", ["table", "--n", "5,5,5,5,5"]),
    # 153,040 coset matrices, above the 16,384 that cosets lists: refused from their count
    ("error-cosets-count", ["cosets", "--n", "3,3,3,3,3"]),
    ("error-nu2-domain", ["nu2", "s", "--a", "3", "--b", "1", "--c", "1", "--n1", "2",
                          "--n2", "4"]),
    ("error-missing-arg", ["mu", "--n", "2,2"]),
    ("error-no-command", []),
    ("error-bad-int", ["universal", "--nu", "x", "--a", "", "--b", ""]),
    ("error-universal-nu0", ["universal", "--nu", "0", "--a", "", "--b", ""]),
    ("error-universal-nu0-c", ["universal", "--nu", "0", "--a", "", "--b", "", "--c", ""]),
    ("error-universal-nu-neg", ["universal", "--nu", "-1", "--a", "", "--b", ""]),
    ("error-poisson-nu0", ["poisson", "--nu", "0", "--a", "", "--b", ""]),
    ("error-graded-nu-neg", ["graded", "--nu", "-1", "--a", "", "--b", ""]),
    ("error-sample0", ["oracle-check", "--n", "2,2", "--sample", "0"]),
    ("error-sample-neg", ["oracle-check", "--n", "2,2", "--sample", "-3"]),
    ("error-nmax0", ["--nmax", "0", "nu2", "s", "--a", "0", "--b", "0", "--c", "0", "--n1", "1",
                     "--n2", "1"]),
    ("error-max-basis-neg", ["verify-assoc", "--n", "1,1,2", "--max-basis", "-5"]),
    # help text on stdout, exit 0
    ("help", ["--help"]),
    *((f"help-{command}", [command, "--help"]) for command in (
        "cosets", "mu", "product", "table", "verify-assoc", "oracle-check", "universal",
        "specialize", "braid-check", "nu2", "poisson", "graded",
    )),
]


def run_case(argv):
    """Run one CLI call in-process; return (exit code, stdout text).

    argparse wraps help to the terminal width, which it reads from ``COLUMNS``
    first, so the call runs with ``COLUMNS`` pinned to 80.
    """
    from cosetalg.cli import main

    out = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def main():
    # run every case before writing any file, so that an interrupted run
    # leaves the corpus as it was
    cases, outs = [], []
    for name, argv in CASES:
        code, out = run_case(argv)
        outs.append(out)
        cases.append({"name": name, "argv": argv, "exit": code})
        print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)
    for case, out in zip(cases, outs):
        (HERE / f"{case['name']}.out").write_bytes(out.encode())
    lines = ",\n".join(json.dumps(case) for case in cases)
    (HERE / "cases.json").write_text(f"[\n{lines}\n]\n")


if __name__ == "__main__":
    main()
