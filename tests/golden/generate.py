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
import pathlib
import sys

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
    ("specialize-nu3", ["specialize", "--n", "2,2,3", "--a", NU3_A, "--b", NU3_C]),
    ("specialize-nu3-const", ["specialize", "--n", "2,3,2", "--a", NU3_B, "--b", NU3_A,
                              "--c", NU3_C]),
    ("specialize-nu4", ["specialize", "--n", "2,2,2,2", "--a", NU4_A, "--b", NU4_B]),
    ("poisson-nu3", ["poisson", "--nu", "3", "--a", NU3_A, "--b", NU3_C]),
    ("poisson-nu4", ["poisson", "--nu", "4", "--a", NU4_A, "--b", NU4_B]),
    ("graded-nu3", ["graded", "--nu", "3", "--a", NU3_B, "--b", NU3_C]),
    ("graded-nu4", ["graded", "--nu", "4", "--a", NU4_B, "--b", NU4_C]),
    ("braid-check-1111", ["braid-check", "--n", "1,1,1,1"]),
    ("braid-check-222", ["braid-check", "--n", "2,2,2"]),
    ("nu2-all", ["nu2", "s", "--a", "2", "--b", "1", "--c", "1", "--n1", "3", "--n2", "4"]),
    ("nu2-closed", ["nu2", "s", "--a", "2", "--b", "2", "--c", "3", "--n1", "5", "--n2", "4",
                    "--method", "closed"]),
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
]


def run_case(argv):
    """Run one CLI call in-process; return (exit code, stdout text)."""
    from cosetalg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
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
