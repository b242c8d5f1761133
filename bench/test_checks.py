"""The benchmark's own tests: every check passes on real outputs and reports a
perturbed output (one coefficient changed, one term dropped) as a failed
operation.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def outputs_of(workload, ops):
    workload.ops = ops
    tracer = tracing.Tracer()
    return [workload.run_op(op, tracer) for op in ops]


def failed_ops(workload, outputs):
    failures, extra = workload.check(outputs, tracing.Tracer())
    assert not extra
    return set(failures)


def change_one(terms: dict):
    key = sorted(terms)[0]
    terms[key] += Fraction(1, 7)


def drop_one(terms: dict):
    del terms[sorted(terms)[-1]]


@pytest.fixture(scope="module")
def finite():
    w = workloads.Finite(1)
    ops = [op for op in w.ops if op[0] == "pair"][:8] + [op for op in w.ops if op[0] == "table"]
    return w, outputs_of(w, ops)


@pytest.mark.parametrize("perturb", [change_one, drop_one])
def test_finite_product_perturbed(finite, perturb):
    w, outputs = finite
    assert failed_ops(w, outputs) == set()
    bad = copy.deepcopy(outputs)
    perturb(bad[2])
    assert failed_ops(w, bad) == {2}


@pytest.mark.parametrize("perturb", ["change", "drop"])
def test_finite_table_perturbed(finite, perturb):
    w, outputs = finite
    rows = list(outputs[-1])
    if perturb == "change":
        a, b, c, v = rows[5]
        rows[5] = (a, b, c, v + 1)
    else:
        del rows[5]
    assert failed_ops(w, outputs[:-1] + [rows]) == {len(outputs) - 1}


def test_transpose_symmetry_and_oracle():
    ab = {((1, 2), (2, 1)): Fraction(1, 3), ((2, 1), (1, 2)): Fraction(2, 3)}
    assert checks.transpose_symmetry(ab, {checks.transpose(c): v for c, v in ab.items()}) is None
    swapped = {checks.transpose(c): v for c, v in ab.items()}
    change_one(swapped)
    assert checks.transpose_symmetry(ab, swapped)
    from cosetalg import AlgebraElement, Margins, enumerate_coset_matrices, multiply

    n = (2, 1, 2)
    brute = checks.BruteForce(n)
    basis = enumerate_coset_matrices(Margins(n))
    for a in basis:
        for b in basis:
            got = {c.entries: v for c, v in multiply(AlgebraElement.basis(a), AlgebraElement.basis(b)).terms.items()}
            assert checks.oracle_agreement(got, brute.product(a.entries, b.entries)) is None
    change_one(got)
    assert checks.oracle_agreement(got, brute.product(a.entries, b.entries))


@pytest.fixture(scope="module")
def universal():
    w = workloads.Universal(1)
    ops = sorted(w.ops, key=lambda op: workloads.universal_tensors(op[1].entries, op[2].entries))[:4]
    return w, outputs_of(w, ops)


@pytest.mark.parametrize("part", [1, 2])   # specialised values, order-zero coefficients
@pytest.mark.parametrize("perturb", [change_one, drop_one])
def test_universal_perturbed(universal, part, perturb):
    w, outputs = universal
    assert failed_ops(w, outputs) == set()
    bad = list(outputs)
    entry = list(bad[1])
    entry[part] = dict(entry[part])
    if perturb is drop_one and part == 1:
        # dropping a target: take out one with a nonzero finite constant
        del entry[1][max(entry[1], key=lambda c: (entry[1][c] != 0, c))]
    elif perturb is drop_one:
        a, b = w.ops[1][1].entries, w.ops[1][2].entries
        del entry[2][checks.add_types(a, b)]
    else:
        perturb(entry[part])
    bad[1] = tuple(entry)
    assert failed_ops(w, bad) == {1}


def test_rebuilt_equal():
    original = ({(0, 1): Fraction(1), (1, 0): Fraction(-2)}, {(0, 1): 1})
    assert checks.rebuilt_equal(original, copy.deepcopy(original)) is None
    changed = copy.deepcopy(original)
    change_one(changed[0])
    assert checks.rebuilt_equal(original, changed)
    dropped = copy.deepcopy(original)
    drop_one(dropped[0])
    assert checks.rebuilt_equal(original, dropped)


@pytest.fixture(scope="module")
def identities():
    w = workloads.Identities(1)
    kinds = {}
    for op in w.ops:
        kinds.setdefault(op[0], op)
    return w, outputs_of(w, list(kinds.values()))


@pytest.mark.parametrize("k", range(5))
def test_identity_perturbed(identities, k):
    w, outputs = identities
    assert failed_ops(w, outputs) == set()
    bad = list(outputs)
    if w.ops[k][0] == "braid":
        relation, holds, commutator = bad[k][0]
        changed = [(relation, holds, {"extra term": Fraction(1)})] + bad[k][1:]
        assert failed_ops(w, outputs[:k] + [changed] + outputs[k + 1:]) == {k}
        bad[k] = bad[k][1:]
    else:
        bad[k] = {"extra term": Fraction(1, 2)}
    assert failed_ops(w, bad) == {k}


def test_ring_route():
    assert checks.ring_route({"x": Fraction(1)}, {"x": Fraction(1)}) is None
    assert checks.ring_route({"x": Fraction(1)}, {"x": Fraction(2)})
    assert checks.ring_route({"x": Fraction(1), "y": Fraction(1)}, {"x": Fraction(1)})


# -- CLI: one perturbation that changes a coefficient or flag, one that drops a term

def _constant(term):
    return {"deg": [0, 0, 0], "coeff": "5/3"}


CLI_PERTURB = {
    "cosets": (lambda p: p["matrices"][0]["entries"][0].reverse(), lambda p: p["matrices"].pop()),
    "mu": (lambda p: str(int(p) + 1), None),
    "product": (lambda p: p["terms"][0].update(coeff="1/7"), lambda p: p["terms"].pop()),
    "verify-assoc": (lambda p: p.update(triples_checked=p["triples_checked"] - 1),
                     lambda p: p["violations"].append([])),
    "oracle-check": (lambda p: p.update(agree=False), lambda p: p.update(pairs_checked=0)),
    "universal": (lambda p: [t["coeff"]["num"].append(_constant(t)) for t in p["terms"]],
                  lambda p: p.update(terms=[t for t in p["terms"] if any(d["deg"] == [0, 0, 0] for d in t["coeff"]["num"]) is False])),
    "specialize": (lambda p: p["terms"][0].update(value="1/7"), lambda p: p["terms"].pop()),
    "braid-check": (lambda p: p["checks"][0]["commutator"]["terms"].append({}), lambda p: p["checks"].pop()),
    "nu2": (lambda p: p.update(agree=False), lambda p: p["values"].pop("oracle")),
    "poisson": (lambda p: p["terms"][0].update(coeff="1/7"), lambda p: p["terms"].pop()),
    "graded": (lambda p: p["terms"][0].update(coeff="2"), lambda p: p["terms"].pop()),
    "error": (lambda p: p.update(error="usage" if p["error"] != "usage" else "other"), lambda p: p.pop("error")),
}


@pytest.fixture(scope="module")
def cli():
    w = workloads.Cli(1)
    chosen = {}
    for k, call in enumerate(w.ops):
        if call["kind"] == "poisson" and chosen.get("poisson") is not None:
            continue
        key = call["kind"] if call["kind"] != "error" else call["error"]
        if key not in chosen and not (call["kind"] == "error" and call["argv"][:2] == ["universal", "--nu"]):
            chosen[key] = k
    ops = [w.ops[k] for k in chosen.values()]
    outputs = outputs_of(w, ops)
    keep = [i for i, (call, out) in enumerate(zip(ops, outputs))
            if call["kind"] != "poisson" or json.loads(out[1])["terms"]]
    w.ops = [ops[i] for i in keep]
    return w, [outputs[i] for i in keep]


def test_cli_outputs_pass(cli):
    w, outputs = cli
    assert failed_ops(w, outputs) == set()
    assert {call["kind"] for call in w.ops} >= set(CLI_PERTURB) - {"poisson"}


def test_cli_exit_code_and_table(cli):
    w, outputs = cli
    k = next(i for i, call in enumerate(w.ops) if call["kind"] == "table")
    code, stdout = outputs[k]
    assert checks.cli_call(w.ops[k], code + 1, stdout)
    lines = stdout.decode().splitlines()
    row = json.loads(lines[3])
    row["coeff"] = "1/7"
    assert checks.cli_call(w.ops[k], code, "\n".join(lines[:3] + [json.dumps(row)] + lines[4:]).encode())
    assert checks.cli_call(w.ops[k], code, "\n".join(lines[:3] + lines[4:]).encode())


@pytest.mark.parametrize("which", [0, 1])
def test_cli_perturbed(cli, which):
    w, outputs = cli
    for k, (call, (code, stdout)) in enumerate(zip(w.ops, outputs)):
        if call["kind"] == "table":
            continue
        perturb = CLI_PERTURB[call["kind"]][which]
        if perturb is None:
            continue
        payload = json.loads(stdout)
        changed = perturb(payload)
        if call["kind"] == "mu":
            payload = changed
        bad = outputs[:k] + [(code, json.dumps(payload).encode())] + outputs[k + 1:]
        assert failed_ops(w, bad) == {k}, call["argv"]


def test_nu_zero_is_reported_as_failed():
    w = workloads.Cli(1)
    ops = [call for call in w.ops if call["argv"][:3] == ["universal", "--nu", "0"]]
    assert len(ops) == 2
    assert failed_ops(w, outputs_of(w, ops)) == {0, 1}
