"""Command-line interface.

``DESCRIPTION``, the text ``--help`` prints, states the input formats, the
exit statuses and how the subcommands load their layers.  It is a constant,
not this docstring, so ``python -OO`` prints the same help.

Output format.  This module alone knows it: the library returns values, and
each command builds its JSON here.

* Every block index is 1-based, and every rational coefficient or value is a
  string such as ``"3/4"``.
* A coset matrix is ``{"n": [n_1, ...], "entries": [[row], ...]}``.
* An off-diagonal type is ``{"nu": nu, "offdiag": [[i, j, value], ...]}``, its
  nonzero cells in row-major order.
* An eps-ring element is ``{"num": [{"deg": [e_1, ...], "coeff": c}, ...],
  "den": [{"j": j, "m": m, "mult": k}, ...]}``: the numerator's terms and the
  denominator's factors (1 - m*eps_j)^k, each in ascending order.
* A combination lists its ``terms`` in ascending key order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .cosets import (
    MAX_BASIS,
    CosetMatrix,
    Margins,
    OffDiagonalType,
    check_fit,
    coset_size,
    count_transport,
    enumerate_coset_matrices,
)
from .errors import BruteForceLimitExceeded, CosetAlgError, MarginOverflow
from .oracle import DEFAULT_LIMIT, HARD_CAP, resolve_limit

DESCRIPTION = """Command-line interface.

All output is JSON on stdout (the ``table`` subcommand emits JSON lines).
Matrices are passed as flat comma-separated row-major entries, off-diagonal
types as flat comma-separated (i, j, value) triples with 1-based indices.
Exit status: 0 on success or a verified check, 2 on a failed verification, 1
on usage errors and, with nothing on stderr, when the reader closes stdout
before the output is written.

Each subcommand imports the layers it runs when it runs, so a call loads only
what it uses; the module level holds what parsing and error reports need.
"""

USAGE_ERROR = 1
CHECK_FAILED = 2
MAX_LISTED = MAX_BASIS**2  # matrices ``cosets`` lists: the lines a default ``table`` may print


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_margins(text: str) -> Margins:
    try:
        return Margins(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad margins {text!r}: {exc}") from exc


def _parse_matrix(text: str, margins: Margins) -> CosetMatrix:
    values = [int(x) for x in text.split(",")]
    nu = margins.nu
    if len(values) != nu * nu:
        raise ValueError(f"expected {nu * nu} entries, got {len(values)}")
    rows = tuple(tuple(values[i * nu : (i + 1) * nu]) for i in range(nu))
    return CosetMatrix(rows, margins)


def _parse_offdiag(text: str, nu: int) -> OffDiagonalType:
    if not text:
        return OffDiagonalType.zero(nu)
    values = [int(x) for x in text.split(",")]
    if len(values) % 3:
        raise ValueError("off-diagonal types are flat (i, j, value) triples")
    entries: dict[tuple[int, int], int] = {}
    for t in range(0, len(values), 3):
        i, j, v = values[t : t + 3]
        if not (1 <= i <= nu and 1 <= j <= nu):
            raise ValueError(f"index ({i}, {j}) out of range for nu={nu}")
        entries[(i - 1, j - 1)] = entries.get((i - 1, j - 1), 0) + v
    return OffDiagonalType.build(nu, entries)


def _check_counts(args) -> None:
    """Refuse a count below 1 before any work starts: the block count ``--nu``,
    the sample size ``--sample``, the brute-force limit ``--nmax`` and the basis
    bound ``--max-basis``."""
    for name in ("nu", "sample", "nmax", "max_basis"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def _emit(payload) -> None:
    print(json.dumps(payload))


def _matrix_json(m: CosetMatrix) -> dict:
    return {"n": list(m.margins.n), "entries": [list(row) for row in m.entries]}


def _type_json(t: OffDiagonalType) -> dict:
    # the diagonal of a type is zero, so its nonzero cells are off the diagonal
    offdiag = [[i + 1, j + 1, v] for i, row in enumerate(t.entries) for j, v in enumerate(row) if v]
    return {"nu": t.nu, "offdiag": offdiag}


def _ring_json(x) -> dict:
    """An ``EpsRingElement``."""
    return {
        "num": [{"deg": list(deg), "coeff": str(c)} for deg, c in x.num.sorted_terms()],
        "den": [{"j": j + 1, "m": m, "mult": mult} for (j, m), mult in sorted(x.den.items())],
    }


def _cmd_cosets(args) -> int:
    margins = _parse_margins(args.n)
    count = count_transport(margins.n, margins.n)  # counted, so a refusal builds none
    if count > MAX_LISTED:
        raise ValueError(f"{count} coset matrices exceed the listing bound {MAX_LISTED}")
    matrices = enumerate_coset_matrices(margins)
    _emit(
        {
            "n": list(margins.n),
            "count": len(matrices),
            "matrices": [_matrix_json(m) for m in matrices],
        }
    )
    return 0


def _cmd_mu(args) -> int:
    margins = _parse_margins(args.n)
    m = _parse_matrix(args.matrix, margins)
    _emit(str(coset_size(m)))
    return 0


def _cmd_product(args) -> int:
    from . import algebra

    margins = _parse_margins(args.n)
    a = _parse_matrix(args.a, margins)
    b = _parse_matrix(args.b, margins)
    product = algebra.multiply(algebra.AlgebraElement.basis(a), algebra.AlgebraElement.basis(b))
    _emit(
        {
            "n": list(margins.n),
            "a": _matrix_json(a),
            "b": _matrix_json(b),
            "terms": [{"c": _matrix_json(c), "coeff": str(v)} for c, v in product.sorted_terms()],
        }
    )
    return 0


class _Fragments(dict):
    """The JSON text of each key, made by ``dumps`` on first use."""

    def __init__(self, dumps):
        super().__init__()
        self.dumps = dumps

    def __missing__(self, key):
        text = self[key] = self.dumps(key)
        return text


TABLE_CHUNK = 1024  # lines per write of ``table``


def _cmd_table(args) -> int:
    from . import algebra

    margins = _parse_margins(args.n)
    rows = algebra.product_table(margins, max_basis=args.max_basis)
    # Each line is the text json.dumps gives for the row's dict, joined from
    # fragments with json.dumps's separators: every basis matrix and every
    # distinct coefficient is serialised once, not once per row.  The lines go
    # out TABLE_CHUNK at a time, so an unbuffered stdout takes one write per
    # chunk, not two per line, and no write holds the whole table.
    matrices = _Fragments(lambda m: json.dumps(_matrix_json(m)))
    coeffs = _Fragments(lambda key: json.dumps(str(Fraction(*key))))
    for start in range(0, len(rows), TABLE_CHUNK):
        sys.stdout.write("".join(
            f'{{"a": {matrices[a]}, "b": {matrices[b]}, "c": {matrices[c]}, '
            f'"coeff": {coeffs[v.numerator, v.denominator]}}}\n'
            for a, b, c, v in rows[start : start + TABLE_CHUNK]
        ))
    return 0


def _cmd_verify_assoc(args) -> int:
    from . import algebra

    margins = _parse_margins(args.n)
    report = algebra.verify_associativity(margins, max_basis=args.max_basis)
    _emit(
        {
            "n": list(margins.n),
            "basis_size": report.basis_size,
            "triples_checked": report.triples_checked,
            "violations": [list(map(_matrix_json, abc)) for abc in report.violations],
        }
    )
    return 0 if report.ok else CHECK_FAILED


def _cmd_oracle_check(args) -> int:
    from . import algebra
    from .oracle import _check_limit, oracle_product

    margins = _parse_margins(args.n)
    # refuse an oversized group before listing pairs and running products
    _check_limit(margins, args.nmax)
    basis = enumerate_coset_matrices(margins)
    pairs = [(a, b) for a in basis for b in basis]
    if args.sample is not None:
        import random

        rng = random.Random(args.seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(args.sample)]
    disagreements = 0
    for a, b in pairs:
        got = algebra.multiply(algebra.AlgebraElement.basis(a), algebra.AlgebraElement.basis(b))
        if got.terms != oracle_product(a, b, limit=args.nmax):
            disagreements += 1
    triples = len(pairs) * len(basis)
    payload = {
        "n": list(margins.n),
        "basis_size": len(basis),
        "pairs_checked": len(pairs),
        "triples": triples,
        "agree": disagreements == 0,
    }
    if disagreements == 0:
        payload["message"] = f"all {triples} triples agree"
    else:
        payload["message"] = f"{disagreements} pairs disagree"
    _emit(payload)
    return 0 if disagreements == 0 else CHECK_FAILED


def _cmd_universal(args) -> int:
    from . import universal

    nu = args.nu
    a = _parse_offdiag(args.a, nu)
    b = _parse_offdiag(args.b, nu)
    if args.c is not None:
        c = _parse_offdiag(args.c, nu)
        coeff = universal.universal_structure_constant(a, b, c)
        _emit({"nu": nu, "c": _type_json(c), "coeff": _ring_json(coeff)})
        return 0
    product = universal.universal_product(a, b)
    _emit(
        {
            "nu": nu,
            "a": _type_json(a),
            "b": _type_json(b),
            "terms": [
                {"c": _type_json(c), "coeff": _ring_json(product[c])} for c in sorted(product)
            ],
        }
    )
    return 0


def _cmd_specialize(args) -> int:
    from . import universal

    margins = _parse_margins(args.n)
    nu = margins.nu
    a = _parse_offdiag(args.a, nu)
    b = _parse_offdiag(args.b, nu)
    if args.c is not None:
        c = _parse_offdiag(args.c, nu)
        value = universal.specialize_constant(a, b, c, margins)
        _emit({"n": list(margins.n), "c": _type_json(c), "value": str(value)})
        return 0
    check_fit(margins, a, b)
    product = universal.universal_product(a, b)
    terms = []
    for c in sorted(product):
        value = product[c].specialize(margins)
        if value:
            terms.append({"c": _type_json(c), "value": str(value)})
    _emit({"n": list(margins.n), "a": _type_json(a), "b": _type_json(b), "terms": terms})
    return 0


def _cmd_braid_check(args) -> int:
    from . import braid

    margins = _parse_margins(args.n)
    report = braid.check_relations(margins)
    n = list(margins.n)
    checks = [
        {
            "relation": c.relation,
            "indices": list(c.indices),
            "holds": c.holds,
            "commutator": {
                "n": n,
                "terms": [
                    {"matrix": [list(row) for row in m.entries], "coeff": str(v)}
                    for m, v in c.commutator.sorted_terms()
                ],
            },
        }
        for c in report.checks
    ]
    _emit({"n": n, "all_hold": report.ok, "checks": checks})
    return 0 if report.ok else CHECK_FAILED


def _cmd_nu2(args) -> int:
    from . import nu2

    a, b, c, n1, n2 = args.a, args.b, args.c, args.n1, args.n2
    methods = {
        "sum": lambda: nu2.s_sum(a, b, c, n1, n2),
        "closed": lambda: nu2.s_closed_form(a, b, c, n1, n2),
        "eq3": lambda: nu2.s_eq3(a, b, c, n1, n2),
        "oracle": lambda: nu2.s_oracle(a, b, c, n1, n2, limit=args.nmax),
    }
    if args.method != "all":
        _emit(str(methods[args.method]()))
        return 0
    values = {}
    for name, fn in methods.items():
        if name == "oracle" and n1 + n2 > resolve_limit(args.nmax):
            continue
        values[name] = fn()
    agree = len(set(values.values())) == 1
    _emit(
        {
            "values": {k: str(v) for k, v in values.items()},
            "agree": agree,
        }
    )
    return 0 if agree else CHECK_FAILED


def _cmd_graded(args) -> int:
    """``poisson`` and ``graded``: ``args.op`` names the function of two basis types."""
    from . import poisson

    a = poisson.GradedElement.basis(_parse_offdiag(args.a, args.nu))
    b = poisson.GradedElement.basis(_parse_offdiag(args.b, args.nu))
    x = getattr(poisson, args.op)(a, b)
    terms = [{"type": _type_json(t), "coeff": str(c)} for t, c in x.sorted_terms()]
    _emit({"nu": x.nu, "terms": terms})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cosetalg", description=DESCRIPTION)
    parser.add_argument("--nmax", type=int, default=None,
                        help=f"brute-force limit (default {DEFAULT_LIMIT}, hard cap {HARD_CAP})")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized spot-check drivers")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that several subcommands share, each declared once in a parent parser
    n, ab, c, nu, max_basis = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    n.add_argument("--n", required=True)
    ab.add_argument("--a", required=True)
    ab.add_argument("--b", required=True)
    c.add_argument("--c", default=None)
    nu.add_argument("--nu", type=int, required=True)
    max_basis.add_argument("--max-basis", type=int, default=MAX_BASIS)

    def command(name, summary, fn, *parents, **defaults):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(fn=fn, **defaults)
        return p

    command("cosets", "enumerate coset matrices", _cmd_cosets, n)
    command("mu", "size of the coset labelled by a matrix", _cmd_mu, n).add_argument(
        "--matrix", required=True)
    command("product", "product of two basis elements", _cmd_product, n, ab)
    command("table", "full structure-constant table (JSON lines)", _cmd_table, n, max_basis)
    command("verify-assoc", "exhaustive associativity check", _cmd_verify_assoc, n, max_basis)
    command("oracle-check", "products vs brute-force oracle", _cmd_oracle_check, n).add_argument(
        "--sample", type=int, default=None, help="check this many random pairs instead of all")
    command("universal", "margin-free structure constants", _cmd_universal, nu, ab, c)
    command("specialize", "universal constants at eps_j = 1/n_j", _cmd_specialize, n, ab, c)
    command("braid-check", "verify the infinitesimal braid relations", _cmd_braid_check, n)

    p = command("nu2", "two-block structure constants", _cmd_nu2)
    p.add_argument("what", choices=["s"])
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--method", choices=["sum", "closed", "eq3", "oracle", "all"],
                   default="all")

    command("poisson", "Poisson bracket of two basis types", _cmd_graded, nu, ab,
            op="poisson_bracket")
    command("graded", "graded (order-zero) product of two basis types", _cmd_graded, nu, ab,
            op="graded_multiply")
    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a reader gone early shows here, not in the exit flush
    except BrokenPipeError:
        # nothing more can reach the reader; stdout goes to devnull so that the
        # interpreter's exit flush of what is still buffered stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    return code


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # no pole: specialize runs check_fit first; no 4F3 error: lower parameters >= 1 (criteria 5, 8)
    try:
        _check_counts(args)
        return args.fn(args)
    except MarginOverflow as exc:
        _emit({"error": "margin-overflow", "j": exc.j, "star": exc.star, "n_j": exc.n_j})
        return USAGE_ERROR
    except BruteForceLimitExceeded as exc:
        _emit({"error": "limit-exceeded", "N": exc.N, "limit": exc.limit})
        return USAGE_ERROR
    except (ValueError, CosetAlgError) as exc:
        _emit({"error": "usage", "detail": str(exc)})
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
