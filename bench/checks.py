"""Correctness checks on the outputs of the benchmark's operations.

Every check works on plain data (tuples of entries, ``Fraction`` values,
parsed JSON) and returns ``None`` when the output is correct or a one-line
reason when it is not.  None of them compares against a stored copy of an
earlier output: each uses either a route that does not run the code under
test (coset sizes from the factorial formula, brute force over S_N,
enumeration by row compositions) or a property every correct output has.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from fractions import Fraction
from math import factorial, prod

Grid = tuple[tuple[int, ...], ...]


# -- independent routes ------------------------------------------------------

def coset_size(entries: Grid, n: tuple[int, ...]) -> int:
    """prod_j (n_j!)^2 / prod_ij a_ij!."""
    num = prod(factorial(x) ** 2 for x in n)
    den = prod(factorial(v) for row in entries for v in row)
    if num % den:
        raise ArithmeticError(f"coset size of {entries} is not an integer")
    return num // den


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def margin_tables(n: tuple[int, ...]) -> list[Grid]:
    """Every nonnegative matrix with row and column sums n, by filtering compositions."""
    nu = len(n)
    return [
        rows for rows in itertools.product(*(_compositions(x, nu) for x in n))
        if all(sum(rows[i][j] for i in range(nu)) == n[j] for j in range(nu))
    ]


def is_margin_table(entries: Grid, n: tuple[int, ...]) -> bool:
    nu = len(n)
    return (
        len(entries) == nu
        and all(len(row) == nu and min(row) >= 0 for row in entries)
        and all(sum(entries[i]) == n[i] for i in range(nu))
        and all(sum(entries[i][j] for i in range(nu)) == n[j] for j in range(nu))
    )


def balanced_types(nu: int, entry_max: int) -> list[Grid]:
    """Every off-diagonal grid with entries <= entry_max whose row and column sums agree."""
    cells = [(i, j) for i in range(nu) for j in range(nu) if i != j]
    out = []
    for values in itertools.product(range(entry_max + 1), repeat=len(cells)):
        grid = [[0] * nu for _ in range(nu)]
        for (i, j), v in zip(cells, values):
            grid[i][j] = v
        if all(sum(grid[j]) == sum(grid[i][j] for i in range(nu)) for j in range(nu)):
            out.append(tuple(tuple(r) for r in grid))
    return sorted(out)


def stars(t: Grid) -> tuple[int, ...]:
    nu = len(t)
    return tuple(sum(t[i][j] for i in range(nu) if i != j) for j in range(nu))


def embed(t: Grid, n: tuple[int, ...]) -> Grid | None:
    """The coset matrix with off-diagonal part t, or None when t does not fit n."""
    s = stars(t)
    if any(x > m for x, m in zip(s, n)):
        return None
    return tuple(
        tuple(n[i] - s[i] if i == j else t[i][j] for j in range(len(n)))
        for i in range(len(n))
    )


def add_types(a: Grid, b: Grid) -> Grid:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(m: Grid) -> Grid:
    return tuple(zip(*m))


class BruteForce:
    """Products in the group algebra of S_N, counted over explicit permutations.

    For g0 in the a-coset, the coefficient of c in a*b is the share of h in
    the b-coset with h o g0 in the c-coset (apply g0 first).  This holds
    because the b-coset is invariant under right multiplication by the Young
    subgroup, so the share does not depend on which g0 is chosen.
    """

    def __init__(self, n: tuple[int, ...]):
        self.n = n
        self.block = [j for j, size in enumerate(n) for _ in range(size)]
        self.cosets: dict[Grid, list[tuple[int, ...]]] = defaultdict(list)
        for g in itertools.permutations(range(sum(n))):
            self.cosets[self.classify(g)].append(g)

    def classify(self, g) -> Grid:
        nu = len(self.n)
        counts = [[0] * nu for _ in range(nu)]
        for x, y in enumerate(g):
            counts[self.block[x]][self.block[y]] += 1
        return tuple(tuple(row) for row in counts)

    def product(self, a: Grid, b: Grid) -> dict[Grid, Fraction]:
        g0 = self.cosets[a][0]
        members = self.cosets[b]
        counts: dict[Grid, int] = defaultdict(int)
        for h in members:
            counts[self.classify(tuple(h[x] for x in g0))] += 1
        return {c: Fraction(k, len(members)) for c, k in counts.items()}


# -- finite products -----------------------------------------------------------

def finite_product(a: Grid, b: Grid, n: tuple[int, ...], terms: dict[Grid, Fraction]) -> str | None:
    """Coefficients sum to 1, and coeff * mu(a) mu(b) / mu(c) is an integer in [1, min(mu(a), mu(b))].

    That integer counts the g in the a-coset with x0 o g^-1 in the b-coset,
    for a fixed x0 in the c-coset.
    """
    if not terms:
        return "empty product"
    total = sum(terms.values(), Fraction(0))
    if total != 1:
        return f"coefficients sum to {total}, not 1"
    mu_a, mu_b = coset_size(a, n), coset_size(b, n)
    for c, v in terms.items():
        if not is_margin_table(c, n):
            return f"target {c} is not a coset matrix for {n}"
        count = v * mu_a * mu_b / coset_size(c, n)
        if count.denominator != 1 or not 1 <= count <= min(mu_a, mu_b):
            return f"coefficient {v} of {c} gives pair count {count}"
    return None


def finite_table(n: tuple[int, ...], rows) -> str | None:
    """Every (a, b) over the whole basis appears, and each product passes ``finite_product``."""
    groups: dict[tuple[Grid, Grid], dict[Grid, Fraction]] = defaultdict(dict)
    for a, b, c, v in rows:
        if c in groups[a, b]:
            return f"target {c} repeated for ({a}, {b})"
        groups[a, b][c] = v
    size = len(margin_tables(n))
    if len(groups) != size * size:
        return f"{len(groups)} (a, b) pairs in the table, expected {size * size}"
    for (a, b), terms in groups.items():
        reason = finite_product(a, b, n, terms)
        if reason:
            return f"({a}, {b}): {reason}"
    return None


def transpose_symmetry(ab: dict[Grid, Fraction], bt_at: dict[Grid, Fraction]) -> str | None:
    """The coefficient of c in a*b equals that of c^T in b^T * a^T."""
    if {transpose(c): v for c, v in ab.items()} != bt_at:
        return "a*b and the transpose of b^T*a^T differ"
    return None


def oracle_agreement(terms: dict[Grid, Fraction], brute: dict[Grid, Fraction]) -> str | None:
    if terms != brute:
        return "product differs from the brute-force count"
    return None


# -- universal products --------------------------------------------------------

def universal_pair(a: Grid, b: Grid, n: tuple[int, ...], values: dict[Grid, Fraction],
                   order0: dict[Grid, Fraction], finite: dict[Grid, Fraction]) -> str | None:
    """Specialised values equal the finite constants of the embedded matrices,
    and the order-zero coefficient is 1 on a + b and 0 on every other target.

    ``values`` and ``order0`` map each target type to its value at eps_j = 1/n_j
    and to its eps-free coefficient; ``finite`` is the finite product of the
    embedded a and b at margins n.
    """
    target = add_types(a, b)
    if target not in order0:
        return "a + b is not among the targets"
    for c, v in order0.items():
        if v != (1 if c == target else 0):
            return f"order-zero coefficient {v} on {c}"
    expected = {}
    for c_matrix, v in finite.items():
        c = tuple(tuple(0 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(c_matrix))
        expected[c] = v
    for c, v in values.items():
        if embed(c, n) is None:
            if v != 0:
                return f"target {c} overflows {n} but specialises to {v}"
        elif v != expected.get(c, 0):
            return f"target {c} specialises to {v}, finite constant {expected.get(c, 0)}"
    missing = [c for c, v in expected.items() if v and c not in values]
    if missing:
        return f"finite target {missing[0]} has no universal constant"
    return None


def rebuilt_equal(original, rebuilt) -> str | None:
    """(num, den) of a constant and of its rebuild from num*D over D^2."""
    if original != rebuilt:
        return "rebuilding from num*D over D^2 changed the canonical form"
    return None


# -- identities -----------------------------------------------------------------

def zero_residual(residual: dict) -> str | None:
    if residual:
        return f"identity fails: residual has {len(residual)} nonzero terms"
    return None


def braid_report(checks: list[tuple[str, bool, dict]], nu: int) -> str | None:
    """Every relation holds with a zero commutator, and all instances are present."""
    expected = nu * (nu - 1) * (nu - 2) + (6 * len(list(itertools.combinations(range(nu), 4))))
    if len(checks) != expected:
        return f"{len(checks)} relations checked, expected {expected}"
    for relation, holds, commutator in checks:
        if not holds or commutator:
            return f"relation {relation} fails"
    return None


def ring_route(bracket: dict, via_ring: dict) -> str | None:
    if bracket != via_ring:
        return "poisson_bracket differs from the ring route"
    return None


# -- CLI calls --------------------------------------------------------------------

def _offdiag(items, nu: int) -> Grid:
    grid = [[0] * nu for _ in range(nu)]
    for i, j, v in items:
        grid[i - 1][j - 1] += v
    return tuple(tuple(r) for r in grid)


def cli_call(call: dict, code: int, stdout: bytes, expected=None) -> str | None:
    """Check one ``cosetalg`` call: its exit code and what its output must satisfy.

    ``call`` holds ``kind``, the documented exit code ``code`` and the parsed
    arguments; ``expected`` is the finite product a ``specialize`` call must
    match, computed by the benchmark.
    """
    if code != call["code"]:
        return f"exit code {code}, documented {call['code']}"
    text = stdout.decode()
    kind = call["kind"]
    try:
        if kind == "table":
            rows = []
            for line in text.splitlines():
                row = json.loads(line)
                rows.append((tuple(map(tuple, row["a"]["entries"])), tuple(map(tuple, row["b"]["entries"])),
                             tuple(map(tuple, row["c"]["entries"])), Fraction(row["coeff"])))
            return finite_table(call["n"], rows)
        return _CLI_CHECKS[kind](call, json.loads(text), expected)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"output not in the documented form: {exc!r}"


def _check_error(call, payload, expected):
    if not isinstance(payload, dict) or payload.get("error") != call["error"]:
        return f"expected JSON error {call['error']!r}, got {str(payload)[:80]}"
    return None


def _check_cosets(call, payload, expected):
    n = call["n"]
    got = [tuple(map(tuple, m["entries"])) for m in payload["matrices"]]
    if payload["count"] != len(got) or sorted(got) != sorted(margin_tables(n)):
        return "matrices differ from the enumeration by compositions"
    return None


def _check_mu(call, payload, expected):
    want = str(coset_size(call["matrix"], call["n"]))
    if payload != want:
        return f"mu {payload}, formula gives {want}"
    return None


def _check_product(call, payload, expected):
    n = call["n"]
    terms = {tuple(map(tuple, t["c"]["entries"])): Fraction(t["coeff"]) for t in payload["terms"]}
    return finite_product(call["a"], call["b"], n, terms)


def _check_verify_assoc(call, payload, expected):
    size = len(margin_tables(call["n"]))
    if payload["violations"] or payload["triples_checked"] != size ** 3:
        return f"{len(payload['violations'])} violations in {payload['triples_checked']} triples"
    return None


def _check_oracle(call, payload, expected):
    size = len(margin_tables(call["n"]))
    if payload["agree"] is not True or payload["pairs_checked"] != call["sample"] \
            or payload["triples"] != call["sample"] * size:
        return f"oracle-check reports {payload}"
    return None


def _check_universal(call, payload, expected):
    nu = call["nu"]
    target = add_types(call["a"], call["b"])
    seen = False
    for term in payload["terms"]:
        c = _offdiag(term["c"]["offdiag"], nu)
        const = sum((Fraction(t["coeff"]) for t in term["coeff"]["num"] if not any(t["deg"])), Fraction(0))
        if const != (1 if c == target else 0):
            return f"order-zero coefficient {const} on {c}"
        seen |= c == target
    if not seen:
        return "a + b is not among the targets"
    return None


def _check_specialize(call, payload, expected):
    nu = len(call["n"])
    got = {_offdiag(t["c"]["offdiag"], nu): Fraction(t["value"]) for t in payload["terms"]}
    want = {}
    for c_matrix, v in expected.items():
        want[tuple(tuple(0 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(c_matrix))] = v
    if got != want:
        return "specialised values differ from the finite constants"
    return None


def _check_braid(call, payload, expected):
    checks = [(c["relation"], c["holds"], c["commutator"]["terms"]) for c in payload["checks"]]
    if payload["all_hold"] is not True:
        return "braid-check reports a failed relation"
    return braid_report(checks, len(call["n"]))


def _check_nu2(call, payload, expected):
    if payload["agree"] is not True or set(payload["values"]) != {"sum", "closed", "eq3", "oracle"}:
        return f"nu2 reports {payload}"
    return None


def _check_poisson(call, payload, expected):
    # every universal product's constants sum to 1 identically in eps, so the
    # eps-linear part of a commutator has coefficients summing to 0
    total = sum((Fraction(t["coeff"]) for t in payload["terms"]), Fraction(0))
    if total:
        return f"bracket coefficients sum to {total}"
    return None


def _check_graded(call, payload, expected):
    nu = call["nu"]
    got = [(_offdiag(t["type"]["offdiag"], nu), t["coeff"]) for t in payload["terms"]]
    if got != [(add_types(call["a"], call["b"]), "1")]:
        return f"graded product {got}"
    return None


_CLI_CHECKS = {
    "error": _check_error,
    "cosets": _check_cosets,
    "mu": _check_mu,
    "product": _check_product,
    "verify-assoc": _check_verify_assoc,
    "oracle-check": _check_oracle,
    "universal": _check_universal,
    "specialize": _check_specialize,
    "braid-check": _check_braid,
    "nu2": _check_nu2,
    "poisson": _check_poisson,
    "graded": _check_graded,
}
