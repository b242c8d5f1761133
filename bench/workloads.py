"""The four workloads: seeded inputs, one operation at a time, and their checks.

Each workload builds a fixed list of operations from its seed: a round.
``run_op`` performs one operation through ``cosetalg``'s public API or its
CLI and returns the output.  ``check`` returns the failed operations of a
round with their reasons, and the failures of checks that belong to no
single operation; the checks themselves work on plain data, in ``checks``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from functools import lru_cache
from math import prod
from pathlib import Path

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).resolve().parent / "cli_probe.py"


def _strata(items: list, count: int) -> list[list]:
    size = len(items) / count
    return [items[round(k * size):round((k + 1) * size)] for k in range(count)]


def _splits(total: int, caps: tuple[int, ...]):
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for v in range(min(total, caps[0]) + 1):
        for rest in _splits(total - v, caps[1:]):
            yield (v,) + rest


@lru_cache(maxsize=None)
def tables(rows: tuple[int, ...], cols: tuple[int, ...], capped: bool = False) -> int:
    """Nonnegative integer tables with the given column sums and row sums
    (or row sums at most ``rows``, when ``capped``)."""
    if not cols:
        return int(capped or not any(rows))
    total = 0
    for used in range(cols[0] + 1) if capped else (cols[0],):
        for split in _splits(used, rows):
            total += tables(tuple(r - x for r, x in zip(rows, split)), cols[1:], capped)
    return total


def finite_tensors(a, b) -> int:
    """3-tensors with a- and b-slices a, b: the constraints separate by the
    middle index j into one table per j, with row sums a_.j and column sums b_j."""
    nu = len(a)
    return prod(tables(tuple(a[i][j] for i in range(nu)), tuple(b[j][k] for k in range(nu)))
                for j in range(nu))


def universal_tensors(a, b) -> int:
    """Free cells the universal enumeration fills: per j, column sums b_jk (k != j)
    with row i != j capped by a_ij and row j unbounded."""
    nu = len(a)
    return prod(tables(tuple(a[i][j] for i in range(nu) if i != j),
                       tuple(b[j][k] for k in range(nu) if k != j), True)
                for j in range(nu))


def quantile_pick(items: list, count: int, rng: random.Random) -> list:
    """One item from each of ``count`` equal strata of the sorted items.

    Items sort by a predicted cost first, so every seed gets nearly the same
    spread of cheap and expensive operations while the items themselves
    change with the seed.  Each comes from the middle third of its stratum,
    so that one rare item cannot dominate a run.
    """
    chosen = []
    for stratum in _strata(sorted(items), count):
        third = len(stratum) // 3
        chosen.append(rng.choice(stratum[third:len(stratum) - third]))
    return chosen


def quantile_pairs(pool: list[tuple], count: int, cost, rng: random.Random,
                   budget: int | None = None) -> list[tuple]:
    """``quantile_pick`` over pairs ranked by their tensor count, which predicts
    an operation's time closely; pairs over ``budget`` tensors are left out."""
    ranked = [(cost(a.entries, b.entries), a.entries, b.entries, a, b) for a, b in pool]
    if budget is not None:
        ranked = [r for r in ranked if r[0] <= budget]
    return [r[3:] for r in quantile_pick(ranked, count, rng)]


def _offdiag_arg(t) -> str:
    nu = len(t)
    return ",".join(f"{i + 1},{j + 1},{t[i][j]}" for i in range(nu) for j in range(nu) if i != j and t[i][j])


def _matrix_arg(m) -> str:
    return ",".join(str(v) for row in m for v in row)


def grid_types(nu: int, entry_max: int):
    """Balanced off-diagonal types with entries <= entry_max, as the off-diagonal
    parts of the coset matrices at margins ((nu-1)*entry_max, ...), where all fit."""
    from cosetalg import Margins, enumerate_coset_matrices, strip_diagonal

    found = {
        strip_diagonal(m)
        for m in enumerate_coset_matrices(Margins((entry_max * (nu - 1),) * nu))
        if all(m.entries[i][j] <= entry_max for i in range(nu) for j in range(nu) if i != j)
    }
    return sorted(found, key=lambda t: (sum(map(sum, t.entries)), t.entries))


def fit_margins(a, b) -> tuple[int, ...]:
    return tuple(max(1, x, y) for x, y in zip(checks.stars(a.entries), checks.stars(b.entries)))


class Workload:
    name: str
    ops: list
    warm = False    # rounds reuse caches filled during set-up, instead of starting cold

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Finite(Workload):
    """Cold basis-pair products at (3,3,3,3) and (4,4,4,4), and the table at (3,3,3)."""

    name = "finite"
    pairs = {(3, 3, 3, 3): 40, (4, 4, 4, 4): 88}
    pool = 8000

    def __init__(self, seed: int):
        from cosetalg import Margins, enumerate_coset_matrices

        rng = random.Random(f"finite:{seed}")
        self.ops = []
        for n, count in self.pairs.items():
            basis = enumerate_coset_matrices(Margins(n))
            pool = [(rng.choice(basis), rng.choice(basis)) for _ in range(self.pool)]
            self.ops += [("pair", a, b) for a, b in quantile_pairs(pool, count, finite_tensors, rng)]
        self.ops.append(("table", Margins((3, 3, 3))))
        rng.shuffle(self.ops)
        self.rng = rng

    def run_op(self, op, tracer):
        from cosetalg import AlgebraElement, multiply, product_table

        if op[0] == "pair":
            _, a, b = op
            product = multiply(AlgebraElement.basis(a), AlgebraElement.basis(b))
            return {c.entries: v for c, v in product.terms.items()}
        return [(a.entries, b.entries, c.entries, v) for a, b, c, v in product_table(op[1])]

    def check(self, outputs, tracer):
        from cosetalg import AlgebraElement, Margins, enumerate_coset_matrices, multiply

        failed = {}
        pair_ops = []
        for k, (op, out) in enumerate(zip(self.ops, outputs)):
            if op[0] == "pair":
                _, a, b = op
                reason = checks.finite_product(a.entries, b.entries, a.margins.n, out)
                pair_ops.append(k)
            else:
                reason = checks.finite_table(op[1].n, out)
            if reason:
                failed[k] = reason
        for k in self.rng.sample(pair_ops, 8):
            _, a, b = self.ops[k]
            flipped = multiply(AlgebraElement.basis(b.transpose()), AlgebraElement.basis(a.transpose()))
            reason = checks.transpose_symmetry(outputs[k], {c.entries: v for c, v in flipped.terms.items()})
            if reason:
                failed[k] = reason
        # brute force needs N <= 8, below the workload's margins: check the
        # same product code on a seeded sample at (2,2,2,2)
        n = (2, 2, 2, 2)
        brute = checks.BruteForce(n)
        basis = enumerate_coset_matrices(Margins(n))
        extra = []
        for _ in range(8):
            a, b = self.rng.choice(basis), self.rng.choice(basis)
            terms = multiply(AlgebraElement.basis(a), AlgebraElement.basis(b)).terms
            reason = checks.oracle_agreement({c.entries: v for c, v in terms.items()},
                                             brute.product(a.entries, b.entries))
            if reason:
                extra.append(f"{n} {a.entries} {b.entries}: {reason}")
        return failed, extra


class Universal(Workload):
    """Cold universal products on the nu=3 and nu=4 grids, specialised and expanded."""

    name = "universal"
    pairs = {(3, 2): 60, (4, 1): 24}    # (nu, largest entry): operations
    # no work bound exists in the package: a pair costs about 0.45 ms per
    # tensor, and the largest on the nu=4 grid (1,336,336 tensors) runs for
    # minutes, so pairs over this many tensors are left out
    budget = 2000
    rebuilt_per_pair = 12

    def __init__(self, seed: int):
        rng = random.Random(f"universal:{seed}")
        self.ops = []
        for (nu, entry_max), count in self.pairs.items():
            types = grid_types(nu, entry_max)
            pool = [(a, b) for a in types for b in types]
            self.ops += [("pair", a, b)
                         for a, b in quantile_pairs(pool, count, universal_tensors, rng, self.budget)]
        rng.shuffle(self.ops)

    def run_op(self, op, tracer):
        from cosetalg import Margins, universal_product

        _, a, b = op
        margins = Margins(fit_margins(a, b))
        product = universal_product(a, b)
        values, order0 = {}, {}
        for c, coeff in product.items():
            values[c.entries] = coeff.specialize(margins)
            order0[c.entries] = coeff.expand(1).coefficient((0,) * a.nu)
        return product, values, order0

    def check(self, outputs, tracer):
        from cosetalg import AlgebraElement, EpsRingElement, Margins, embed_offdiagonal, multiply

        failed = {}
        for k, (op, (product, values, order0)) in enumerate(zip(self.ops, outputs)):
            _, a, b = op
            margins = Margins(fit_margins(a, b))
            finite = multiply(AlgebraElement.basis(embed_offdiagonal(a, margins)),
                              AlgebraElement.basis(embed_offdiagonal(b, margins)))
            reason = checks.universal_pair(a.entries, b.entries, margins.n, values, order0,
                                           {c.entries: v for c, v in finite.terms.items()})
            # the rebuild costs about as much as the product: probe a fixed
            # share, the first targets of each pair in sorted order
            for c in sorted(product, key=lambda t: t.entries)[:self.rebuilt_per_pair]:
                if reason:
                    break
                coeff = product[c]
                doubled = {key: 2 * m for key, m in coeff.den.items()}
                num = coeff.num * coeff.den_polynomial()
                with tracer.span("epsring.canonicalize"):
                    rebuilt = EpsRingElement(a.nu, num, doubled)
                reason = checks.rebuilt_equal((coeff.num.terms, coeff.den), (rebuilt.num.terms, rebuilt.den))
            if reason:
                failed[k] = reason
        extra = [f"grid nu={nu}, entries <= {m}: coset route differs from brute force"
                 for nu, m in self.pairs
                 if sorted(t.entries for t in grid_types(nu, m)) != checks.balanced_types(nu, m)]
        return failed, extra


def _shift_targets(a, b) -> int:
    """Cells (alpha, j, gamma), alpha, gamma != j, with a_{alpha j} b_{j gamma} > 0:
    the shifted targets of the eps_j-linear part of a*b, which size {a, b}."""
    nu = len(a)
    return sum(1 for j in range(nu) for al in range(nu) if al != j and a[al][j]
               for g in range(nu) if g != j and b[j][g])


class Identities(Workload):
    """Identity instances on the nu=3 grid (Poisson antisymmetry, Jacobi, Leibniz),
    associativity at (2,2,2) and the braid relations at (3,3,3,3)."""

    name = "identities"
    kinds = {"antisymmetry": 100, "jacobi": 150, "leibniz": 60}
    warm = True

    def __init__(self, seed: int):
        from cosetalg import GradedElement, Margins, enumerate_coset_matrices

        rng = random.Random(f"identities:{seed}")
        # the unit type is left out: every bracket with it is zero
        self.types = grid_types(3, 2)[1:]
        elems = [GradedElement.basis(t) for t in self.types]
        grids = [t.entries for t in self.types]
        n = len(grids)
        # predicted cost: bracket sizes, from the shifted-target count
        size = [[_shift_targets(grids[i], grids[j]) + _shift_targets(grids[j], grids[i])
                 for j in range(n)] for i in range(n)]
        cells = [sum(1 for row in g for v in row if v) for g in grids]
        pairs = [(size[i][j], i, j) for i, j in itertools.combinations(range(n), 2)]
        triples = [(size[j][k] * cells[i] + size[k][i] * cells[j] + size[i][j] * cells[k], i, j, k)
                   for i, j, k in itertools.combinations(range(n), 3)]
        leibniz = [((size[i][j] + size[i][k]) * (cells[j] + cells[k]), i, j, k)
                   for i, j, k in rng.sample(list(itertools.permutations(range(n), 3)), 5000)]
        self.ops = [("antisymmetry", elems[i], elems[j])
                    for _, i, j in quantile_pick(pairs, self.kinds["antisymmetry"], rng)]
        self.ops += [("jacobi", elems[i], elems[j], elems[k])
                     for _, i, j, k in quantile_pick(triples, self.kinds["jacobi"], rng)]
        self.ops += [("leibniz", elems[i], elems[j], elems[k])
                     for _, i, j, k in quantile_pick(leibniz, self.kinds["leibniz"], rng)]
        basis = enumerate_coset_matrices(Margins((2, 2, 2)))
        self.ops += [("assoc", *[rng.choice(basis) for _ in range(3)]) for _ in range(60)]
        self.ops.append(("braid", Margins((3, 3, 3, 3))))
        rng.shuffle(self.ops)
        self.rng = rng
        # identities are checked on products a caller has already computed:
        # one pass fills the caches, as part of the set-up
        for op in self.ops:
            self.run_op(op, tracing.Tracer())

    def run_op(self, op, tracer):
        from cosetalg import AlgebraElement, check_relations, graded_multiply, multiply, poisson_bracket

        kind = op[0]
        if kind == "antisymmetry":
            _, x, y = op
            return (poisson_bracket(x, y) + poisson_bracket(y, x)).terms
        if kind == "jacobi":
            _, x, y, z = op
            total = (poisson_bracket(x, poisson_bracket(y, z))
                     + poisson_bracket(y, poisson_bracket(z, x))
                     + poisson_bracket(z, poisson_bracket(x, y)))
            return total.terms
        if kind == "leibniz":
            _, x, y, z = op
            lhs = poisson_bracket(x, graded_multiply(y, z))
            rhs = graded_multiply(poisson_bracket(x, y), z) + graded_multiply(y, poisson_bracket(x, z))
            return (lhs - rhs).terms
        if kind == "assoc":
            with tracer.span("algebra.assoc"):
                a, b, c = (AlgebraElement.basis(m) for m in op[1:])
                return (multiply(multiply(a, b), c) - multiply(a, multiply(b, c))).terms
        report = check_relations(op[1])
        return [(c.relation, c.holds, c.commutator.terms) for c in report.checks]

    def check(self, outputs, tracer):
        from cosetalg import GradedElement, poisson_bracket
        from cosetalg.poisson import poisson_bracket_via_ring

        failed = {}
        for k, (op, out) in enumerate(zip(self.ops, outputs)):
            if op[0] == "braid":
                reason = checks.braid_report(out, op[1].nu)
            else:
                reason = checks.zero_residual(out)
            if reason:
                failed[k] = reason
        extra = []
        for _ in range(8):
            a, b = self.rng.sample(self.types, 2)
            reason = checks.ring_route(
                poisson_bracket(GradedElement.basis(a), GradedElement.basis(b)).terms,
                poisson_bracket_via_ring(a, b).terms)
            if reason:
                extra.append(f"{a.entries} {b.entries}: {reason}")
        return failed, extra


class Cli(Workload):
    """A seeded sequence of ``cosetalg`` calls, one fresh process each."""

    name = "cli"

    def __init__(self, seed: int):
        from cosetalg import Margins, enumerate_coset_matrices

        rng = random.Random(f"cli:{seed}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        basis333 = [m.entries for m in enumerate_coset_matrices(Margins((3, 3, 3)))]
        basis3333 = [m.entries for m in enumerate_coset_matrices(Margins((3, 3, 3, 3)))]
        grid = grid_types(3, 2)
        types = [t.entries for t in grid]
        calls = []

        def add(kind, argv, code=0, **info):
            calls.append(dict(kind=kind, argv=[str(x) for x in argv], code=code, **info))

        for n in rng.sample([(2, 2, 2), (1, 2, 3), (2, 3, 3), (1, 1, 2, 2), (3, 3, 3)], 2):
            add("cosets", ["cosets", "--n", ",".join(map(str, n))], n=n)
        for _ in range(6):
            m = rng.choice(basis333)
            add("mu", ["mu", "--n", "3,3,3", "--matrix", _matrix_arg(m)], n=(3, 3, 3), matrix=m)
        for _ in range(4):
            a, b = rng.choice(basis3333), rng.choice(basis3333)
            add("product", ["product", "--n", "3,3,3,3", "--a", _matrix_arg(a), "--b", _matrix_arg(b)],
                n=(3, 3, 3, 3), a=a, b=b)
        add("table", ["table", "--n", "3,3,3"], n=(3, 3, 3))
        n = rng.choice([(2, 3), (3, 3), (1, 1, 2)])
        add("verify-assoc", ["verify-assoc", "--n", ",".join(map(str, n))], n=n)
        # the CLI's own --seed picks the sampled pairs, whose cost varies
        # fivefold, so it stays fixed
        add("oracle-check", ["--seed", 0, "oracle-check", "--n", "3,5", "--sample", 2], n=(3, 5), sample=2)
        pool = [(t, u) for t in grid for u in grid]
        for kind, count in (("universal", 5), ("specialize", 4), ("poisson", 4), ("graded", 4)):
            for a, b in quantile_pairs(pool, count, universal_tensors, rng, Universal.budget):
                a, b = a.entries, b.entries
                ab = ["--a", _offdiag_arg(a), "--b", _offdiag_arg(b)]
                if kind == "specialize":
                    n = tuple(max(1, x, y) + rng.randint(0, 1)
                              for x, y in zip(checks.stars(a), checks.stars(b)))
                    add(kind, [kind, "--n", ",".join(map(str, n))] + ab, n=n, a=a, b=b)
                else:
                    add(kind, [kind, "--nu", 3] + ab, nu=3, a=a, b=b)
        add("braid-check", ["braid-check", "--n", "3,3,3,3"], n=(3, 3, 3, 3))
        for total in (8, 6):
            n1 = rng.randint(2, total - 2)
            top = min(n1, total - n1)
            a, b, c = (rng.randint(0, top) for _ in range(3))
            add("nu2", ["nu2", "s", "--a", a, "--b", b, "--c", c, "--n1", n1, "--n2", total - n1])
        # documented error paths
        for _ in range(2):
            a = rng.choice([t for t in types if max(checks.stars(t)) >= 2])
            s = checks.stars(a)
            j = s.index(max(s))
            n = tuple(x - 1 if i == j else max(1, x) for i, x in enumerate(s))
            add("error", ["specialize", "--n", ",".join(map(str, n)), "--a", _offdiag_arg(a), "--b", ""],
                code=1, error="margin-overflow")
        add("error", ["oracle-check", "--n", "3,3,3", "--sample", 1], code=1, error="limit-exceeded")
        # one real row and six zeros: the column sums miss the margins
        m = list(rng.choice(basis333)[0]) + [0] * 6
        add("error", ["mu", "--n", "3,3,3", "--matrix", _matrix_arg([m])], code=1, error="usage")
        # nu < 1 is meaningless and should be refused as a usage error; the
        # CLI accepts it today, so these calls fail on every run
        add("error", ["universal", "--nu", 0, "--a", "", "--b", ""], code=1, error="usage")
        add("error", ["universal", "--nu", 0, "--a", "", "--b", "", "--c", ""], code=1, error="usage")
        rng.shuffle(calls)
        self.ops = calls
        self.peak_kb = 0

    def run_op(self, call, tracer):
        """Run one call and return its exit code and stdout.

        A traced call runs under ``cli_probe.py``, which reports its start-up,
        import and per-layer times; they are added to ``tracer``.
        """
        if tracer.enabled:
            argv = [sys.executable, str(PROBE), repr(time.time())] + call["argv"]
        else:
            argv = [sys.executable, "-m", "cosetalg.cli"] + call["argv"]
        started = time.perf_counter()
        with tracer.span("cli.call"), subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE if tracer.enabled else subprocess.DEVNULL) as proc:
            stdout = proc.stdout.read()
            # stderr carries at most a usage message and one trace line, far
            # below a pipe's buffer, so reading it second cannot block the child
            stderr = proc.stderr.read() if tracer.enabled else b""
            # reap the child here, not in Popen, to get its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - started
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if tracer.enabled:
            lines = stderr.decode().splitlines()
            if not (lines and lines[-1].startswith(tracing.MARKER)):
                raise RuntimeError(f"no trace from cosetalg {' '.join(call['argv'])}")
            child = json.loads(lines[-1][len(tracing.MARKER):])
            startup, imported = child.pop("cli.startup_ms"), child.pop("cli.import_ms")
            compute = sum(v for k, v in child.items() if k.endswith("_s"))
            for key, value in child.items():
                if key.endswith("_s"):
                    tracer.self_s[key[:-2]] += value
                else:
                    tracer.counts[key] += value
            tracer.self_s["cli.compute"] += compute
            tracer.self_s["cli.overhead"] += seconds - (startup + imported) / 1e3 - compute
            tracer.samples["cli.startup_ms"].append(startup)
            tracer.samples["cli.import_ms"].append(imported)
            tracer.count({"cli.calls": 1, "cli.stdout_bytes": len(stdout)})
        return proc.returncode, stdout

    def peak_rss_kb(self) -> int:
        """The largest child: each call is its own process."""
        return self.peak_kb

    @staticmethod
    def expected(call):
        """The finite product that a ``specialize`` call must reproduce."""
        if call["kind"] != "specialize":
            return None
        from cosetalg import AlgebraElement, CosetMatrix, Margins, multiply

        margins = Margins(call["n"])
        a, b = (CosetMatrix(checks.embed(t, call["n"]), margins) for t in (call["a"], call["b"]))
        product = multiply(AlgebraElement.basis(a), AlgebraElement.basis(b))
        return {c.entries: v for c, v in product.terms.items()}

    def check(self, outputs, tracer):
        failed = {}
        for k, (call, (code, stdout)) in enumerate(zip(self.ops, outputs)):
            reason = checks.cli_call(call, code, stdout, self.expected(call))
            if reason:
                failed[k] = f"cosetalg {' '.join(call['argv'])}: {reason}"
        return failed, []


WORKLOADS = {w.name: w for w in (Finite, Universal, Identities, Cli)}
