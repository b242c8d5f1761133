"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every check is exact rational arithmetic; there are no
tolerances anywhere.
"""

import itertools
import time
from fractions import Fraction
from math import factorial

import pytest

from cosetalg import (
    AlgebraElement,
    EpsPolynomial,
    EpsRingElement,
    GradedElement,
    Margins,
    OffDiagonalType,
    PoleAtSpecialization,
    check_relations,
    coset_size,
    enumerate_coset_matrices,
    graded_multiply,
    multiply,
    poisson_bracket,
    s_closed_form,
    s_eq3,
    s_oracle,
    s_sum,
    universal_product,
    universal_structure_constant,
)
from cosetalg.oracle import coset_partition, oracle_product
from cosetalg.poisson import _order_one_linear

from helpers import (
    balanced_types,
    commutator_witness,
    displayed_product_targets,
    finite_constant_via_embedding,
    lemma3_checks,
    universal_s,
)

ORACLE_MARGINS = [
    (1, 1), (2, 2), (2, 3), (3, 3), (1, 1, 2),
    (2, 2, 2), (1, 2, 3), (1, 1, 1, 1), (2, 1, 1, 2),
]


def _report(num, label, started, budget):
    elapsed = time.time() - started
    print(f"PASS criterion {num}: {label} ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_oracle_equivalence():
    started = time.time()
    total_triples = 0
    for n in ORACLE_MARGINS:
        margins = Margins(n)
        basis = enumerate_coset_matrices(margins)
        for a in basis:
            for b in basis:
                got = multiply(
                    AlgebraElement.basis(a), AlgebraElement.basis(b)
                ).terms
                assert got == oracle_product(a, b), (n, a.entries, b.entries)
                total_triples += len(basis)
    _report(1, f"structure constants equal the oracle on {total_triples} triples "
               f"over {len(ORACLE_MARGINS)} margin families", started, 60)


def test_criterion_2_coset_census():
    started = time.time()
    for n in ORACLE_MARGINS:
        margins = Margins(n)
        basis = enumerate_coset_matrices(margins)
        assert sum(coset_size(m) for m in basis) == factorial(margins.N)
        part = coset_partition(margins)
        assert set(part) == set(basis)
        for m in basis:
            assert len(part[m]) == coset_size(m)
    _report(2, "coset sizes sum to N! and every fiber matches its size", started, 30)


def test_criterion_3_associativity():
    from cosetalg import verify_associativity

    started = time.time()
    covered = []
    for n in ORACLE_MARGINS:
        margins = Margins(n)
        if len(enumerate_coset_matrices(margins)) > 12:
            continue
        report = verify_associativity(margins)
        assert report.ok, n
        covered.append(n)
    assert covered == [(1, 1), (2, 2), (2, 3), (3, 3), (1, 1, 2), (1, 2, 3)]
    _report(3, f"exhaustive associativity at margins {covered}", started, 60)


def test_criterion_4_braid_relations():
    started = time.time()
    for n in [(2, 2, 2), (1, 2, 3), (3, 3, 3)]:
        margins = Margins(n)
        report = check_relations(margins)
        eights = [c for c in report.checks if c.relation == "(8)"]
        assert len(eights) == 6 and all(c.holds for c in eights), n
        # displayed product pattern and commutator witness at every triple
        for i, j, k in itertools.permutations((1, 2, 3), 3):
            nj = margins.n[j - 1]
            prod, chain, cycle = displayed_product_targets(i, j, k, margins)
            if nj >= 2:
                assert prod.terms == {
                    chain: Fraction(nj - 1, nj),
                    cycle: Fraction(1, nj),
                }
            else:
                assert chain is None
                assert prod.terms == {cycle: Fraction(1)}
            w = commutator_witness(i, j, k, margins)
            reverse = cycle.transpose()
            assert w.terms == {cycle: Fraction(1, nj), reverse: Fraction(-1, nj)}
    for n in [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2)]:
        report = check_relations(Margins(n))
        nines = [c for c in report.checks if c.relation == "(9)"]
        assert nines and all(c.holds for c in nines), n
    _report(4, "relations (8) and (9) hold with the exact displayed "
               "coefficient patterns", started, 30)


def test_criterion_5_specialization():
    started = time.time()
    checked = 0
    for n in [(2, 2), (2, 3), (3, 3), (1, 2, 2), (2, 2, 2)]:
        margins = Margins(n)
        types = balanced_types(margins.nu, max(n), star_caps=n)
        for a in types:
            for b in types:
                for c, coeff in universal_product(a, b).items():
                    value = coeff.specialize(margins)
                    if any(c.star(j) > n[j] for j in range(margins.nu)):
                        assert value == 0, (n, a.entries, b.entries, c.entries)
                    else:
                        assert value == finite_constant_via_embedding(a, b, c, margins)
                    checked += 1
    _report(5, f"universal constants specialize to the finite algebra "
               f"({checked} constants)", started, 60)


def test_criterion_6_pole_reproduction():
    started = time.time()
    for a in range(6):
        def tb(v):
            return OffDiagonalType(((0, v), (v, 0)))

        den = {}
        for m in range(1, a):
            den[(0, m)] = 1
            den[(1, m)] = 1
        closed = EpsRingElement(
            2, EpsPolynomial.monomial(2, (a, a), factorial(a) ** 2), den
        )
        assert universal_structure_constant(tb(a), tb(a), tb(0)) == closed
        assert universal_s(a, a, 0) == closed
    # specialization beyond the margins hits the factor (1 - n_j eps_j)
    for a, n in [(3, (2, 5)), (4, (5, 3)), (5, (4, 4))]:
        with pytest.raises(PoleAtSpecialization) as err:
            universal_s(a, a, 0).specialize(Margins(n))
        assert err.value.m == n[err.value.j - 1]
    _report(6, "diagonal-free constants match the closed form and "
               "overflow poles are named", started, 30)


def test_criterion_7_exponent_bounds():
    started = time.time()
    pairs = 0
    for nu in (1, 2, 3):
        types = balanced_types(nu, 2)
        for a in types:
            for b in types:
                assert lemma3_checks(a.entries, b.entries)[1] == [], (a.entries, b.entries)
                pairs += 1
    _report(7, f"exponent nonnegativity and the zero-exponent criterion "
               f"hold for {pairs} pairs", started, 60)


def test_criterion_8_two_block_hypergeometrics():
    started = time.time()
    checked = 0
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            top = min(n1, n2)
            use_oracle = n1 + n2 <= 7
            for a in range(top + 1):
                for b in range(top + 1):
                    for c in range(top + 1):
                        v = s_sum(a, b, c, n1, n2)
                        assert v == s_closed_form(a, b, c, n1, n2)
                        assert v == s_eq3(a, b, c, n1, n2)
                        if use_oracle:
                            assert v == s_oracle(a, b, c, n1, n2)
                        checked += 1
    quadruples = 0
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            rng = range(min(n1, n2) + 1)
            for a, b, c, d in itertools.product(rng, repeat=4):
                lhs = sum(
                    s_closed_form(a, b, g, n1, n2) * s_closed_form(g, c, d, n1, n2)
                    for g in rng
                )
                rhs = sum(
                    s_closed_form(a, g, d, n1, n2) * s_closed_form(b, c, g, n1, n2)
                    for g in rng
                )
                assert lhs == rhs, (n1, n2, a, b, c, d)
                quadruples += 1
    _report(8, f"sum, closed form, tensor sum and oracle agree ({checked} "
               f"constants); associativity identity holds ({quadruples} cases)",
            started, 120)


def test_criterion_9_graded_poisson():
    started = time.time()
    # grid: every balanced type with entries <= 2, nu <= 3
    grids = {nu: balanced_types(nu, 2) for nu in (1, 2, 3)}

    # order zero of every universal product is the entrywise index sum, and
    # the order-one coefficients agree with the closed accumulation that the
    # bracket uses, tying the fast path to the ring on the whole grid
    for nu, types in grids.items():
        for a in types:
            for b in types:
                prod = universal_product(a, b)
                lin = _order_one_linear(a.entries, b.entries)
                seen_linear = {j: {} for j in range(nu)}
                for c, coeff in prod.items():
                    series = coeff.expand(1)
                    assert series.coefficient((0,) * nu) == (
                        1 if c == a + b else 0
                    )
                    for j in range(nu):
                        deg = tuple(1 if t == j else 0 for t in range(nu))
                        v = series.coefficient(deg)
                        if v:
                            seen_linear[j][c.entries] = v
                for j in range(nu):
                    assert seen_linear[j] == lin[j], (a.entries, b.entries, j)

    # bracket axioms on the full nu = 3 grid (smaller nu are commutative)
    basis3 = [GradedElement.basis(t) for t in grids[3]]
    brackets = {}
    for xi, x in enumerate(basis3):
        for yi, y in enumerate(basis3):
            brackets[xi, yi] = poisson_bracket(x, y)
    for xi, x in enumerate(basis3):
        assert brackets[xi, xi].is_zero()
        for yi in range(len(basis3)):
            assert brackets[xi, yi] == (-1) * brackets[yi, xi]
    for nu in (1, 2):
        for a in grids[nu]:
            for b in grids[nu]:
                assert poisson_bracket(
                    GradedElement.basis(a), GradedElement.basis(b)
                ).is_zero()

    # Jacobi: with antisymmetry established exhaustively above, triples with
    # a repeated argument cancel pairwise, so distinct unordered triples and
    # a direct sample of repeated ones cover every instance
    count = len(basis3)
    for xi, yi, zi in itertools.combinations(range(count), 3):
        x, y, z = basis3[xi], basis3[yi], basis3[zi]
        total = (
            poisson_bracket(x, brackets[yi, zi])
            + poisson_bracket(y, brackets[zi, xi])
            + poisson_bracket(z, brackets[xi, yi])
        )
        assert total.is_zero(), (xi, yi, zi)
    for xi, yi in itertools.islice(itertools.combinations(range(count), 2), 200):
        x, y = basis3[xi], basis3[yi]
        total = (
            poisson_bracket(x, brackets[xi, yi])
            + poisson_bracket(x, poisson_bracket(y, x))
            + poisson_bracket(y, brackets[xi, xi])
        )
        assert total.is_zero()

    # Leibniz: x against every unordered product pair (repeats included)
    products = {
        (yi, zi): graded_multiply(basis3[yi], basis3[zi])
        for yi in range(count)
        for zi in range(yi, count)
    }
    for xi, x in enumerate(basis3):
        for (yi, zi), yz in products.items():
            lhs = poisson_bracket(x, yz)
            rhs = graded_multiply(brackets[xi, yi], basis3[zi]) + graded_multiply(
                basis3[yi], brackets[xi, zi]
            )
            assert lhs == rhs
    _report(9, "graded limit, antisymmetry, Jacobi and Leibniz verified on "
               "the full grid", started, 120)
