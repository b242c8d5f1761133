import itertools
import random
from fractions import Fraction

import pytest

from cosetalg import (
    GradedElement,
    OffDiagonalType,
    graded_multiply,
    poisson,
    poisson_bracket,
    poisson_bracket_via_ring,
    universal_product,
)

from helpers import balanced_types, reference_bracket, type_monomial


def tb(v):
    return OffDiagonalType(((0, v), (v, 0)))


def first_order_term(a, b):
    """Coefficient of each eps_j (1-based j) in the product of basis types a, b.

    Computed by expanding every exact product coefficient to total degree
    one; no transcribed formula is involved.
    """
    nu = a.nu
    out = {j + 1: GradedElement.zero(nu) for j in range(nu)}
    for target, coeff in universal_product(a, b).items():
        series = coeff.expand(1)
        for j in range(nu):
            v = series.coefficient(tuple(1 if t == j else 0 for t in range(nu)))
            if v:
                out[j + 1] = out[j + 1] + GradedElement(nu, {target: v})
    return out


def first_order_shift_formula(a, b):
    """The pure shifted-target sum, without the diagonal correction on a + b.

    For each variable j this is sum over alpha, gamma != j of
    a_{alpha j} b_{j gamma} on a + b + E_{alpha gamma} - E_{alpha j} - E_{j gamma}.
    It differs from the true first-order coefficient by the correction term
    -a*_jj b*_jj on a + b.
    """
    nu = a.nu
    base = (a + b).entries
    out = {}
    for j in range(nu):
        acc = {}
        for alpha in range(nu):
            if alpha == j or a.entries[alpha][j] == 0:
                continue
            for gamma in range(nu):
                if gamma == j or b.entries[j][gamma] == 0:
                    continue
                tgt = poisson._shift_target(base, alpha, j, gamma)
                acc[tgt] = acc.get(tgt, 0) + a.entries[alpha][j] * b.entries[j][gamma]
        out[j + 1] = GradedElement(nu, acc)
    return out


def test_graded_unit():
    zero = OffDiagonalType.zero(3)
    for t in balanced_types(3, 1):
        x = GradedElement.basis(t)
        assert graded_multiply(GradedElement.basis(zero), x) == x


def test_graded_commutative_and_adds_indices():
    for a in balanced_types(2, 2):
        for b in balanced_types(2, 2):
            xy = graded_multiply(GradedElement.basis(a), GradedElement.basis(b))
            yx = graded_multiply(GradedElement.basis(b), GradedElement.basis(a))
            assert xy == yx == GradedElement.basis(a + b)


def test_graded_equals_order_zero_of_universal():
    for a in balanced_types(2, 2):
        for b in balanced_types(2, 2):
            prod = universal_product(a, b)
            want = graded_multiply(GradedElement.basis(a), GradedElement.basis(b))
            for c, coeff in prod.items():
                assert coeff.expand(0).coefficient((0, 0)) == want.coefficient(c)


def test_first_order_zero_for_unit_factor():
    zero3 = OffDiagonalType.zero(3)
    for t in balanced_types(3, 1):
        for a, b in [(zero3, t), (t, zero3)]:
            assert all(g.is_zero() for g in first_order_term(a, b).values())


def test_first_order_two_block():
    # product of the two unit-cross types: coefficients were expanded by hand
    out = first_order_term(tb(1), tb(1))
    assert out[1] == GradedElement(2, {tb(1): Fraction(1), tb(2): Fraction(-1)})
    assert out[2] == GradedElement(2, {tb(1): Fraction(1), tb(2): Fraction(-1)})


def test_first_order_is_shift_formula_plus_diagonal_correction():
    pool = balanced_types(3, 1) + [t + t for t in balanced_types(3, 1)]
    for a in pool[:8]:
        for b in pool[:8]:
            got = first_order_term(a, b)
            shift = first_order_shift_formula(a, b)
            base = GradedElement.basis(a + b)
            for j in range(1, 4):
                corr = Fraction(a.star(j - 1) * b.star(j - 1))
                assert got[j] == shift[j] - corr * base


def test_first_order_antisymmetrization_is_bracket():
    pool = balanced_types(3, 2)
    rng = random.Random(3)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(6)]
    for a, b in pairs:
        fwd = first_order_term(a, b)
        bwd = first_order_term(b, a)
        total = GradedElement.zero(3)
        for j in range(1, 4):
            total = total + (fwd[j] - bwd[j])
        assert total == poisson_bracket(GradedElement.basis(a), GradedElement.basis(b))


def test_bracket_alternating_and_antisymmetric():
    pool = balanced_types(3, 1)
    for a in pool:
        xa = GradedElement.basis(a)
        assert poisson_bracket(xa, xa).is_zero()
        for b in pool:
            xb = GradedElement.basis(b)
            assert poisson_bracket(xa, xb) == (-1) * poisson_bracket(xb, xa)


def test_bracket_matches_ring_route():
    pool2 = balanced_types(2, 2)
    for a in pool2:
        for b in pool2:
            assert poisson_bracket(
                GradedElement.basis(a), GradedElement.basis(b)
            ) == poisson_bracket_via_ring(a, b)
    pool3 = balanced_types(3, 2)
    rng = random.Random(11)
    for _ in range(10):
        a, b = rng.choice(pool3), rng.choice(pool3)
        assert poisson_bracket(
            GradedElement.basis(a), GradedElement.basis(b)
        ) == poisson_bracket_via_ring(a, b)


def test_two_block_brackets_vanish():
    # the two-block algebra is commutative, so every bracket is zero
    for a in balanced_types(2, 2):
        for b in balanced_types(2, 2):
            assert poisson_bracket(GradedElement.basis(a), GradedElement.basis(b)).is_zero()


def test_bracket_bilinear():
    pool = balanced_types(3, 1)
    a, b, c = pool[1], pool[2], pool[3]
    x = GradedElement(3, {a: Fraction(2), b: Fraction(-1, 3)})
    y = GradedElement.basis(c)
    lhs = poisson_bracket(x, y)
    rhs = (
        Fraction(2) * poisson_bracket(GradedElement.basis(a), y)
        + Fraction(-1, 3) * poisson_bracket(GradedElement.basis(b), y)
    )
    assert lhs == rhs


def test_jacobi_small_grid():
    pool = balanced_types(3, 1)
    basis = [GradedElement.basis(t) for t in pool]
    for x in basis:
        for y in basis:
            for z in basis:
                total = (
                    poisson_bracket(x, poisson_bracket(y, z))
                    + poisson_bracket(y, poisson_bracket(z, x))
                    + poisson_bracket(z, poisson_bracket(x, y))
                )
                assert total.is_zero()


def test_leibniz_small_grid():
    pool = balanced_types(3, 1)
    basis = [GradedElement.basis(t) for t in pool]
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = poisson_bracket(x, graded_multiply(y, z))
                rhs = graded_multiply(poisson_bracket(x, y), z) + graded_multiply(
                    y, poisson_bracket(x, z)
                )
                assert lhs == rhs


def test_graded_layer_coefficients_are_ints():
    # brackets and graded products of basis types have integer coefficients,
    # and the graded layer keeps them as ints
    pool = balanced_types(3, 2)
    for a in pool:
        x = GradedElement.basis(a)
        for b in pool:
            y = GradedElement.basis(b)
            for product in (poisson_bracket(x, y), graded_multiply(x, y)):
                assert all(type(v) is int for v in product.terms.values()), (a, b)
            for part in poisson._order_one_linear(a.entries, b.entries):
                assert all(type(v) is int for v in part.values()), (a, b)


@pytest.mark.parametrize("nu, entry_max", [(3, 2), (4, 1)])
def test_bracket_matches_polynomial_ring_reference(nu, entry_max):
    # every pair of the grid against the Lie-Poisson bracket of the x_ij,
    # extended by Leibniz in a polynomial ring that knows no types
    pool = balanced_types(nu, entry_max)
    monomials = {t: {type_monomial(t.entries): 1} for t in pool}
    nonzero = 0
    for a in pool:
        x = GradedElement.basis(a)
        for b in pool:
            got = poisson_bracket(x, GradedElement.basis(b))
            want = reference_bracket(monomials[a], monomials[b])
            assert {type_monomial(t.entries): v for t, v in got.terms.items()} == want, (a, b)
            nonzero += bool(want)
    assert nonzero > len(pool) ** 2 // 2


def test_bracket_is_antisymmetrised_order_one_reference():
    # the chain back to the ring: criterion 9 ties ``_order_one_linear`` to
    # the universal product, and the bracket is its antisymmetrised sum
    pool = balanced_types(3, 2)
    for a in pool:
        for b in pool:
            acc = {}
            for sign, lin in ((1, poisson._order_one_linear(a.entries, b.entries)),
                              (-1, poisson._order_one_linear(b.entries, a.entries))):
                for part in lin:
                    for tgt, v in part.items():
                        acc[tgt] = acc.get(tgt, 0) + sign * v
            got = poisson_bracket(GradedElement.basis(a), GradedElement.basis(b))
            assert {t.entries: v for t, v in got.terms.items()} == {
                tgt: v for tgt, v in acc.items() if v
            }, (a, b)


def test_brackets_leave_order_one_cache_empty():
    poisson._order_one_linear.cache_clear()
    poisson._bracket_basis.cache_clear()
    pool = balanced_types(3, 2)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        poisson_bracket(GradedElement.basis(a), GradedElement.basis(b))
    assert poisson._bracket_basis.cache_info().currsize > 0
    assert poisson._order_one_linear.cache_info().currsize == 0


def trace_power(nu, p):
    """tr X^p with every diagonal x_jj = 1, each monomial read as a balanced type.

    A closed walk i_1 -> i_2 -> ... -> i_p -> i_1 contributes the monomial of
    its off-diagonal steps; its grid is balanced, since the walk enters each
    index as often as it leaves it.
    """
    acc = {}
    for walk in itertools.product(range(nu), repeat=p):
        grid = [[0] * nu for _ in range(nu)]
        for i, j in zip(walk, walk[1:] + walk[:1]):
            if i != j:
                grid[i][j] += 1
        tp = OffDiagonalType(tuple(map(tuple, grid)))
        acc[tp] = acc.get(tp, 0) + 1
    return GradedElement(nu, acc)


@pytest.mark.parametrize("nu, entry_max", [(3, 2), (4, 1)])
def test_trace_powers_are_casimirs(nu, entry_max):
    pool = [GradedElement.basis(t) for t in balanced_types(nu, entry_max)]
    for p in (2, 3, 4):
        casimir = trace_power(nu, p)
        for x in pool:
            assert poisson_bracket(casimir, x).is_zero(), (p, x)
    # not vacuous: a non-central basis type brackets nonzero with the grid
    r = GradedElement.basis(OffDiagonalType.build(nu, {(0, 1): 1, (1, 0): 1}))
    assert any(not poisson_bracket(r, x).is_zero() for x in pool)
