import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from cosetalg import (
    AlgebraElement,
    CosetMatrix,
    Margins,
    coset_size,
    enumerate_coset_matrices,
    multiply,
    oracle_structure_constant,
    product_table,
    structure_constant,
    verify_associativity,
)
from cosetalg import algebra, cosets
from cosetalg.oracle import oracle_product

from helpers import reference_product_terms, tensor_sums


def basis_elements(margins):
    return [AlgebraElement.basis(m) for m in enumerate_coset_matrices(margins)]


@pytest.mark.parametrize("n", [(2, 2), (1, 1, 2)])
def test_unit_element(n):
    margins = Margins(n)
    unit = AlgebraElement.unit(margins)
    for x in basis_elements(margins):
        assert multiply(unit, x) == x
        assert multiply(x, unit) == x


def test_structure_constant_unit_law():
    margins = Margins((2, 3))
    matrices = enumerate_coset_matrices(margins)
    diag = CosetMatrix(((2, 0), (0, 3)), margins)
    for b in matrices:
        for c in matrices:
            want = Fraction(c == b)
            assert structure_constant(diag, b, c) == want


def test_transposition_product_two_targets_symmetric_margins():
    # product of the (2,3) and (1,2) transposition averages at equal blocks
    margins = Margins((2, 2, 2))
    a = CosetMatrix(((2, 0, 0), (0, 1, 1), (0, 1, 1)), margins)
    b = CosetMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 2)), margins)
    chain = CosetMatrix(((1, 1, 0), (1, 0, 1), (0, 1, 1)), margins)
    cycle = CosetMatrix(((1, 1, 0), (0, 1, 1), (1, 0, 1)), margins)
    assert structure_constant(a, b, chain) == Fraction(1, 2)  # (n2-1)/n2
    assert structure_constant(a, b, cycle) == Fraction(1, 2)  # 1/n2
    prod = multiply(AlgebraElement.basis(a), AlgebraElement.basis(b))
    assert set(prod.terms) == {chain, cycle}


def test_transposition_product_asymmetric_margins():
    # distinct coefficients pin both the values and which target carries which
    margins = Margins((1, 3, 1))
    a = CosetMatrix(((1, 0, 0), (0, 2, 1), (0, 1, 0)), margins)  # (2,3) average
    b = CosetMatrix(((0, 1, 0), (1, 2, 0), (0, 0, 1)), margins)  # (1,2) average
    chain = CosetMatrix(((0, 1, 0), (1, 1, 1), (0, 1, 0)), margins)
    cycle = CosetMatrix(((0, 1, 0), (0, 2, 1), (1, 0, 0)), margins)
    assert structure_constant(a, b, chain) == Fraction(2, 3)
    assert structure_constant(a, b, cycle) == Fraction(1, 3)


@pytest.mark.parametrize("n", [(2, 2), (1, 1, 2)])
def test_all_constants_match_oracle(n):
    margins = Margins(n)
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            got = multiply(AlgebraElement.basis(a), AlgebraElement.basis(b))
            want = oracle_product(a, b)
            assert got.terms == want


@pytest.mark.parametrize("n", [(2, 2), (2, 3), (1, 1, 2)])
def test_mass_conservation(n):
    margins = Margins(n)
    for x in basis_elements(margins):
        for y in basis_elements(margins):
            assert multiply(x, y).mass() == 1


def test_disjoint_transpositions_commute_at_singletons():
    margins = Margins((1, 1, 1, 1))
    r12 = CosetMatrix(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), margins)
    r34 = CosetMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), margins)
    both = CosetMatrix(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)), margins)
    fwd = multiply(AlgebraElement.basis(r12), AlgebraElement.basis(r34))
    bwd = multiply(AlgebraElement.basis(r34), AlgebraElement.basis(r12))
    assert fwd == bwd == AlgebraElement.basis(both)


def test_product_table_single_block():
    rows = product_table(Margins((3,)))
    assert len(rows) == 1
    a, b, c, coeff = rows[0]
    assert a == b == c and coeff == 1


def test_product_table_s2():
    margins = Margins((1, 1))
    ident = CosetMatrix(((1, 0), (0, 1)), margins)
    swap = CosetMatrix(((0, 1), (1, 0)), margins)
    table = {
        (a.entries, b.entries, c.entries): v for a, b, c, v in product_table(margins)
    }
    assert table == {
        (ident.entries, ident.entries, ident.entries): 1,
        (ident.entries, swap.entries, swap.entries): 1,
        (swap.entries, ident.entries, swap.entries): 1,
        (swap.entries, swap.entries, ident.entries): 1,
    }


def test_product_table_bound():
    with pytest.raises(ValueError):
        product_table(Margins((2, 2, 2)), max_basis=10)


@pytest.mark.parametrize("n", [(1, 1), (2, 2), (2, 3), (1, 1, 2)])
def test_associativity(n):
    report = verify_associativity(Margins(n))
    assert report.ok
    assert report.triples_checked == report.basis_size**3
    assert report.to_json_dict() == {
        "n": list(n),
        "basis_size": report.basis_size,
        "triples_checked": report.triples_checked,
        "violations": [],
    }


@pytest.mark.parametrize("n", [(2, 2), (1, 1, 2)])
def test_constants_nonnegative_with_bounded_denominator(n):
    margins = Margins(n)
    bound = 1
    for x in margins.n:
        bound *= factorial(x)
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            for c in matrices:
                v = structure_constant(a, b, c)
                assert v >= 0
                assert (bound * v).denominator == 1


def test_triple_tensors_match_brute_force():
    # the reference walk behind test_product_terms_match_tensor_walk, against a scan
    margins = Margins((2, 2))
    matrices = enumerate_coset_matrices(margins)
    cells = list(itertools.product(range(2), repeat=3))
    for a in matrices:
        for b in matrices:
            walked = tensor_sums(a.entries, b.entries, 2)
            want = set()
            for values in itertools.product(range(3), repeat=8):
                t = [[[0] * 2 for _ in range(2)] for _ in range(2)]
                for (i, j, k), v in zip(cells, values):
                    t[i][j][k] = v
                ok = all(
                    sum(t[i][j][k] for k in range(2)) == a.entries[i][j]
                    and sum(t[k][i][j] for k in range(2)) == b.entries[i][j]
                    for i in range(2)
                    for j in range(2)
                )
                if ok:
                    c = tuple(
                        tuple(sum(t[i][k][j] for k in range(2)) for j in range(2))
                        for i in range(2)
                    )
                    denom = prod(factorial(v) for v in values)
                    want.add((tuple(tuple(map(tuple, plane)) for plane in t), c, denom))
            assert len(walked) == len(want)
            assert set(walked) == want


def test_margin_mismatch_rejected():
    a = CosetMatrix(((1, 1), (1, 1)), Margins((2, 2)))
    b = CosetMatrix(((1, 1), (1, 2)), Margins((2, 3)))
    with pytest.raises(ValueError):
        structure_constant(a, a, b)
    with pytest.raises(ValueError):
        multiply(AlgebraElement.basis(a), AlgebraElement.basis(b))


def test_element_arithmetic():
    margins = Margins((2, 2))
    ms = enumerate_coset_matrices(margins)
    x = AlgebraElement(margins, {ms[0]: Fraction(1, 2), ms[1]: Fraction(1, 2)})
    y = AlgebraElement.basis(ms[0])
    assert (x - y).terms == {ms[0]: Fraction(-1, 2), ms[1]: Fraction(1, 2)}
    assert (2 * x).mass() == 2
    assert (x - x).is_zero()


def _check_against_tensor_walk(pairs, n):
    # bypass the cache: the exhaustive runs would otherwise keep every product
    product_terms = algebra._product_terms.__wrapped__
    for a, b in pairs:
        assert product_terms(a, b, n) == reference_product_terms(a, b, n), (a, b)


# (256, 1) needs two bytes per packed field
@pytest.mark.parametrize("n", [(2, 2, 2), (1, 2, 3), (2, 2, 2, 2), (256, 1)])
def test_product_terms_match_tensor_walk(n):
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    _check_against_tensor_walk(itertools.product(basis, repeat=2), n)


def test_product_terms_match_tensor_walk_sampled():
    n = (3, 3, 3, 3)
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    rng = random.Random(0)
    _check_against_tensor_walk([(rng.choice(basis), rng.choice(basis)) for _ in range(200)], n)


def test_unpack_multibyte_fields():
    shift = cosets._field_bits(300)
    assert shift == 16 and cosets._field_bits(255) == 8 and cosets._field_bits(0) == 8
    grid = ((0, 300), (65535, 1))
    key = sum(v << (shift * (2 * i + k)) for i, row in enumerate(grid) for k, v in enumerate(row))
    assert cosets._unpack(key, 2, 2, shift) == grid
