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

from helpers import (
    margin_symmetries,
    mass,
    reference_product_terms,
    relabel,
    relabel_pair,
    relabel_terms,
    tensor_sums,
)


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
            assert mass(multiply(x, y)) == 1


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
    assert mass(2 * x) == 2
    assert (x - x).is_zero()


def _check_against_tensor_walk(pairs, n):
    # bypass the cache: the exhaustive runs would otherwise keep every product
    product_terms = algebra._product_terms.__wrapped__
    for a, b in pairs:
        assert product_terms(a, b, n) == reference_product_terms(a, b, n), (a, b)


# (256, 1) and (256, 1, 1) need two bytes per packed field, the second with
# rows of three fields
@pytest.mark.parametrize("n", [(2, 2, 2), (1, 2, 3), (2, 2, 2, 2), (256, 1), (256, 1, 1)])
def test_product_terms_match_tensor_walk(n):
    # The reference walk runs once per orbit of pairs under the symmetries
    # that test_product_terms_equivariant checks, and the symmetries carry it
    # to the rest of the orbit: every pair's production product is still
    # compared with an exact value of the walk.
    product_terms = algebra._product_terms.__wrapped__
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    images = [(flip, {m: relabel(m, p, flip) for m in basis}) for p, flip in margin_symmetries(n)]
    checked = set()
    for a, b in itertools.product(basis, repeat=2):
        if (a, b) in checked:
            continue
        want = reference_product_terms(a, b, n)
        for flip, image in images:
            pair = (image[b], image[a]) if flip else (image[a], image[b])
            if pair not in checked:
                checked.add(pair)
                assert product_terms(*pair, n) == {image[c]: v for c, v in want.items()}, pair
    assert len(checked) == len(basis) ** 2


def test_product_terms_match_tensor_walk_sampled():
    n = (3, 3, 3, 3)
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    rng = random.Random(0)
    _check_against_tensor_walk([(rng.choice(basis), rng.choice(basis)) for _ in range(200)], n)


def _check_equivariance(pairs, n):
    # production against itself: the image of a product is the product of the images
    product_terms = algebra._product_terms.__wrapped__
    symmetries = margin_symmetries(n)
    for a, b in pairs:
        terms = product_terms(a, b, n)
        for p, flip in symmetries:
            want = relabel_terms(terms, p, flip)
            assert product_terms(*relabel_pair(a, b, p, flip), n) == want, (a, b, p, flip)


@pytest.mark.parametrize("n", [(2, 2, 2), (1, 2, 3)])
def test_product_terms_equivariant(n):
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    _check_equivariance(itertools.product(basis, repeat=2), n)


def test_product_terms_equivariant_sampled():
    n = (3, 3, 3, 3)
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    rng = random.Random(0)
    _check_equivariance([(rng.choice(basis), rng.choice(basis)) for _ in range(100)], n)


@pytest.mark.parametrize(
    "n", [(1,), (1, 1), (1, 2, 3), (2, 2, 2), (2, 2, 3), (1, 1, 1, 1), (3, 3, 3), (256, 1)]
)
def test_product_table_matches_all_pairs(n):
    margins = Margins(n)
    basis = enumerate_coset_matrices(margins)
    product_terms = algebra._product_terms.__wrapped__
    want = [
        (a, b, CosetMatrix(c, margins), v)
        for a in basis
        for b in basis
        for c, v in sorted(product_terms(a.entries, b.entries, n).items())
    ]
    assert product_table(margins) == want


def test_product_table_computes_one_product_per_orbit():
    n = (3, 3, 3)
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    symmetries = margin_symmetries(n)
    orbits = {
        min(relabel_pair(a, b, p, flip) for p, flip in symmetries)
        for a in basis
        for b in basis
    }
    algebra._product_terms.cache_clear()
    product_table(Margins(n))
    info = algebra._product_terms.cache_info()
    assert info.misses == info.currsize == len(orbits) == 301


def _pack(grid, shift):
    width = len(grid[0])
    return sum(v << (shift * (width * i + k)) for i, row in enumerate(grid) for k, v in enumerate(row))


def test_unpack_multibyte_fields():
    shift = cosets._field_bits(300)
    assert shift == 16 and cosets._field_bits(255) == 8 and cosets._field_bits(0) == 8
    grid = ((0, 300), (65535, 1))
    assert cosets._unpack([_pack(grid, shift)], 2, 2, shift) == [grid]
    # three-field rows, read a row at a time; a repeated row is decoded once
    # and shared, in one byte per field and in two
    for shift, top in ((8, 255), (16, 65535)):
        grids = [
            ((top, 0, 1), (2, top, 0), (0, 1, top)),
            ((0, 1, top), (2, top, 0), (top, 0, 1)),
            ((0, 0, 0), (0, 0, 0), (2, top, 0)),
        ]
        got = cosets._unpack([_pack(g, shift) for g in grids], 3, 3, shift)
        assert got == grids
        assert len({id(row) for g in got for row in g}) == len({row for g in grids for row in g}) == 4


def test_product_terms_share_values_and_rows():
    # one Fraction per distinct weight and one tuple per distinct row, on a
    # (4,4,4,4) pair with many targets; coefficients stay Fractions
    n = (4, 4, 4, 4)
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    rng = random.Random(1)
    a, b = max(
        ((rng.choice(basis), rng.choice(basis)) for _ in range(20)),
        key=lambda pair: len(algebra._product_terms.__wrapped__(*pair, n)),
    )
    terms = algebra._product_terms.__wrapped__(a, b, n)
    values = list(terms.values())
    rows = [row for c in terms for row in c]
    assert len(terms) > 100
    assert len({id(v) for v in values}) == len(set(values)) < len(values)
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
    assert all(type(v) is Fraction for v in values)


def test_structure_constant_builds_zero_only_on_a_miss(monkeypatch):
    margins = Margins((2, 2))
    a, b, unit = enumerate_coset_matrices(margins)
    hit = structure_constant(a, a, unit)
    assert hit == 1 and type(hit) is Fraction
    assert structure_constant(a, b, b)  # both products are now cached
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(algebra, "Fraction", counting)
    assert structure_constant(a, a, unit) is hit and not built
    miss = structure_constant(a, b, a)
    assert type(miss) is Fraction and miss == 0 and len(built) == 1
