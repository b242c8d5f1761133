import itertools
import json
import random
import sys
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
from cosetalg import algebra, cli, cosets, universal
from cosetalg.oracle import oracle_product

from helpers import (
    grid_keyed,
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


def test_basis_bound_refuses_before_enumerating(monkeypatch):
    # (5,5,5,5,5) has 22,069,251 coset matrices; the refusal only counts them
    def enumerate_coset_matrices(margins):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(algebra, "enumerate_coset_matrices", enumerate_coset_matrices)
    detail = "22069251 basis matrices exceed the configured bound 128"
    for call in (product_table, verify_associativity):
        with pytest.raises(ValueError) as exc:
            call(Margins((5, 5, 5, 5, 5)))
        assert str(exc.value) == detail


@pytest.mark.parametrize("n", [(1, 1), (2, 2), (2, 3), (1, 1, 2)])
def test_associativity(n, capsys):
    report = verify_associativity(Margins(n))
    assert report.ok
    assert report.triples_checked == report.basis_size**3
    assert cli.main(["verify-assoc", "--n", ",".join(map(str, n))]) == 0
    assert json.loads(capsys.readouterr().out) == {
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
    # bypass the product cache, which would keep every product of the
    # exhaustive runs; the margins' intern table still keeps each distinct target
    product_terms = algebra._product_terms.__wrapped__
    margins = Margins(n)
    for a, b in pairs:
        assert grid_keyed(product_terms(a, b, margins)) == reference_product_terms(a, b, n), (a, b)


# (256, 1) and (256, 1, 1) need two bytes per packed field, the second with
# rows of three fields
@pytest.mark.parametrize("n", [(2, 2, 2), (1, 2, 3), (2, 2, 2, 2), (256, 1), (256, 1, 1)])
def test_product_terms_match_tensor_walk(n):
    # The reference walk runs once per orbit of pairs under the symmetries
    # that test_product_terms_equivariant checks, and the symmetries carry it
    # to the rest of the orbit: every pair's production product is still
    # compared with an exact value of the walk.
    product_terms = algebra._product_terms.__wrapped__
    margins = Margins(n)
    basis = [m.entries for m in enumerate_coset_matrices(margins)]
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
                got = grid_keyed(product_terms(*pair, margins))
                assert got == {image[c]: v for c, v in want.items()}, pair
    assert len(checked) == len(basis) ** 2


def test_product_terms_match_tensor_walk_sampled():
    n = (3, 3, 3, 3)
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    rng = random.Random(0)
    _check_against_tensor_walk([(rng.choice(basis), rng.choice(basis)) for _ in range(200)], n)


def _check_equivariance(pairs, n):
    # production against itself: the image of a product is the product of the images
    product_terms = algebra._product_terms.__wrapped__
    margins = Margins(n)
    symmetries = margin_symmetries(n)
    for a, b in pairs:
        terms = grid_keyed(product_terms(a, b, margins))
        for p, flip in symmetries:
            want = relabel_terms(terms, p, flip)
            got = grid_keyed(product_terms(*relabel_pair(a, b, p, flip), margins))
            assert got == want, (a, b, p, flip)


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
    "n",
    [
        (1,), (1, 1), (1, 2, 3), (2, 2, 2), (2, 2, 3), (1, 1, 1, 1), (3, 3, 3), (256, 1),
        (1, 1, 2, 2), (5, 5, 2),  # stabilisers that mix block sizes
    ],
)
def test_product_table_matches_all_pairs(n):
    margins = Margins(n)
    basis = enumerate_coset_matrices(margins)
    product_terms = algebra._product_terms.__wrapped__
    want = [
        (a, b, CosetMatrix(c, margins), v)
        for a in basis
        for b in basis
        for c, v in sorted(grid_keyed(product_terms(a.entries, b.entries, margins)).items())
    ]
    assert product_table(margins) == want


def test_product_table_computes_one_product_per_orbit(monkeypatch):
    n = (3, 3, 3)
    basis = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    symmetries = margin_symmetries(n)
    orbits = {
        min(relabel_pair(a, b, p, flip) for p, flip in symmetries)
        for a in basis
        for b in basis
    }
    calls = []
    coefficients = algebra._coefficients

    def counted(a, b, margins):
        calls.append((a, b))
        return coefficients(a, b, margins)

    monkeypatch.setattr(algebra, "_coefficients", counted)
    algebra._product_terms.cache_clear()
    product_table(Margins(n))
    assert len(calls) == len(set(calls)) == len(orbits) == 301
    # the table keys its products by basis index and fills no product cache
    assert algebra._product_terms.cache_info().currsize == 0


def test_pack_unpack_round_trip():
    # one byte per field and two; _pack is the inverse of _unpack
    rng = random.Random(2)
    for shift, top in ((8, 255), (16, 65535)):
        for rows, width in ((1, 1), (1, 4), (3, 3), (4, 2)):
            grids = [
                tuple(tuple(rng.choice((0, 1, top, rng.randint(0, top))) for _ in range(width))
                      for _ in range(rows))
                for _ in range(20)
            ]
            keys = [cosets._pack(g, shift) for g in grids]
            got = cosets._unpack(keys, rows, width, shift)
            assert got == grids
            assert [cosets._pack(g, shift) for g in got] == keys
    # field i*width + k from the low end, as _coefficients packs its targets
    assert cosets._pack(((1, 2), (3, 4)), 8) == 0x04030201


def test_unpack_multibyte_fields():
    shift = cosets._field_bits(300)
    assert shift == 16 and cosets._field_bits(255) == 8 and cosets._field_bits(0) == 8
    grid = ((0, 300), (65535, 1))
    assert cosets._unpack([cosets._pack(grid, shift)], 2, 2, shift) == [grid]
    # three-field rows, read a row at a time; a repeated row is decoded once
    # and shared, in one byte per field and in two
    for shift, top in ((8, 255), (16, 65535)):
        grids = [
            ((top, 0, 1), (2, top, 0), (0, 1, top)),
            ((0, 1, top), (2, top, 0), (top, 0, 1)),
            ((0, 0, 0), (0, 0, 0), (2, top, 0)),
        ]
        got = cosets._unpack([cosets._pack(g, shift) for g in grids], 3, 3, shift)
        assert got == grids
        assert len({id(row) for g in got for row in g}) == len({row for g in grids for row in g}) == 4
        # two calls that share a row dict share the tuple of an equal row
        rows = {}
        first = cosets._unpack([cosets._pack(grids[0], shift)], 3, 3, shift, rows)
        second = cosets._unpack([cosets._pack(grids[1], shift)], 3, 3, shift, rows)
        assert first[0][0] is second[0][2] and first[0][1] is second[0][1]
        assert len(rows) == 3


def test_product_terms_share_values_and_rows():
    # one Fraction per distinct weight and one tuple per distinct row, on a
    # (4,4,4,4) pair with many targets; coefficients stay Fractions
    margins = Margins((4, 4, 4, 4))
    basis = [m.entries for m in enumerate_coset_matrices(margins)]
    rng = random.Random(1)
    a, b = max(
        ((rng.choice(basis), rng.choice(basis)) for _ in range(20)),
        key=lambda pair: len(algebra._product_terms.__wrapped__(*pair, margins)),
    )
    terms = algebra._product_terms.__wrapped__(a, b, margins)
    values = list(terms.values())
    rows = [row for c in terms for row in c.entries]
    assert len(terms) > 100
    assert len({id(v) for v in values}) == len(set(values)) < len(values)
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
    assert all(type(v) is Fraction for v in values)


def _clear_product_caches():
    # the identity holds while a layout stays in the intern cache; start with
    # no cached product whose keys an earlier table built
    algebra._product_terms.cache_clear()
    universal._product_terms.cache_clear()
    cosets._intern_tables.cache_clear()


def test_equal_targets_of_products_are_one_object():
    # at the same margins, even through two equal Margins objects, equal
    # targets of different products are one interned key object
    _clear_product_caches()
    basis = enumerate_coset_matrices(Margins((3, 3, 3)))
    rng = random.Random(4)
    pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(30)]
    margins = [Margins((3, 3, 3)), Margins((3, 3, 3))]
    seen = {}
    shared = 0
    for k, (a, b) in enumerate(pairs):
        for c in algebra._product_terms(a.entries, b.entries, margins[k % 2]):
            if c in seen:
                assert c is seen[c]
                shared += 1
            seen.setdefault(c, c)
    assert shared > 100
    # products at different margins share no object, and each target carries
    # its product's margins
    ids = {}
    for n in ((1, 2), (2, 1), (1, 2, 3), (3, 2, 1)):
        margins = Margins(n)
        for a in enumerate_coset_matrices(margins):
            for b in enumerate_coset_matrices(margins):
                for c in algebra._product_terms(a.entries, b.entries, margins):
                    assert c.margins == margins
                    assert ids.setdefault(id(c), n) == n


def test_warm_product_of_products_compares_no_keys(monkeypatch):
    # merging the targets of several cached products finds equal keys by
    # identity, so CosetMatrix.__eq__ is never called
    _clear_product_caches()
    basis = basis_elements(Margins((2, 2, 2)))
    a, b, c = basis[3], basis[10], basis[17]
    ab = multiply(a, b)
    cold = multiply(ab, c)
    (right,) = c.terms
    merged = sum(len(algebra._basis_product(m, right)) for m in ab.terms)
    assert len(ab.terms) > 1 and merged > len(cold.terms)  # equal targets do meet
    calls = []
    eq = CosetMatrix.__eq__

    def counting(self, other):
        calls.append(other)
        return eq(self, other)

    monkeypatch.setattr(CosetMatrix, "__eq__", counting)
    assert multiply(multiply(a, b), c) == cold
    assert calls == []


def test_cache_reset_empties_the_intern_tables():
    # what a fresh-process reset does: every module-level cache_clear of the
    # loaded package modules
    margins = Margins((2, 2, 2))
    a, b = enumerate_coset_matrices(margins)[3:5]
    p, q = ((0, 1, 1), (1, 0, 1), (1, 1, 0)), ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    _clear_product_caches()
    before = list(algebra._product_terms(a.entries, b.entries, margins))
    universal_before = list(universal._product_terms(p, q))
    assert cosets._intern_tables.cache_info().currsize > 1
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cosetalg":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    assert cosets._intern_tables.cache_info().currsize == 0
    after = list(algebra._product_terms(a.entries, b.entries, margins))
    universal_after = list(universal._product_terms(p, q))
    assert after == before and universal_after == universal_before
    assert len(universal_after) > 1
    assert not any(x is y for x, y in zip(after, before))
    assert not any(x is y for x, y in zip(universal_after, universal_before))


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


def test_frobenius_reciprocity():
    # counting x*y = g with x in A, y in B and g in C gives
    # c_ab^c / |C| = c_{c,b^T}^a / |A|; checked on all 54,207 triples
    nonzero = 0
    for n in [(2, 2, 2), (1, 2, 3), (1, 1, 2), (3, 3, 2)]:
        basis = enumerate_coset_matrices(Margins(n))
        sizes = {m: coset_size(m) for m in basis}
        terms = {(a, b): algebra._product_terms.__wrapped__(a.entries, b.entries, a.margins)
                 for a in basis for b in basis}
        for a, b, c in itertools.product(basis, repeat=3):
            value = terms[a, b].get(c, 0)
            assert value * sizes[a] == terms[c, b.transpose()].get(a, 0) * sizes[c], (a, b, c)
            nonzero += value != 0
    assert nonzero == 7833
