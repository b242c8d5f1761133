import copy
import inspect
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest

from cosetalg import (
    CosetMatrix,
    Margins,
    MarginOverflow,
    OffDiagonalType,
    coset_size,
    embed_offdiagonal,
    enumerate_coset_matrices,
    strip_diagonal,
)
from cosetalg.cosets import _field_bits, _slice_terms, transport

from helpers import naive_tables, reference_slice_terms


def test_margins_validation():
    with pytest.raises(ValueError):
        Margins(())
    with pytest.raises(ValueError):
        Margins((2, 0))
    m = Margins((2, 3))
    assert m.nu == 2 and m.N == 5


@pytest.mark.parametrize("bad", [2.7, Fraction(5, 2), Fraction(2), "2"])
def test_margins_reject_non_integers(bad):
    # a non-integer block size is refused, not truncated to an int
    with pytest.raises(TypeError):
        Margins((bad, 3))


def test_matrix_validation():
    m = Margins((2, 2))
    with pytest.raises(ValueError):
        CosetMatrix(((2, 1), (0, 1)), m)  # bad row sum
    with pytest.raises(ValueError):
        CosetMatrix(((2, 0), (1, 1)), m)  # bad column sum
    CosetMatrix(((1, 1), (1, 1)), m)


@pytest.mark.parametrize("bad", [2.2, Fraction(2), "2"])
def test_matrix_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        CosetMatrix(((bad, 0), (0, 2)), Margins((2, 2)))


def test_enumerate_single_block():
    out = enumerate_coset_matrices(Margins((3,)))
    assert [m.entries for m in out] == [((3,),)]


def test_enumerate_two_singletons():
    out = enumerate_coset_matrices(Margins((1, 1)))
    assert [m.entries for m in out] == [((0, 1), (1, 0)), ((1, 0), (0, 1))]


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 2), (2, 3), (3, 5), (4, 4)])
def test_enumerate_two_blocks_count(n1, n2):
    # two-block matrices are parameterized by the single off-diagonal value
    out = enumerate_coset_matrices(Margins((n1, n2)))
    assert len(out) == min(n1, n2) + 1
    off_values = sorted(m.entries[0][1] for m in out)
    assert off_values == list(range(min(n1, n2) + 1))


def test_enumerate_basis_size_4444():
    got = [m.entries for m in enumerate_coset_matrices(Margins((4, 4, 4, 4)))]
    assert len(got) == 10147
    assert got == sorted(got)


@pytest.mark.parametrize("n", [(2, 2), (1, 1, 2), (1, 2, 3), (2, 1, 1, 2)])
def test_enumerate_matches_naive_filter(n):
    got = [m.entries for m in enumerate_coset_matrices(Margins(n))]
    assert sorted(got) == sorted(naive_tables(n))
    assert got == sorted(got)  # lexicographic row-major order
    assert len(set(got)) == len(got)


def _brute_transport(caps, cols):
    """Every table with column sums cols and row i at most caps[i], in sorted order."""
    rows, width = len(caps), len(cols)
    found = []
    for flat in itertools.product(range(max(cols, default=0) + 1), repeat=rows * width):
        table = tuple(tuple(flat[i * width : (i + 1) * width]) for i in range(rows))
        if (
            sum(flat) == sum(cols)
            and all(sum(row) <= cap for row, cap in zip(table, caps))
            and all(sum(col) == want for col, want in zip(zip(*table), cols))
        ):
            found.append(table)
    return sorted(found, key=lambda t: [v for row in t for v in row])


def _tight_caps(rng, rows, cols):
    # caps that add up to the column total, so that every row meets its cap
    caps = [0] * rows
    for _ in range(sum(cols)):
        caps[rng.randrange(rows)] += 1
    return tuple(caps)


def test_transport_matches_brute_force():
    # empty shapes, slack caps and caps that add up to the column total; tight
    # shapes with zero rows and zero columns; shapes of four rows
    rng = random.Random(0)
    shapes = [((), ()), ((), (0,)), ((), (1,)), ((0,), ()), ((2, 1), ()), ((0, 0), (0, 0, 0))]
    for _ in range(150):
        rows, width = rng.randint(1, 3), rng.randint(1, 3)
        cols = tuple(rng.randint(0, 2) for _ in range(width))
        shapes.append((tuple(rng.randint(0, 3) for _ in range(rows)), cols))
        shapes.append((_tight_caps(rng, rows, cols), cols))
    for _ in range(40):
        rows, width = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)])
        cols = tuple(rng.choice((0, 1, 2)) for _ in range(width))
        caps = list(_tight_caps(rng, rows - 1, cols))
        caps.insert(rng.randint(0, rows - 1), 0)
        shapes.append((tuple(caps), cols))
    for _ in range(20):
        width = rng.randint(1, 2)
        cols = tuple(rng.randint(0, 2) for _ in range(width))
        shapes.append((tuple(rng.randint(0, 2) for _ in range(4)), cols))
        shapes.append((_tight_caps(rng, 4, cols), cols))
    for caps, cols in shapes:
        assert list(transport(caps, cols)) == _brute_transport(caps, cols), (caps, cols)


def test_transport_wide_table():
    # the walk goes one row at a time without recursion, so a 40 x 40 table is
    # no harder than a small one
    assert transport((0,) * 40, (0,) * 40) == (((0,) * 40,) * 40,)
    tables = transport((1,) * 40, (0,) * 39 + (1,))
    assert len(tables) == 40
    assert tables[0][-1][-1] == 1 and tables[-1][0][-1] == 1


def _universal_fields(nu, j):
    # slice j of the universal product: the corner keys the eps_j exponent, the
    # other diagonal cells stay out of the key
    return tuple(
        nu * nu + j if i == k == j else None if i == k else i * nu + k
        for i in range(nu)
        for k in range(nu)
    )


def test_slice_terms_match_full_slice():
    # leaving out zero rows and zero columns changes no key, weight or order,
    # whichever cells the fields leave out of the key
    rng = random.Random(1)
    for _ in range(300):
        rows, width = rng.randint(1, 5), rng.randint(1, 5)
        cols = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(width))
        caps = _tight_caps(rng, rows, cols)
        every = tuple(rng.sample(range(rows * width + 2), rows * width))
        some = tuple(None if rng.random() < 0.3 else f for f in every)
        shift = _field_bits(max(caps + cols))
        for fields in (every, some):
            want = reference_slice_terms(caps, cols, shift, fields)
            assert _slice_terms.__wrapped__(caps, cols, shift, fields) == want
    for _ in range(200):
        nu = rng.randint(2, 4)
        j = rng.randrange(nu)
        cols = tuple(rng.choice((0, 0, 1, 2)) for _ in range(nu))
        caps = _tight_caps(rng, nu, cols)
        fields = _universal_fields(nu, j)
        shift = _field_bits(max(caps + cols))
        want = reference_slice_terms(caps, cols, shift, fields)
        assert _slice_terms.__wrapped__(caps, cols, shift, fields) == want


def test_enumerate_deterministic_rerun():
    a = enumerate_coset_matrices(Margins((2, 2, 2)))
    b = enumerate_coset_matrices(Margins((2, 2, 2)))
    assert [m.entries for m in a] == [m.entries for m in b]


def test_coset_size_single_block():
    (m,) = enumerate_coset_matrices(Margins((3,)))
    assert coset_size(m) == 6


def test_coset_size_trivial_young_subgroup():
    m = CosetMatrix(((0, 1), (1, 0)), Margins((1, 1)))
    assert coset_size(m) == 1


def test_coset_size_2_2_mixed():
    # fiber size recounted by filtering S_4 with an explicit intersection count
    from helpers import naive_classify

    target = ((1, 1), (1, 1))
    count = sum(
        1 for g in itertools.permutations(range(4)) if naive_classify(g, (2, 2)) == target
    )
    m = CosetMatrix(target, Margins((2, 2)))
    assert count == 16
    assert coset_size(m) == count


@pytest.mark.parametrize("n", [(1, 1), (2, 2), (2, 3), (1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 3, 2)])
def test_partition_of_unity(n):
    margins = Margins(n)
    total = sum(coset_size(m) for m in enumerate_coset_matrices(margins))
    assert total == factorial(margins.N)


def test_offdiagonal_balance_required():
    with pytest.raises(ValueError):
        OffDiagonalType(((0, 1), (0, 0)))
    t = OffDiagonalType(((0, 1), (1, 0)))
    assert t.star(0) == t.star(1) == 1


@pytest.mark.parametrize("bad", [0.9, Fraction(1), "1"])
def test_offdiagonal_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        OffDiagonalType(((0, bad), (bad, 0)))


def test_embed_all_zero_gives_diagonal():
    margins = Margins((2, 3, 1))
    m = embed_offdiagonal(OffDiagonalType.zero(3), margins)
    assert m.entries == ((2, 0, 0), (0, 3, 0), (0, 0, 1))


def test_embed_basic():
    t = OffDiagonalType(((0, 1), (1, 0)))
    m = embed_offdiagonal(t, Margins((2, 2)))
    assert m.entries == ((1, 1), (1, 1))


def test_embed_overflow():
    t = OffDiagonalType(((0, 3), (3, 0)))
    with pytest.raises(MarginOverflow) as err:
        embed_offdiagonal(t, Margins((2, 2)))
    assert err.value.j == 1 and err.value.star == 3 and err.value.n_j == 2


def test_strip_diagonal_examples():
    margins = Margins((2, 2))
    diag = embed_offdiagonal(OffDiagonalType.zero(2), margins)
    assert strip_diagonal(diag) == OffDiagonalType.zero(2)
    m = CosetMatrix(((1, 1), (1, 1)), margins)
    assert strip_diagonal(m).entries == ((0, 1), (1, 0))


@pytest.mark.parametrize("n", [(2, 2), (1, 1, 2), (1, 2, 3)])
def test_strip_embed_roundtrip(n):
    margins = Margins(n)
    for m in enumerate_coset_matrices(margins):
        t = strip_diagonal(m)
        assert embed_offdiagonal(t, margins) == m
        # the stripped type is always balanced (constructor enforces it)
        assert all(t.star(j) <= margins.n[j] for j in range(margins.nu))


def test_json_shapes():
    m = CosetMatrix(((1, 1), (1, 1)), Margins((2, 2)))
    assert m.to_json_dict() == {"n": [2, 2], "entries": [[1, 1], [1, 1]]}
    t = OffDiagonalType(((0, 2), (2, 0)))
    assert t.to_json_dict() == {"nu": 2, "offdiag": [[1, 2, 2], [2, 1, 2]]}
    json.dumps(m.to_json_dict())
    json.dumps(t.to_json_dict())


def test_offdiagonal_addition():
    t = OffDiagonalType(((0, 1), (1, 0)))
    assert (t + t).entries == ((0, 2), (2, 0))


# the three value types, their fields, and the text a dataclass would print;
# the CosetMatrix and the OffDiagonalType share their entries
VALUE_TYPES = [
    (Margins, ((1, 1),), "Margins(n=(1, 1))"),
    (
        CosetMatrix,
        (((0, 1), (1, 0)), Margins((1, 1))),
        "CosetMatrix(entries=((0, 1), (1, 0)), margins=Margins(n=(1, 1)))",
    ),
    (OffDiagonalType, (((0, 1), (1, 0)),), "OffDiagonalType(entries=((0, 1), (1, 0)))"),
]


@pytest.mark.parametrize("cls,fields,text", VALUE_TYPES, ids=[v[0].__name__ for v in VALUE_TYPES])
def test_value_type_contract(cls, fields, text):
    x = cls(*fields)
    # every field, and a stored hash (Margins keeps one), is frozen
    assert set(inspect.signature(cls).parameters) <= set(cls.__slots__)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    # hashing a value hashes its field tuple, as a frozen dataclass does, so set
    # and dict orders stay the same
    assert hash(x) == hash(fields)
    assert repr(x) == text
    assert x == cls(*fields) and not x != cls(*fields)
    others = [other(*f) for other, f, _ in VALUE_TYPES if other is not cls]
    assert all(x != y and not x == y for y in [fields, fields[0], *others])
    assert getattr(cls, "_make", cls)(*fields) == x
    assert pickle.loads(pickle.dumps(x)) == x
    # a stored hash survives copying
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x)):
        assert y == x and hash(y) == hash(fields)
