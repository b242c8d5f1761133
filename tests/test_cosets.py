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
from cosetalg.cli import _matrix_json, _type_json
from cosetalg.cosets import _field_bits, _shape_terms, _slice_terms, count_transport, transport

from helpers import balanced_types, naive_tables, reference_slice_terms


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
    """Every table with row sums caps and column sums cols, in sorted order."""
    rows, width = len(caps), len(cols)
    found = []
    for flat in itertools.product(range(max(cols, default=0) + 1), repeat=rows * width):
        table = tuple(tuple(flat[i * width : (i + 1) * width]) for i in range(rows))
        if (
            sum(flat) == sum(cols)
            and all(sum(row) == cap for row, cap in zip(table, caps))
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
    # empty shapes, random caps and caps that add up to the column total; tight
    # shapes with zero rows and zero columns; shapes of four rows.  Caps whose
    # total differs from the columns' admit no table
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
    tables = transport((1,) * 40, (39, 1))
    assert len(tables) == 40
    assert tables[0][0] == (0, 1) and tables[-1][-1] == (0, 1)


def test_count_transport_matches_transport():
    # random shapes, slack or tight, with zero rows and columns, and coset
    # matrices; the count merges needs equal up to column order
    rng = random.Random(1)
    shapes = [((), ()), ((), (1,)), ((0,), ()), ((2, 1), ()), ((1, 2), (4,)), ((3, 3), (2, 4))]
    for _ in range(200):
        rows, width = rng.randint(1, 4), rng.randint(1, 4)
        cols = tuple(rng.randint(0, 3) for _ in range(width))
        shapes.append((tuple(rng.randint(0, 4) for _ in range(rows)), cols))
        shapes.append((_tight_caps(rng, rows, cols), cols))
    for n in [(2, 2, 3), (1, 1, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4)]:
        shapes.append((n, n))
    for caps, cols in shapes:
        assert count_transport(caps, cols) == len(transport(caps, cols)), (caps, cols)
    # counts that no enumeration could reach: the 31! permutation matrices,
    # and the coset matrices of (5,5,5,5,5)
    assert count_transport((1,) * 31, (1,) * 31) == factorial(31)
    assert count_transport((5,) * 5, (5,) * 5) == 22069251


def test_every_transport_call_has_equal_totals(monkeypatch):
    # transport walks only tables whose rows meet their caps, so a caller that
    # passed caps above the column total would silently get no tables; every
    # caller, run cold, passes caps and columns with the same total
    from cosetalg import algebra, cosets, universal

    calls = []
    walk = cosets.transport

    def recorded(caps, cols):
        calls.append((caps, cols))
        return walk(caps, cols)

    monkeypatch.setattr(cosets, "transport", recorded)
    rng = random.Random(25)
    bases = {
        n: [m.entries for m in enumerate_coset_matrices(Margins(n))]
        for n in [(3, 3, 3, 3), (2, 2, 3)]
    }
    types = [t.entries for t in balanced_types(3, 2)]
    pair_products = [
        (algebra._product_terms.__wrapped__, (rng.choice(basis), rng.choice(basis), Margins(n)))
        for n, basis in bases.items()
        for _ in range(20)
    ]
    universal_products = [
        (universal._product_terms.__wrapped__, (rng.choice(types), rng.choice(types)))
        for _ in range(40)
    ]
    phases = [
        pair_products,
        [(algebra.product_table, (Margins((2, 2, 2)),))],
        universal_products,
        [(enumerate_coset_matrices, (Margins((2, 2, 3)),))],
    ]
    for phase in phases:
        _slice_terms.cache_clear()
        _shape_terms.cache_clear()
        calls.clear()
        for f, args in phase:
            f(*args)
        assert calls
        assert all(sum(caps) == sum(cols) for caps, cols in calls), calls


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


def test_layouts_of_one_shape_walk_it_once(monkeypatch):
    # slices whose trimmed caps and columns agree share one transport walk,
    # whatever their zero rows and columns, fields and field width
    from cosetalg import cosets

    layouts = [
        ((2, 1, 0), (0, 1, 2), 8, tuple(range(9))),
        ((0, 2, 1), (1, 0, 2), 8, tuple(range(8, -1, -1))),
        ((2, 0, 1), (1, 2, 0), 16, (None, 4, None, 2, 0, 1, 3, 5, 6)),
        ((0, 2, 0, 1), (0, 1, 2), 8, tuple(range(12))),
    ]
    wants = [reference_slice_terms(*layout) for layout in layouts]
    assert all(len(want) > 1 for want in wants)
    calls = []
    walk = cosets.transport

    def recorded(caps, cols):
        calls.append((caps, cols))
        return walk(caps, cols)

    monkeypatch.setattr(cosets, "transport", recorded)
    _slice_terms.cache_clear()
    _shape_terms.cache_clear()
    for layout, want in zip(layouts, wants):
        assert _slice_terms(*layout) == want
    assert calls == [((2, 1), (1, 2))]
    assert _shape_terms.cache_info().misses == 1


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


def test_offdiagonal_refuses_no_blocks():
    # as Margins does: a type needs at least one block, so the universal
    # product never sees nu = 0
    for build in (lambda: OffDiagonalType(()), lambda: OffDiagonalType.zero(0)):
        with pytest.raises(ValueError, match="at least one block required"):
            build()


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
    assert _matrix_json(m) == {"n": [2, 2], "entries": [[1, 1], [1, 1]]}
    t = OffDiagonalType(((0, 2), (2, 0)))
    assert _type_json(t) == {"nu": 2, "offdiag": [[1, 2, 2], [2, 1, 2]]}
    json.dumps(_matrix_json(m))
    json.dumps(_type_json(t))


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
    # the constructor takes the fields in order, and every field is frozen
    assert tuple(inspect.signature(cls).parameters) == cls._fields
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    # hashing a value hashes its field tuple, as a frozen dataclass does, so set
    # and dict orders stay the same
    assert hash(x) == hash(fields)
    assert repr(x) == text
    assert x == cls(*fields) and not x != cls(*fields)
    # namedtuple equality: a value equals the plain tuple of its fields
    assert x == fields and not x != fields
    others = [other(*f) for other, f, _ in VALUE_TYPES if other is not cls]
    assert all(x != y and not x == y for y in [fields[0], *others])
    # the trusted constructor takes the fields as the constructor does
    assert tuple(inspect.signature(cls._make).parameters) == cls._fields
    assert cls._make(*fields) == x and hash(cls._make(*fields)) == hash(fields)
    # pickling and copying rebuild the value through the validating constructor
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(fields)


# (value, a valid replacement and what it gives, a refused one and its message);
# ``_replace`` builds through the validating constructor, not the trusted ``_make``
REPLACEMENTS = [
    (
        Margins((2, 2)),
        {"n": (1, 3)}, Margins((1, 3)),
        {"n": (0,)}, "block sizes must be positive: (0,)",
    ),
    (
        CosetMatrix(((1, 1), (1, 1)), Margins((2, 2))),
        {"entries": ((2, 0), (0, 2))}, CosetMatrix(((2, 0), (0, 2)), Margins((2, 2))),
        {"margins": Margins((1, 3))}, "row 1 sums to 2, expected 1",
    ),
    (
        OffDiagonalType(((0, 1), (1, 0))),
        {"entries": ((0, 2), (2, 0))}, OffDiagonalType(((0, 2), (2, 0))),
        {"entries": ((0, 2), (1, 0))}, "unbalanced at index 1: column and row sums differ",
    ),
]


@pytest.mark.parametrize(
    "x,good,want,bad,detail", REPLACEMENTS, ids=[type(r[0]).__name__ for r in REPLACEMENTS]
)
def test_replace_validates(x, good, want, bad, detail):
    got = x._replace(**good)
    assert type(got) is type(x) and got == want and hash(got) == hash(want)
    with pytest.raises(ValueError) as exc:
        x._replace(**bad)
    assert str(exc.value) == detail
    with pytest.raises(TypeError):
        x._replace(unknown=1)
    assert x._replace() == x
