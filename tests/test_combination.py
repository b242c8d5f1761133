"""The shared sparse-combination behaviour of every combination type."""

import itertools
from fractions import Fraction

import pytest

from cosetalg import (
    AlgebraElement,
    EpsPolynomial,
    EpsRingElement,
    GradedElement,
    Margins,
    OffDiagonalType,
    UniversalElement,
    combination,
    enumerate_coset_matrices,
    graded_multiply,
    multiply,
    poisson_bracket,
    universal_product,
)

from helpers import GroupAlgebraVector, convolve, mass


def _types(nu):
    return [OffDiagonalType.zero(nu), OffDiagonalType.build(nu, {(0, 1): 1, (1, 0): 1})]


# per class: a space, two keys in it and a key in another space
KEYS = {
    AlgebraElement: (
        Margins((2, 2)),
        enumerate_coset_matrices(Margins((2, 2)))[:2],
        enumerate_coset_matrices(Margins((1, 2)))[0],
    ),
    GradedElement: (2, _types(2), OffDiagonalType.zero(3)),
    UniversalElement: (2, _types(2), OffDiagonalType.zero(3)),
    GroupAlgebraVector: (3, [(0, 1, 2), (1, 0, 2)], (1, 0)),
    EpsPolynomial: (2, [(0, 0), (1, 0)], (0, 0, 0)),
}
CLASSES = list(KEYS)


def _element(cls):
    space, (k1, k2), _ = KEYS[cls]
    return cls(space, {k1: Fraction(1, 2), k2: -3})


@pytest.mark.parametrize("cls", CLASSES)
def test_zero_coefficients_are_dropped(cls):
    space, (k1, k2), _ = KEYS[cls]
    x = cls(space, {k1: 0, k2: Fraction(1, 2)})
    assert list(x.terms) == [k2]
    assert x == cls(space, {k2: Fraction(1, 2)})
    assert cls(space, {k1: Fraction(0)}).is_zero()


@pytest.mark.parametrize("cls", [AlgebraElement, GradedElement, GroupAlgebraVector, EpsPolynomial])
def test_rational_coefficients_stored_exactly(cls):
    space, (k1, k2), _ = KEYS[cls]
    x = cls(space, {k1: Fraction(4, 2), k2: Fraction(1, 3)})
    assert type(x.terms[k1]) is int and x.terms[k1] == 2
    assert x.terms[k2] == Fraction(1, 3)
    assert type(cls.basis(k1).terms[k1]) is int


@pytest.mark.parametrize("cls", CLASSES)
def test_self_difference_and_zero_multiple_vanish(cls):
    x = _element(cls)
    assert not x.is_zero()
    assert (x - x).is_zero()
    assert (0 * x).is_zero()
    assert (Fraction(0) * x).is_zero()
    assert x - x == cls.zero(KEYS[cls][0])
    assert 2 * x == x + x


def _scalars(x):
    """The rational coefficients of x: over the eps-ring, its numerators' coefficients."""
    if type(x) is UniversalElement:
        return [c for coeff in x.terms.values() for c in coeff.num.terms.values()]
    return list(x.terms.values())


@pytest.mark.parametrize("cls", [AlgebraElement, GradedElement, EpsPolynomial, UniversalElement])
def test_difference_merges_directly(cls):
    # a shared key with int coefficients, a key only in the first operand with
    # a Fraction, a key only in the second, and a shared key that cancels
    space, (k1, k2), _ = KEYS[cls]
    x = cls(space, {k1: Fraction(1, 2), k2: -3})
    pairs = [
        (x, cls(space, {k2: 5})),
        (cls(space, {k2: 5}), x),
        (x, cls(space, {k1: Fraction(1, 2), k2: 4})),
        (x, cls(space, {k1: Fraction(3, 2)})),
        (x, cls.zero(space)),
        (cls.zero(space), x),
    ]
    for a, b in pairs:
        got, want = a - b, a + (-1) * b
        assert got == want
        assert list(got.terms) == list(want.terms)
        assert [type(c) for c in _scalars(got)] == [type(c) for c in _scalars(want)]
    assert not (x - x).terms and (x - x) == cls.zero(space)
    d = x - cls(space, {k2: 5})
    assert _scalars(d) == [Fraction(1, 2), -8]
    assert [type(c) for c in _scalars(d)] == [Fraction, int]
    # a Fraction difference that is integral stays a Fraction
    whole = x - cls(space, {k1: Fraction(3, 2)})
    assert [type(c) for c in _scalars(whole)] == [Fraction, int]
    assert _scalars(whole) == [-1, -3]
    assert [type(c) for c in _scalars(cls(space, {k2: 5}) - x)] == [int, Fraction]


def test_universal_difference_over_the_ring():
    # ring coefficients are subtracted as ring elements, in the first operand's order
    space, (k1, k2), _ = KEYS[UniversalElement]
    eps = EpsRingElement(space, EpsPolynomial(space, {(1, 0): 1}))
    x = UniversalElement(space, {k1: eps, k2: 2})
    y = UniversalElement(space, {k2: eps, k1: eps})
    got = x - y
    assert got == x + (-1) * y and list(got.terms) == [k2]
    assert got.terms[k2] == EpsRingElement.from_rational(space, 2) - eps


@pytest.mark.parametrize("cls", CLASSES)
def test_negation_is_the_minus_one_multiple(cls):
    x = _element(cls)
    assert -x == (-1) * x
    assert (x + (-x)).is_zero()


@pytest.mark.parametrize("cls", CLASSES)
def test_coefficient_and_sorted_terms(cls):
    space, (k1, k2), _ = KEYS[cls]
    x = _element(cls)
    assert x.coefficient(k1) == x.terms[k1]
    assert not cls.zero(space).coefficient(k1)
    assert [k for k, _ in x.sorted_terms()] == sorted([k1, k2])
    assert mass(x) == x.terms[k1] + x.terms[k2]


def test_missing_coefficient_is_the_ring_zero(monkeypatch):
    # a key with no term reads as the int 0 over the rationals, and neither
    # that zero nor a basis element's int 1 passes through a Fraction; over
    # the eps-ring it reads as the zero ring element
    built = []
    monkeypatch.setattr(combination, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    for cls in (AlgebraElement, EpsPolynomial):
        space, (k1, k2), _ = KEYS[cls]
        got = cls.basis(k1).coefficient(k2)
        assert got == 0 and type(got) is int
    assert built == []
    space, (k1, k2), _ = KEYS[UniversalElement]
    got = UniversalElement.basis(k1).coefficient(k2)
    assert type(got) is EpsRingElement and got == EpsRingElement.zero(space)


@pytest.mark.parametrize("cls", CLASSES)
def test_other_space_never_equal_nor_added(cls):
    space, (k1, _), other = KEYS[cls]
    x, y = cls.basis(k1), cls.basis(other)
    assert x != y
    assert cls.zero(space) != y - y
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x - y
    with pytest.raises(ValueError):
        cls(space, {other: 1})


@pytest.mark.parametrize("cls1, cls2", list(itertools.permutations(CLASSES, 2)))
def test_other_type_never_equal_nor_added(cls1, cls2):
    x, y = _element(cls1), _element(cls2)
    assert x != y
    assert cls1.zero(KEYS[cls1][0]) != cls2.zero(KEYS[cls2][0])
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x - y


def test_negative_exponent_is_rejected():
    with pytest.raises(ValueError):
        EpsPolynomial(2, {(-1, 0): 1})


@pytest.mark.parametrize(
    "x_cls, product",
    [(AlgebraElement, multiply), (GradedElement, graded_multiply), (GroupAlgebraVector, convolve)],
)
def test_single_term_product_keeps_coefficient_types(x_cls, product):
    # a unit int weight takes the basis product's values as they are; an
    # integral Fraction weight still scales them, so an int value becomes a
    # Fraction exactly as w * v does
    space, (k1, k2), _ = KEYS[x_cls]
    one = x_cls.basis(k1)
    half = x_cls(space, {k1: Fraction(1, 2)})
    whole = half + half
    assert type(whole.terms[k1]) is Fraction
    y = x_cls.basis(k2)
    unit = product(one, y)
    for w, x in ((1, one), (Fraction(1), whole), (Fraction(1, 2), half)):
        got = product(x, y)
        assert got.terms == {c: w * v for c, v in unit.terms.items()}
        assert [type(v) for v in got.terms.values()] == [
            type(w * v) for v in unit.terms.values()
        ]


def _finite_pair():
    a, b = enumerate_coset_matrices(Margins((2, 2, 2)))[5:7]
    return multiply(AlgebraElement.basis(a), AlgebraElement.basis(b)).terms


def _universal_pair():
    a = OffDiagonalType.build(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    return universal_product(a, a)


def _bracket_pair():
    a = OffDiagonalType.build(3, {(0, 1): 1, (1, 0): 1})
    b = OffDiagonalType.build(3, {(1, 2): 1, (2, 1): 1})
    return poisson_bracket(GradedElement.basis(a), GradedElement.basis(b)).terms


@pytest.mark.parametrize("product", [_finite_pair, _universal_pair, _bracket_pair])
def test_products_share_keys_but_not_dicts(product):
    # a repeated product hands out the key objects its cache built, each
    # time in a dict of its own: changing one result changes no later one
    first = product()
    keys, want = list(first), dict(first)
    assert len(keys) > 1
    del first[keys[0]]
    first[keys[1]] = first[keys[1]] + first[keys[1]]
    second = product()
    assert second == want
    assert len(second) == len(keys) and all(x is y for x, y in zip(second, keys))
