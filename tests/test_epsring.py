import random
from fractions import Fraction
from math import factorial, prod

import pytest

from cosetalg import (
    EpsPolynomial,
    EpsRingElement,
    Margins,
    OffDiagonalType,
    PoleAtSpecialization,
    bracket,
    universal_product,
)
from cosetalg import epsring
from cosetalg.cli import _ring_json
from helpers import (
    div_by_bracket,
    evaluate,
    from_polynomial,
    reference_evaluate,
    reference_expand,
    reference_specialize,
    truncate,
)


def poly1(coeff_map):
    return EpsPolynomial(1, {(d,): Fraction(v) for d, v in coeff_map.items()})


def test_bracket_empty():
    for p in (0, 1, 4):
        assert bracket(p, p, 0, 1) == EpsPolynomial.constant(1, 1)


def test_bracket_0_2():
    assert bracket(0, 2, 0, 1) == poly1({0: 1, 1: -1})


def test_bracket_1_3():
    assert bracket(1, 3, 0, 1) == poly1({0: 1, 1: -3, 2: 2})


def test_bracket_concatenation():
    for p, q, r in [(0, 1, 3), (1, 2, 4), (0, 3, 5), (2, 2, 2)]:
        assert bracket(p, q, 0, 2) * bracket(q, r, 0, 2) == bracket(p, r, 0, 2)


def test_bracket_rejects_bad_range():
    with pytest.raises(ValueError):
        bracket(3, 1, 0, 1)


def test_ring_identity_laws():
    x = EpsRingElement(1, poly1({0: 2, 1: 3}), {(0, 1): 1})
    assert x + EpsRingElement.zero(1) == x
    assert x * EpsRingElement.one(1) == x
    assert (x - x).is_zero()


def test_bracket_quotient_telescopes():
    x = from_polynomial(bracket(0, 3, 0, 1))
    q = div_by_bracket(x, 0, 2, 0)
    assert q == from_polynomial(poly1({0: 1, 1: -2}))
    assert q.den == {}  # cancellation happened


def test_inverse_of_factor():
    one = EpsRingElement.one(1)
    inv = div_by_bracket(one, 1, 2, 0)  # 1 / (1 - eps)
    assert inv.den == {(0, 1): 1}
    assert inv * from_polynomial(poly1({0: 1, 1: -1})) == one


def test_specialize_constant_value():
    x = EpsRingElement.from_rational(2, Fraction(3, 7))
    assert x.specialize(Margins((4, 5))) == Fraction(3, 7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_factorial_identity_under_specialization(n):
    # n! = n^n * (1 - 1/n)(1 - 2/n)...(1 - (n-1)/n)
    value = evaluate(bracket(0, n, 0, 1), (Fraction(1, n),))
    assert n**n * value == factorial(n)


def test_pole_detection():
    margins = Margins((2, 5))
    x = div_by_bracket(EpsRingElement.one(2), 0, 4, 0)  # 1/((0,4;eps_1)), poles at 1/1..1/3
    with pytest.raises(PoleAtSpecialization) as err:
        x.specialize(margins)
    assert (err.value.j, err.value.m) == (1, 2)
    # same denominator in the second variable is harmless at n_2 = 5
    y = div_by_bracket(EpsRingElement.one(2), 0, 4, 1)
    assert y.specialize(margins) == Fraction(1) / (
        (1 - Fraction(1, 5)) * (1 - Fraction(2, 5)) * (1 - Fraction(3, 5))
    )


def test_pole_reported_is_the_smallest_whatever_the_den_order():
    # canonical (the numerator is 1), with the larger pole listed first
    x = EpsRingElement._make(2, EpsPolynomial.constant(2, 1), {(1, 3): 1, (0, 2): 1})
    assert list(x.den) == [(1, 3), (0, 2)]
    with pytest.raises(PoleAtSpecialization) as err:
        x.specialize(Margins((2, 3)))
    assert (err.value.j, err.value.m) == (1, 2)


def test_expand_geometric():
    inv = div_by_bracket(EpsRingElement.one(1), 1, 2, 0)
    s = inv.expand(2)
    assert s.coefficient((0,)) == 1
    assert s.coefficient((1,)) == 1
    assert s.coefficient((2,)) == 1


def test_expand_polynomial_truncates():
    p = from_polynomial(poly1({0: 5, 1: -2, 3: 9}))
    s = p.expand(1)
    assert s.coefficient((0,)) == 5
    assert s.coefficient((1,)) == -2
    assert s.coefficient((3,)) == 0


def random_element(rng, nu, max_mult=2):
    num = EpsPolynomial(
        nu,
        {
            tuple(rng.randrange(3) for _ in range(nu)): Fraction(
                rng.randrange(-4, 5), rng.randrange(1, 4)
            )
            for _ in range(rng.randrange(1, 4))
        },
    )
    den = {}
    for _ in range(rng.randrange(0, 3)):
        den[(rng.randrange(nu), rng.randrange(1, 4))] = rng.randrange(1, max_mult + 1)
    return EpsRingElement(nu, num, den)


def test_expand_is_multiplicative_and_additive():
    rng = random.Random(12345)
    for _ in range(40):
        x = random_element(rng, 2)
        y = random_element(rng, 2)
        order = rng.randrange(0, 4)
        assert (x * y).expand(order) == truncate(x.expand(order) * y.expand(order), order)
        assert (x + y).expand(order) == x.expand(order) + y.expand(order)


def test_expand_matches_reference():
    # Fraction numerators, factors repeated up to 3 times and several variables
    # in the denominator
    rng = random.Random(2468)
    for _ in range(60):
        x = random_element(rng, rng.randrange(1, 5), max_mult=3)
        for order in range(7):
            assert x.expand(order) == reference_expand(x, order), (x, order)


def test_specialize_commutes_with_ring_ops():
    rng = random.Random(999)
    margins = Margins((5, 7))
    for _ in range(40):
        x = random_element(rng, 2)
        y = random_element(rng, 2)
        assert (x + y).specialize(margins) == x.specialize(margins) + y.specialize(margins)
        assert (x * y).specialize(margins) == x.specialize(margins) * y.specialize(margins)


def test_equality_via_cross_multiplication():
    # (1 - 2 eps) / (1 - eps) equals ((0,3)) / ((0,2)) in any representation
    lhs = div_by_bracket(from_polynomial(poly1({0: 1, 1: -2})), 1, 2, 0)
    rhs = div_by_bracket(div_by_bracket(from_polynomial(bracket(0, 3, 0, 1)), 0, 2, 0), 1, 2, 0)
    assert lhs == rhs
    assert not (lhs == 2 * rhs)


def test_canonical_form_cancels_hidden_factors():
    # numerator deliberately contains the denominator factor
    num = poly1({0: 1, 1: -3}) * poly1({0: 2, 1: 5})
    x = EpsRingElement(1, num, {(0, 3): 1})
    assert x.den == {}
    assert x.num == poly1({0: 2, 1: 5})


def test_canonical_form_cancels_repeated_factors():
    f = poly1({0: 1, 1: -2})
    x = EpsRingElement(1, f * f * poly1({0: 1, 1: 1}), {(0, 2): 3, (0, 1): 1})
    assert x.den == {(0, 2): 1, (0, 1): 1}
    assert x.num == poly1({0: 1, 1: 1})


def _at_pole(poly, j, m):
    """poly with eps_j = 1/m substituted exactly, as {other exponents: value}."""
    out = {}
    for deg, coeff in poly.terms.items():
        rest = deg[:j] + deg[j + 1 :]
        out[rest] = out.get(rest, 0) + Fraction(coeff, m ** deg[j])
    return {d: v for d, v in out.items() if v}


@pytest.mark.parametrize("nu", [2, 3, 4])
def test_divide_out_cancels_the_whole_multiset(nu):
    # the input is a random polynomial times random factors, and divide_out
    # is handed a multiset that overlaps them; checked without eps_j-chains:
    # the quotient times what was divided gives the input back, and no factor
    # left over vanishes on the quotient at eps_j = 1/m
    rng = random.Random(4000 + nu)
    for trial in range(60):
        base = EpsPolynomial(nu, {
            tuple(rng.randrange(3) for _ in range(nu)): rng.choice((-3, -2, -1, 1, 2, 4))
            for _ in range(rng.randrange(1, 4) if trial else 0)  # trial 0: the zero polynomial
        })
        variables = rng.sample(range(nu), rng.randrange(2, nu + 1))
        factors = {(j, m): rng.randrange(4) for j in variables for m in rng.sample(range(1, 4), 2)}
        poly = base
        for (j, m), mult in factors.items():
            for _ in range(rng.randrange(mult + 2)):
                poly = poly * bracket(m, m + 1, j, nu)
        quotient, left = poly.divide_out(factors)
        assert all(0 < left[f] <= factors[f] for f in left)
        back = quotient
        for (j, m), mult in factors.items():
            for _ in range(mult - left.get((j, m), 0)):
                back = back * bracket(m, m + 1, j, nu)
        assert back == poly, (poly, factors)
        if poly.is_zero():
            assert quotient.is_zero() and left == {}
        for j, m in left:
            assert _at_pole(quotient, j, m), (poly, factors, (j, m))


def test_equality_across_different_denominators():
    # x = (1-eps)/(1-2eps), y = (1-eps)^2 / ((1-2eps)(1-eps))
    one_minus = poly1({0: 1, 1: -1})
    x = EpsRingElement(1, one_minus, {(0, 2): 1})
    y = EpsRingElement(1, one_minus * one_minus, {(0, 2): 1, (0, 1): 1})
    assert x == y
    assert x.den == y.den == {(0, 2): 1}


def test_json_shape():
    x = EpsRingElement(2, EpsPolynomial(2, {(1, 0): Fraction(1, 2)}), {(1, 3): 2})
    assert _ring_json(x) == {
        "num": [{"deg": [1, 0], "coeff": "1/2"}],
        "den": [{"j": 2, "m": 3, "mult": 2}],
    }


def test_evaluate_matches_reference_at_rational_points():
    # numerators other than 1, negative values and zero, Fraction coefficients
    rng = random.Random(4242)
    values = [Fraction(0), Fraction(-1), Fraction(3)]
    values += [Fraction(2, 3), Fraction(-5, 4), Fraction(-7, 9)]
    for _ in range(300):
        nu = rng.randrange(1, 4)
        poly = EpsPolynomial(
            nu,
            {
                tuple(rng.randrange(5) for _ in range(nu)): Fraction(
                    rng.randrange(-9, 10), rng.randrange(1, 6)
                )
                for _ in range(rng.randrange(0, 7))
            },
        )
        point = tuple(rng.choice(values) for _ in range(nu))
        got = evaluate(poly, point)
        assert isinstance(got, Fraction)
        assert got == reference_evaluate(poly, point), (poly, point)


def test_evaluate_accepts_plain_rationals():
    p = EpsPolynomial(2, {(2, 0): Fraction(1, 2), (0, 1): -3, (1, 1): 4})
    assert evaluate(p, (2, Fraction(-1, 3))) == reference_evaluate(p, (2, Fraction(-1, 3)))
    with pytest.raises(ValueError):
        evaluate(p, (1,))


def test_integral_coefficients_are_ints():
    p = EpsPolynomial(1, {(0,): Fraction(4, 2), (1,): Fraction(1, 2)})
    assert type(p.terms[(0,)]) is int
    assert type(p.terms[(1,)]) is Fraction
    assert all(type(c) is int for c in bracket(1, 5, 0, 1).terms.values())
    q = 2 * p
    assert q.terms == {(0,): 4, (1,): 1}
    assert type(q.terms[(0,)]) is int
    series = EpsRingElement(1, bracket(0, 4, 0, 1), {(0, 2): 2}).expand(3)
    assert all(type(c) is int for c in series.terms.values())


def test_specialize_matches_reference():
    # random numerators with Fraction coefficients, factors with multiplicity up to 2,
    # and the zero element
    rng = random.Random(777)
    for margins in (Margins((5, 7)), Margins((4, 9))):
        assert EpsRingElement.zero(2).specialize(margins) == 0
        for _ in range(60):
            x = random_element(rng, 2)
            assert x.specialize(margins) == reference_specialize(x, margins), x


def _table_state(n):
    table = epsring._weight_table(n)
    return table.tops, table.den, dict(table.weights)


def test_weight_table_grows_with_the_degrees_met():
    # one table per margins: E only grows, and growing it re-weights every
    # monomial already met, so each value still equals the reference
    epsring._weight_table.cache_clear()
    margins = Margins((3, 4))
    n = margins.n
    low = EpsRingElement(2, EpsPolynomial(2, {(0, 0): 2, (1, 0): Fraction(1, 3), (0, 1): -5}),
                         {(0, 1): 1})
    high = EpsRingElement(2, EpsPolynomial(2, {(3, 0): 7, (0, 5): 1, (2, 2): -1}), {(1, 2): 2})
    steps = [(low, (1, 1)), (high, (3, 5)), (low, (3, 5)), (EpsRingElement.zero(2), (3, 5))]
    met = set()
    for x, tops in steps:
        assert x.specialize(margins) == reference_specialize(x, margins), x
        met |= x.num.terms.keys()
        table_tops, den, weights = _table_state(n)
        assert table_tops == tops
        assert den == prod(map(pow, n, tops))
        assert weights == {e: prod(k ** (t - d) for k, t, d in zip(n, tops, e)) for e in met}
    # a pole raises before the table is touched, whatever the numerator's degrees
    before = _table_state(n)
    pole = EpsRingElement(2, EpsPolynomial(2, {(9, 9): 1}), {(0, 3): 1})
    with pytest.raises(PoleAtSpecialization):
        pole.specialize(margins)
    assert _table_state(n) == before
    # past the bound of 256 tables the first margins' table is evicted and rebuilt
    for k in range(300):
        other = Margins((5 + k, 2))
        assert low.specialize(other) == reference_specialize(low, other)
    assert epsring._weight_table.cache_info().currsize == 256
    assert high.specialize(margins) == reference_specialize(high, margins)
    assert _table_state(n)[0] == (3, 5)
    assert _table_state(n)[2].keys() == high.num.terms.keys()


@pytest.mark.parametrize(
    "build",
    [
        lambda: EpsPolynomial(1, {(0.5,): 1}),
        lambda: EpsRingElement(1, EpsPolynomial(1, {(0,): 1}), {(0, 1.5): 1}),
        lambda: EpsRingElement(1, EpsPolynomial(1, {(0,): 1}), {(0, 1): 1.5}),
        lambda: EpsRingElement(1, EpsPolynomial.zero(1), {(0.0, 1): 1}),
    ],
    ids=["exponent", "factor", "multiplicity", "variable"],
)
def test_constructors_refuse_non_integers(build):
    # a float exponent used to reach Fraction in specialize, and a float factor
    # or multiplicity gave float series coefficients in expand
    with pytest.raises(TypeError):
        build()


def test_scaling_and_negation_skip_trial_division(monkeypatch):
    # a nonzero rational factor cannot change which denominator factors divide
    # the numerator, so scaling and negation build their result without
    # dividing again; scaling by zero gives the canonical zero
    a = OffDiagonalType(((0, 0, 2), (0, 0, 2), (2, 2, 0)))
    b = OffDiagonalType(((0, 0, 2), (1, 0, 1), (1, 2, 0)))
    coeffs = list(universal_product(a, b).values())
    assert len(coeffs) == 98 and all(y.den for y in coeffs)
    calls = []
    divide_out = EpsPolynomial.divide_out

    def counted(self, factors):
        calls.append(factors)
        return divide_out(self, factors)

    monkeypatch.setattr(EpsPolynomial, "divide_out", counted)
    results = [((-1) * y, -y, Fraction(2, 3) * y, 0 * y) for y in coeffs]
    assert calls == []
    for y, (scaled, negated, third, zero) in zip(coeffs, results):
        want = EpsRingElement(3, -y.num, dict(y.den))
        assert (scaled.num, scaled.den) == (negated.num, negated.den) == (want.num, want.den)
        want = EpsRingElement(3, Fraction(2, 3) * y.num, dict(y.den))
        assert (third.num, third.den) == (want.num, want.den)
        assert zero.is_zero() and zero.den == {}
