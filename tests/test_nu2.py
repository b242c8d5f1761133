from fractions import Fraction
from math import comb, factorial

import pytest

from cosetalg import (
    EpsPolynomial,
    EpsRingElement,
    HypergeometricParameterError,
    Margins,
    OffDiagonalType,
    f43_terminating,
    phi_matrix,
    s_closed_form,
    s_eq3,
    s_oracle,
    s_sum,
    universal_structure_constant,
)

from helpers import universal_s


def test_s_sum_identity_row():
    for n1, n2 in [(2, 3), (4, 4)]:
        for b in range(min(n1, n2) + 1):
            for c in range(min(n1, n2) + 1):
                assert s_sum(0, b, c, n1, n2) == Fraction(b == c)


def test_s_sum_domain_check():
    with pytest.raises(ValueError):
        s_sum(3, 0, 0, 2, 4)


def test_s_sum_vanishes_above_index_sum():
    for c in range(3):
        v = s_sum(1, 1, c, 4, 4)
        assert (v == 0) == (c > 2)


def test_f43_empty_series():
    assert f43_terminating((0, 0, 0, 0), (1, 1, 1)) == 1
    assert f43_terminating((0, 5, -3, 2), (1, 7, 9)) == 1


def test_f43_two_term():
    # single upper -1 gives 1 + (prod upper)/(prod lower)
    val = f43_terminating((-1, 2, 3, 4), (5, 6, 7))
    assert val == 1 + Fraction((-1) * 2 * 3 * 4, 5 * 6 * 7)


def test_f43_requires_termination():
    with pytest.raises(ValueError):
        f43_terminating((1, 2, 3, 4), (5, 6, 7))


def test_f43_lower_pochhammer_guard():
    with pytest.raises(HypergeometricParameterError):
        f43_terminating((-3, 1, 1, 1), (-1, 5, 5))


def test_closed_form_trivial():
    assert s_closed_form(0, 0, 0, 3, 4) == 1


def test_closed_form_uses_classical_parameters_when_valid():
    # base shift is zero on this branch, so prefactor and parameters are the
    # textbook ones; compare against a hand-computed value
    a, b, c, n1, n2 = 1, 1, 2, 3, 4
    pref = Fraction(
        factorial(a) * factorial(b)
        * factorial(n1 - a) * factorial(n2 - a) * factorial(n1 - b) * factorial(n2 - b),
        factorial(n1) * factorial(n2) * factorial(n1 - c) * factorial(n2 - a - b)
        * factorial(a + b - c) * factorial(c - a) * factorial(c - b),
    )
    val = pref * f43_terminating((-a, -b, c - a - b, c - n1), (c - b + 1, c - a + 1, n2 - a - b + 1))
    assert s_closed_form(a, b, c, n1, n2) == val == s_sum(a, b, c, n1, n2)


@pytest.mark.parametrize("n1,n2", [(2, 2), (3, 3), (2, 4), (4, 3), (4, 8), (8, 4), (3, 8)])
def test_closed_form_equals_sum_exhaustive(n1, n2):
    top = min(n1, n2)
    for a in range(top + 1):
        for b in range(top + 1):
            for c in range(top + 1):
                assert s_closed_form(a, b, c, n1, n2) == s_sum(a, b, c, n1, n2)


def test_closed_form_equals_sum_at_large_margins():
    # the exhaustive loop cannot reach n ~ 10**6; every small (a, b, c) there,
    # where each route's cost must not grow with the diagonal
    n1, n2 = 10**6, 10**6 + 7
    for a in range(5):
        for b in range(5):
            for c in range(5):
                value = s_sum(a, b, c, n1, n2)
                assert s_closed_form(a, b, c, n1, n2) == value == s_eq3(a, b, c, n1, n2)
    assert s_sum(1, 1, 0, n1, n2) == Fraction(1, n1 * n2)


def test_boundary_branch():
    # a + b = n2 sits on the boundary between the two summation bases
    n1, n2 = 5, 4
    for a in range(5):
        b = n2 - a
        if b < 0 or b > min(n1, n2):
            continue
        for c in range(min(n1, n2) + 1):
            assert s_closed_form(a, b, c, n1, n2) == s_sum(a, b, c, n1, n2)


def test_matches_general_tensor_sum():
    n1 = n2 = 3
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert s_sum(a, b, c, n1, n2) == s_eq3(a, b, c, n1, n2)


def test_matches_oracle_small():
    for n1, n2 in [(2, 2), (2, 3)]:
        top = min(n1, n2)
        for a in range(top + 1):
            for b in range(top + 1):
                for c in range(top + 1):
                    assert s_sum(a, b, c, n1, n2) == s_oracle(a, b, c, n1, n2)


@pytest.mark.parametrize("n1,n2", [(3, 3), (3, 4), (2, 5)])
def test_commutativity(n1, n2):
    top = min(n1, n2)
    for a in range(top + 1):
        for b in range(top + 1):
            for c in range(top + 1):
                assert s_sum(a, b, c, n1, n2) == s_sum(b, a, c, n1, n2)


def test_associativity_identity_small():
    n1 = n2 = 3
    top = min(n1, n2)
    rng = range(top + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    lhs = sum(
                        s_closed_form(a, b, g, n1, n2) * s_closed_form(g, c, d, n1, n2)
                        for g in rng
                    )
                    rhs = sum(
                        s_closed_form(a, g, d, n1, n2) * s_closed_form(b, c, g, n1, n2)
                        for g in rng
                    )
                    assert lhs == rhs


def test_universal_s_diagonal_free():
    for a in range(5):
        got = universal_s(a, a, 0)
        den = {}
        for m in range(1, a):
            den[(0, m)] = 1
            den[(1, m)] = 1
        want = EpsRingElement(
            2, EpsPolynomial.monomial(2, (a, a), factorial(a) ** 2), den
        )
        assert got == want


def test_universal_s_simple_cross():
    assert universal_s(1, 1, 0) == EpsRingElement(2, EpsPolynomial.monomial(2, (1, 1), 1))


def test_universal_s_matches_general_universal_constants():
    def tb(v):
        return OffDiagonalType(((0, v), (v, 0)))

    for a in range(4):
        for b in range(4):
            for c in range(a + b + 1):
                assert universal_s(a, b, c) == universal_structure_constant(
                    tb(a), tb(b), tb(c)
                )


def test_universal_s_specializes_to_sum():
    for n1, n2 in [(3, 3), (3, 5), (4, 4)]:
        top = min(n1, n2)
        margins = Margins((n1, n2))
        for a in range(top + 1):
            for b in range(top + 1):
                for c in range(top + 1):
                    assert universal_s(a, b, c).specialize(margins) == s_sum(
                        a, b, c, n1, n2
                    )


def test_phi_matrix():
    m = phi_matrix(1, 2, 3)
    assert m.entries == ((1, 1), (1, 2))


# nu = 2 is the Johnson scheme J(n1 + n2, n1) (Delsarte 1973): for n1 <= n2 the
# basis element a is the scheme's distance-a relation over its valency
# C(n1, a) C(n2, a), so on the k-th common eigenspace it acts as
# omega_k(a) = E_a(k) / (C(n1, a) C(n2, a)), with the Eberlein polynomial
# E_a(k) = sum_j (-1)^j C(k, j) C(n1 - k, a - j) C(n2 - k, a - j), so
# omega_k(a) omega_k(b) = sum_c s(a, b, c) omega_k(c) for every k.  No
# permutation is formed, so the check reaches past the oracle's N <= 9.
def _eberlein(a, k, n1, n2, sign=-1):
    return sum(
        sign**j * comb(k, j) * comb(n1 - k, a - j) * comb(n2 - k, a - j) for j in range(a + 1)
    )


def _johnson_failures(n1, n2, s, sign=-1):
    """The (k, a, b) at which the eigenvalues do not multiply by the constants s(a, b, c)."""
    top = range(n1 + 1)
    omega = [
        [Fraction(_eberlein(a, k, n1, n2, sign), comb(n1, a) * comb(n2, a)) for a in top]
        for k in top
    ]
    table = {(a, b, c): s(a, b, c, n1, n2) for a in top for b in top for c in top}
    return [
        (k, a, b)
        for k in top
        for a in top
        for b in top
        if omega[k][a] * omega[k][b] != sum(table[a, b, c] * omega[k][c] for c in top)
    ]


def test_two_blocks_are_the_johnson_scheme():
    instances = 0
    for n1 in range(1, 9):
        for n2 in range(n1, 12):
            assert _johnson_failures(n1, n2, s_sum) == [], (n1, n2)
            instances += (n1 + 1) ** 3
    assert instances == 10980
    # not vacuous: without the sign the eigenvalues do not multiply
    assert _johnson_failures(3, 4, s_sum, sign=1) != []


@pytest.mark.parametrize("n1,n2", [(4, 6), (5, 5), (3, 9)])
def test_tensor_route_is_the_johnson_scheme(n1, n2):
    # s_eq3 is the finite algebra's tensor sum, here at N = 10 and 12
    assert _johnson_failures(n1, n2, s_eq3) == []
