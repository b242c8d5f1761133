import itertools
import json
from fractions import Fraction

import pytest

from cosetalg import (
    EpsPolynomial,
    EpsRingElement,
    GradedElement,
    Margins,
    OffDiagonalType,
    UniversalElement,
    check_relations,
    classify,
    commutator,
    embed_offdiagonal,
    poisson_bracket,
    r_element,
    scaled_r_element,
    universal_product,
)
from cosetalg import braid
from cosetalg.cli import main

from helpers import (
    GroupAlgebraVector,
    commutator_witness,
    convolve,
    coset_average,
    cycle_matrices,
    displayed_product_targets,
    mass,
    reference_check_relations,
    young_average,
)


def test_r_element_matrix():
    el = r_element(1, 2, Margins((2, 2)))
    ((m, coeff),) = el.sorted_terms()
    assert m.entries == ((1, 1), (1, 1)) and coeff == 1


def test_r_element_matches_classified_transposition():
    margins = Margins((2, 3, 1))
    g = (2, 1, 0, 3, 4, 5)  # swap a point of block 1 with one of block 2
    ((m, _),) = r_element(1, 2, margins).sorted_terms()
    assert classify(g, margins) == m


def test_r_element_rejects_bad_indices():
    margins = Margins((2, 2))
    with pytest.raises(ValueError):
        r_element(1, 1, margins)
    with pytest.raises(ValueError):
        r_element(0, 2, margins)


def test_sandwiched_transposition_is_coset_average():
    margins = Margins((2, 2))
    pi = young_average(margins)
    g = (2, 1, 0, 3)
    sandwiched = convolve(convolve(pi, GroupAlgebraVector.delta(g)), pi)
    ((m, _),) = r_element(1, 2, margins).sorted_terms()
    assert sandwiched == coset_average(m)


@pytest.mark.parametrize("n", [(2, 2, 2), (1, 2, 3), (1, 1, 2)])
def test_relation8_holds(n):
    report = check_relations(Margins(n))
    by_kind = [c for c in report.checks if c.relation == "(8)"]
    assert by_kind and all(c.holds for c in by_kind)


@pytest.mark.parametrize("n", [(1, 1, 1, 1), (2, 1, 1, 2)])
def test_relation9_holds(n):
    report = check_relations(Margins(n))
    by_kind = [c for c in report.checks if c.relation == "(9)"]
    assert by_kind and all(c.holds for c in by_kind)


def test_relation8_fails_unscaled_at_unequal_blocks():
    # the scaling is essential: with plain r-elements the mixed relation breaks
    margins = Margins((1, 2, 3))
    bad = commutator(
        r_element(1, 2, margins),
        r_element(2, 3, margins) + r_element(1, 3, margins),
    )
    assert not bad.is_zero()
    good = commutator(
        scaled_r_element(1, 2, margins),
        scaled_r_element(2, 3, margins) + scaled_r_element(1, 3, margins),
    )
    assert good.is_zero()


def test_displayed_product_coefficients():
    margins = Margins((1, 3, 1))
    prod, chain, cycle = displayed_product_targets(1, 2, 3, margins)
    assert prod.terms == {chain: Fraction(2, 3), cycle: Fraction(1, 3)}
    margins = Margins((2, 2, 2))
    prod, chain, cycle = displayed_product_targets(1, 2, 3, margins)
    assert prod.terms == {chain: Fraction(1, 2), cycle: Fraction(1, 2)}


def test_commutator_witness_structure():
    margins = Margins((3, 3, 3))
    w = commutator_witness(1, 2, 3, margins)
    fwd, rev = cycle_matrices(1, 2, 3, margins)
    assert w.terms == {fwd: Fraction(1, 3), rev: Fraction(-1, 3)}


@pytest.mark.parametrize("n", [(2, 2, 2), (1, 2, 3), (3, 3, 3)])
def test_commutator_witness_all_triples(n):
    margins = Margins(n)
    for i, j, k in itertools.permutations((1, 2, 3), 3):
        w = commutator_witness(i, j, k, margins)
        fwd, rev = cycle_matrices(i, j, k, margins)
        nj = Fraction(1, margins.n[j - 1])
        assert w.terms == {fwd: nj, rev: -nj}
        assert mass(w) == 0


def test_witness_antisymmetry():
    margins = Margins((1, 2, 3))
    x = r_element(2, 3, margins)
    y = r_element(1, 2, margins)
    assert commutator(x, y) == (-1) * commutator(y, x)


def test_r_symmetric_in_indices():
    margins = Margins((2, 3, 1))
    assert r_element(1, 3, margins) == r_element(3, 1, margins)


def test_relations_against_oracle():
    # replay one relation instance entirely inside the group algebra
    margins = Margins((1, 1, 2))

    def avg(i, j):
        ((m, _),) = r_element(i, j, margins).sorted_terms()
        return coset_average(m)

    def scaled(v, x):
        return Fraction(v) * x

    n = margins.n
    lhs = convolve(scaled(n[0] * n[1], avg(1, 2)),
                   scaled(n[1] * n[2], avg(2, 3)) + scaled(n[0] * n[2], avg(1, 3)))
    rhs = convolve(scaled(n[1] * n[2], avg(2, 3)) + scaled(n[0] * n[2], avg(1, 3)),
                   scaled(n[0] * n[1], avg(1, 2)))
    assert lhs == rhs


def test_check_builds_each_scaled_element_once(monkeypatch):
    # nu(nu - 1) = 12 ordered pairs at nu = 4, where the 24 instances of (8) and
    # 6 of (9) read 84 elements
    calls = []

    def counting(i, j, margins):
        calls.append((i, j))
        return scaled_r_element(i, j, margins)

    monkeypatch.setattr(braid, "scaled_r_element", counting)
    margins = Margins((3, 3, 3, 3))
    report = check_relations(margins)
    assert sorted(calls) == list(itertools.permutations(range(1, 5), 2))
    assert [c.relation for c in report.checks].count("(9)") == 6
    assert report == reference_check_relations(margins)


@pytest.mark.parametrize("n", [(3, 3, 3, 3), (1, 2, 3), (2, 1, 1, 2), (1, 2, 3, 1, 2)])
def test_check_matches_fresh_elements(n):
    margins = Margins(n)
    report = check_relations(margins)
    assert report.ok and report.checks
    assert report == reference_check_relations(margins)
    for i, j in itertools.permutations(range(1, margins.nu + 1), 2):
        scale = margins.n[i - 1] * margins.n[j - 1]
        ((_, coeff),) = scaled_r_element(i, j, margins).terms.items()
        assert type(coeff) is int and coeff == scale


def test_report_json_shape(capsys):
    report = check_relations(Margins((1, 1, 2)))
    assert main(["braid-check", "--n", "1,1,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert report.ok and payload["all_hold"] is True
    assert {c["relation"] for c in payload["checks"]} == {"(8)"}


# Relations (8) and (9) for all margins at once.  With T_ij = n_i n_j r_ij =
# E_ij E_ji - n_i, the polarisation operators' gl_2 Casimir of {i, j} up to a
# constant, (8) is [T_ij, T_ik + T_jk] = 0 and (9) is [T_ij, T_kl] = 0; dividing
# (8) by n_i^2 n_j^2 n_k gives eps_i [r_ij, r_jk] + eps_j [r_ij, r_ik] = 0 at
# eps_j = 1/n_j.  (nu, ordered triples, ordered quadruples of distinct indices)
MARGIN_FREE = [(3, 6, 0), (4, 24, 24), (5, 60, 120)]


def _r_type(nu, i, j):
    return OffDiagonalType.build(nu, {(i, j): 1, (j, i): 1})


def _eps(nu, i):
    """eps_i as a universal element: the ring monomial on the unit type."""
    deg = tuple(int(k == i) for k in range(nu))
    monomial = EpsRingElement(nu, EpsPolynomial.monomial(nu, deg))
    return UniversalElement(nu, {OffDiagonalType.zero(nu): monomial})


@pytest.mark.parametrize("nu,triples,quadruples", MARGIN_FREE)
def test_braid_relations_without_margins(nu, triples, quadruples):
    r = {
        (i, j): UniversalElement.basis(_r_type(nu, i, j))
        for i, j in itertools.permutations(range(nu), 2)
    }

    def com(x, y):
        return x * y - y * x

    seen = 0
    for i, j, k in itertools.permutations(range(nu), 3):
        first, second = com(r[i, j], r[j, k]), com(r[i, j], r[i, k])
        assert (_eps(nu, i) * first + _eps(nu, j) * second).is_zero(), (i, j, k)
        if nu <= 4:
            # not vacuous: neither the unscaled sum nor the swapped scaling vanishes
            assert not (first + second).is_zero()
            assert not (_eps(nu, j) * first + _eps(nu, i) * second).is_zero()
        seen += 1
    assert seen == triples
    seen = 0
    for i, j, k, l in itertools.permutations(range(nu), 4):
        assert com(r[i, j], r[k, l]).is_zero(), (i, j, k, l)
        seen += 1
    assert seen == quadruples


@pytest.mark.parametrize("nu", [nu for nu, _, _ in MARGIN_FREE])
def test_braid_relations_in_the_poisson_limit(nu):
    r = {
        (i, j): GradedElement.basis(_r_type(nu, i, j))
        for i, j in itertools.permutations(range(nu), 2)
    }
    for i, j, k in itertools.permutations(range(nu), 3):
        single = poisson_bracket(r[i, j], r[j, k])
        assert not single.is_zero(), (i, j, k)
        assert (single + poisson_bracket(r[i, j], r[i, k])).is_zero(), (i, j, k)
    for i, j, k, l in itertools.permutations(range(nu), 4):
        assert poisson_bracket(r[i, j], r[k, l]).is_zero(), (i, j, k, l)


def _displayed_pattern(nu, i, j, k):
    """Criterion 4's displayed product in universal form (0-based indices):
    r_ij r_jk = (1 - eps_j) * chain + eps_j * cycle, where the chain is
    r_ij + r_jk and the cycle moves a point j -> i -> k -> j, so that its
    orientation follows the order of the factors."""
    eps_j = EpsRingElement(nu, EpsPolynomial.monomial(nu, tuple(int(x == j) for x in range(nu))))
    chain = _r_type(nu, i, j) + _r_type(nu, j, k)
    cycle = OffDiagonalType.build(nu, {(j, i): 1, (i, k): 1, (k, j): 1})
    return {chain: EpsRingElement.from_rational(nu, 1) - eps_j, cycle: eps_j}


@pytest.mark.parametrize("nu", [3, 4])
def test_displayed_product_in_universal_form(nu):
    for i, j, k in itertools.permutations(range(nu), 3):
        want = _displayed_pattern(nu, i, j, k)
        assert universal_product(_r_type(nu, i, j), _r_type(nu, j, k)) == want, (i, j, k)
    if nu > 3:
        return
    # at (1, 2, 3) the coefficients read the same in both orders; the cycles are opposite
    for a, b in [(0, 2), (2, 0)]:
        product = universal_product(_r_type(nu, a, 1), _r_type(nu, 1, b))
        assert sorted(map(repr, product.values())) == ["1 + -1*e2", "1*e2"]
        (cycle,) = [c for c, v in product.items() if repr(v) == "1*e2"]
        assert cycle.entries[1][a] == cycle.entries[a][b] == cycle.entries[b][1] == 1


@pytest.mark.parametrize("n", [(2, 2, 2), (1, 2, 3), (3, 3, 3)])
def test_displayed_product_specialises_to_criterion_4(n):
    # criterion 4's finite product r_jk * r_ij carries (n_j - 1)/n_j on the
    # chain and 1/n_j on the forward cycle; at n_j = 1 the chain's 1 - eps_j
    # specialises to 0, where the finite product has no chain
    margins = Margins(n)
    for i, j, k in itertools.permutations(range(3), 3):
        pattern = _displayed_pattern(3, k, j, i)
        values = {c: v.specialize(margins) for c, v in pattern.items()}
        nj = n[j]
        assert sorted(values.values()) == sorted([Fraction(nj - 1, nj), Fraction(1, nj)])
        product, _, _ = displayed_product_targets(i + 1, j + 1, k + 1, margins)
        assert product.terms == {embed_offdiagonal(c, margins): v for c, v in values.items() if v}
