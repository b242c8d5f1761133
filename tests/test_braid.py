import itertools
from fractions import Fraction

import pytest

from cosetalg import (
    Margins,
    check_relations,
    classify,
    commutator,
    r_element,
    scaled_r_element,
)

from helpers import (
    GroupAlgebraVector,
    commutator_witness,
    convolve,
    coset_average,
    cycle_matrices,
    displayed_product_targets,
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
        assert w.mass() == 0


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


def test_report_json_shape():
    report = check_relations(Margins((1, 1, 2)))
    payload = report.to_json_dict()
    assert report.ok and payload["all_hold"] is True
    assert {c["relation"] for c in payload["checks"]} == {"(8)"}
