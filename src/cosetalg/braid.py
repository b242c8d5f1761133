"""Transposition averages and the infinitesimal braid relations.

For i != j let r_ij be the basis element whose matrix is diagonal except for
single off-diagonal units at (i, j) and (j, i); it is the two-sided average
of any transposition exchanging a point of block i with one of block j.  The
scaled elements n_i * n_j * r_ij satisfy the infinitesimal braid relations

    (8)  [rr_ij, rr_jk + rr_ik] = 0   for pairwise distinct i, j, k,
    (9)  [rr_ij, rr_kl] = 0           for pairwise distinct i, j, k, l.

The scaling matters for (8): it mixes two commutators whose unscaled values
differ by the factor n_i / n_j, so the unscaled elements satisfy (8) only at
equal block sizes.  Relation (9) is a single commutator and holds unscaled.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .algebra import AlgebraElement, commutator
from .cosets import CosetMatrix, Margins


def _r_matrix(i: int, j: int, margins: Margins) -> CosetMatrix:
    nu = margins.nu
    grid = [[0] * nu for _ in range(nu)]
    for k in range(nu):
        grid[k][k] = margins.n[k]
    grid[i][i] -= 1
    grid[j][j] -= 1
    grid[i][j] += 1
    grid[j][i] += 1
    return CosetMatrix(tuple(tuple(row) for row in grid), margins)


def r_element(i: int, j: int, margins: Margins) -> AlgebraElement:
    """The transposition average for blocks i and j (1-based, i != j)."""
    if i == j:
        raise ValueError("indices must differ")
    if not (1 <= i <= margins.nu and 1 <= j <= margins.nu):
        raise ValueError("block index out of range")
    return AlgebraElement.basis(_r_matrix(i - 1, j - 1, margins))


def scaled_r_element(i: int, j: int, margins: Margins) -> AlgebraElement:
    """n_i * n_j times the transposition average; the braid-relation normalization."""
    return margins.n[i - 1] * margins.n[j - 1] * r_element(i, j, margins)


class RelationCheck(namedtuple("RelationCheck", "relation indices holds commutator")):
    """One instance: "(8)" or "(9)", its 1-based indices, and the commutator it sets to zero."""

    __slots__ = ()


class BraidReport(namedtuple("BraidReport", "margins checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)


def check_relations(margins: Margins) -> BraidReport:
    """Verify every instance of (8) (nu >= 3) and (9) (nu >= 4) exactly.

    The nu(nu - 1) scaled elements are built once, keyed by their ordered
    index pair, and every instance reads its elements from them.
    """
    nu = margins.nu
    rr = {
        (i, j): scaled_r_element(i, j, margins)
        for i, j in itertools.permutations(range(1, nu + 1), 2)
    }
    checks: list[RelationCheck] = []
    for i, j, k in itertools.permutations(range(1, nu + 1), 3):
        lhs = commutator(rr[i, j], rr[j, k] + rr[i, k])
        checks.append(RelationCheck("(8)", (i, j, k), lhs.is_zero(), lhs))
    for i, j, k, l in itertools.combinations(range(1, nu + 1), 4):
        # every ordered pair of disjoint index pairs inside the quadruple
        for (p, q), (r, s) in itertools.permutations(
            [(i, j), (i, k), (i, l), (j, k), (j, l), (k, l)], 2
        ):
            if len({p, q, r, s}) != 4:
                continue
            lhs = commutator(rr[p, q], rr[r, s])
            checks.append(RelationCheck("(9)", (p, q, r, s), lhs.is_zero(), lhs))
    return BraidReport(margins, checks)
