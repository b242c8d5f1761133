import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from cosetalg import (
    BruteForceLimitExceeded,
    CosetMatrix,
    Margins,
    classify,
    compose,
    coset_size,
    enumerate_coset_matrices,
    oracle_structure_constant,
)
from cosetalg.oracle import (
    DEFAULT_LIMIT,
    HARD_CAP,
    _representatives,
    coset_partition,
    oracle_product,
    resolve_limit,
)

from helpers import (
    GroupAlgebraVector,
    convolve,
    coset_average,
    mass,
    naive_classify,
    whole_coset_product,
    young_average,
)


def inverse(g):
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def random_permutation(n, seed):
    return tuple(random.Random(seed).sample(range(n), n))


def direct_constant(a, b, c):
    """Reference count: every pair (g, h) of the a- and b-cosets with h o g in
    the c-coset, divided by both coset sizes."""
    part = coset_partition(a.margins)
    target = set(part[c])
    count = sum(1 for g in part[a] for h in part[b] if compose(h, g) in target)
    return Fraction(count, coset_size(a) * coset_size(b))


def test_compose_applies_right_factor_first():
    g = (1, 0, 2)  # swap 0,1
    h = (0, 2, 1)  # swap 1,2
    # (h o g)(0) = h(g(0)) = h(1) = 2
    assert compose(h, g) == (2, 0, 1)
    assert compose(g, h) == (1, 2, 0)


def test_inverse():
    g = (2, 0, 3, 1)
    assert compose(g, inverse(g)) == (0, 1, 2, 3)
    assert compose(inverse(g), g) == (0, 1, 2, 3)


def test_classify_identity():
    margins = Margins((2, 3))
    assert classify(tuple(range(5)), margins).entries == ((2, 0), (0, 3))


def test_classify_cross_transposition():
    margins = Margins((2, 3))
    g = (2, 1, 0, 3, 4)  # swaps a point of the first block with one of the second
    assert classify(g, margins).entries == ((1, 1), (1, 2))


def test_classify_seeded_random_against_recount():
    g = random_permutation(5, seed=0)
    margins = Margins((2, 3))
    assert classify(g, margins).entries == naive_classify(g, (2, 3))


def test_random_permutation_reproducible():
    assert random_permutation(6, seed=0) == random_permutation(6, seed=0)
    assert random_permutation(6, seed=0) != random_permutation(6, seed=1)


def test_enumerate_coset_full_group():
    margins = Margins((3,))
    (m,) = enumerate_coset_matrices(margins)
    assert len(coset_partition(margins)[m]) == 6


def test_enumerate_coset_single_transposition():
    margins = Margins((1, 1))
    anti = CosetMatrix(((0, 1), (1, 0)), margins)
    assert coset_partition(margins)[anti] == [(1, 0)]


def test_enumerate_coset_fiber_matches_size():
    margins = Margins((2, 2))
    m = CosetMatrix(((1, 1), (1, 1)), margins)
    members = coset_partition(margins)[m]
    assert len(members) == coset_size(m) == 16
    # independent recount
    want = {g for g in itertools.permutations(range(4)) if naive_classify(g, (2, 2)) == m.entries}
    assert set(members) == want


@pytest.mark.parametrize("n", [(1, 1), (2, 2), (1, 1, 2), (1, 2, 2)])
def test_classify_partitions_group_exactly(n):
    margins = Margins(n)
    matrices = enumerate_coset_matrices(margins)
    seen = {m: 0 for m in matrices}
    for g in itertools.permutations(range(margins.N)):
        seen[classify(g, margins)] += 1
    assert sum(seen.values()) == factorial(margins.N)
    for m in matrices:
        assert seen[m] == coset_size(m)


def test_limit_exceeded():
    margins = Margins((5, 5))
    with pytest.raises(BruteForceLimitExceeded):
        coset_partition(margins, limit=8)


def test_resolve_limit_reads_only_its_argument():
    assert resolve_limit() == resolve_limit(None) == DEFAULT_LIMIT
    assert resolve_limit(5) == 5
    assert resolve_limit(HARD_CAP + 3) == HARD_CAP


@pytest.mark.parametrize("g", [(0, 1, 2), (0, 1, 2, 3, 4)])
def test_classify_rejects_permutation_of_other_size(g):
    with pytest.raises(ValueError, match="margins"):
        classify(g, Margins((2, 2)))


def test_oracle_rejects_mismatched_margins():
    # (2, 2) and (1, 3) cover the same four points, so only the margin check tells them apart
    m = CosetMatrix(((1, 1), (1, 1)), Margins((2, 2)))
    other = CosetMatrix(((0, 1), (1, 2)), Margins((1, 3)))
    for a, b in ((m, other), (other, m)):
        with pytest.raises(ValueError, match="share their margins"):
            oracle_product(a, b)
        with pytest.raises(ValueError, match="share their margins"):
            oracle_structure_constant(a, b, a)
    with pytest.raises(ValueError, match="share their margins"):
        oracle_structure_constant(m, m, other)


def test_oracle_identity_coset_is_unit():
    margins = Margins((2, 2))
    matrices = enumerate_coset_matrices(margins)
    unit = CosetMatrix(((2, 0), (0, 2)), margins)
    for b in matrices:
        for c in matrices:
            want = Fraction(1) if c == b else Fraction(0)
            assert oracle_structure_constant(unit, b, c) == want


def test_oracle_transposition_squares_to_identity():
    margins = Margins((1, 1))
    anti = CosetMatrix(((0, 1), (1, 0)), margins)
    ident = CosetMatrix(((1, 0), (0, 1)), margins)
    assert oracle_structure_constant(anti, anti, ident) == 1


def test_oracle_singletons_realize_group_multiplication():
    # with all blocks of size one, each pair of basis elements multiplies to
    # the single target given by the matrix product of their 0/1 matrices
    margins = Margins((1, 1, 1))
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            matmul = tuple(
                tuple(
                    sum(a.entries[i][j] * b.entries[j][k] for j in range(3))
                    for k in range(3)
                )
                for i in range(3)
            )
            for c in matrices:
                want = Fraction(1) if c.entries == matmul else Fraction(0)
                assert oracle_structure_constant(a, b, c) == want


@pytest.mark.parametrize("n", [(1, 1), (1, 1, 1), (2, 2)])
def test_oracle_modes_agree(n):
    margins = Margins(n)
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            for c in matrices:
                assert direct_constant(a, b, c) == oracle_structure_constant(a, b, c)


def test_oracle_representative_independent():
    # the b-coset sweep gives the same tallies from every member g0 of the
    # a-coset, not just the first one the oracle uses
    margins = Margins((2, 1))
    part = coset_partition(margins)
    for a, a_members in part.items():
        for b, b_members in part.items():
            tallies = set()
            for g0 in a_members:
                counts = {}
                for h in b_members:
                    c = classify(compose(h, g0), margins)
                    counts[c] = counts.get(c, 0) + 1
                tallies.add(frozenset(counts.items()))
            assert len(tallies) == 1


def test_oracle_mass_is_one():
    margins = Margins((2, 2))
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            total = sum(
                (oracle_structure_constant(a, b, c) for c in matrices), Fraction(0)
            )
            assert total == 1


def test_convolve_identity():
    x = GroupAlgebraVector(3, {(1, 2, 0): Fraction(2, 3), (0, 1, 2): Fraction(1, 5)})
    delta_e = GroupAlgebraVector.delta((0, 1, 2))
    assert convolve(delta_e, x) == x
    assert convolve(x, delta_e) == x


def test_young_average_idempotent():
    margins = Margins((2, 2))
    pi = young_average(margins)
    assert convolve(pi, pi) == pi
    assert mass(pi) == 1


def test_projected_delta_is_coset_average():
    margins = Margins((2, 2))
    pi = young_average(margins)
    g = (2, 1, 0, 3)
    sandwiched = convolve(convolve(pi, GroupAlgebraVector.delta(g)), pi)
    assert sandwiched == coset_average(classify(g, margins))


def test_convolution_convention_matches_oracle():
    # product of two coset averages, computed in the group algebra, must equal
    # the oracle structure constants with the same factor order
    margins = Margins((2, 1))
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            vec = convolve(coset_average(a), coset_average(b))
            for c in matrices:
                coeff = oracle_structure_constant(a, b, c)
                members = coset_partition(margins)[c]
                for g in members:
                    assert vec.terms.get(g, Fraction(0)) == coeff / len(members)


@pytest.mark.parametrize("n", [(2, 2), (1, 2, 2)])
def test_oracle_product_matches_direct_counts(n):
    margins = Margins(n)
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            direct = {c: direct_constant(a, b, c) for c in matrices}
            assert oracle_product(a, b) == {c: v for c, v in direct.items() if v}


@pytest.mark.parametrize("n", [(2, 3), (1, 2, 3), (2, 2, 2), (3, 5), (1, 1, 2, 2)])
def test_oracle_product_matches_whole_coset_sweep(n):
    margins = Margins(n)
    matrices = enumerate_coset_matrices(margins)
    for a in matrices:
        for b in matrices:
            assert oracle_product(a, b) == whole_coset_product(a, b), (a.entries, b.entries)


def test_oracle_product_matches_whole_coset_sweep_sampled():
    matrices = enumerate_coset_matrices(Margins((2, 2, 2, 2)))
    rng = random.Random(22)
    for _ in range(12):
        a, b = rng.choice(matrices), rng.choice(matrices)
        assert oracle_product(a, b) == whole_coset_product(a, b), (a.entries, b.entries)


@pytest.mark.parametrize(
    "n",
    [(1, 1, 1), (2, 3), (1, 2, 3), (2, 2, 2), (3, 5), (1, 1, 2, 2), (4, 5), (3, 3, 3), (2, 3, 4), (6,)],
)
def test_representatives_one_per_left_orbit(n):
    # the left orbit of h under the Young subgroup is fixed by the block of
    # each image point, so distinct representatives have distinct block images;
    # (4, 5), (3, 3, 3) and (2, 3, 4) reach the hard cap N = 9 (up to 216
    # orbits a coset), and (6,) is one block (one orbit)
    margins = Margins(n)
    block_of = [j for j, size in enumerate(n) for _ in range(size)]
    subgroup = prod(factorial(size) for size in n)
    for b in enumerate_coset_matrices(margins):
        reps = _representatives(b)
        assert type(reps) is tuple and _representatives(b) is reps
        assert len(reps) * subgroup == coset_size(b)
        assert all(classify(h, margins) == b for h in reps)
        assert len({tuple(block_of[y] for y in h) for h in reps}) == len(reps)
