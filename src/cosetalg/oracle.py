"""Brute-force ground truth over explicit permutations.

Everything the structure-constant formula claims is checked here against
direct counting in the symmetric group: permutations are classified into
double cosets, the whole group is grouped by coset matrix once per margins,
and a product is counted by one sweep of the second factor's coset.

Composition convention (load-bearing, do not change): permutations act on
points, ``compose(h, g)`` is "apply g first", i.e. (h o g)(x) = h(g(x)),
and the algebra product of an element supported on A with an element
supported on B is supported on {h o g : g in A, h in B}.  The classification
of h o g is what the triple-count formula predicts from the classifications
of g and h; flipping either choice transposes every product.

Brute force is capped: the default limit is N <= 8 (40320 permutations).
The ``limit`` argument (the CLI's ``--nmax``) moves it, but never above the
hard cap of 9.  The blocks of the Young subgroup are the consecutive runs
[0, n_1), [n_1, n_1 + n_2), ... of {0, ..., N-1}.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .cosets import CosetMatrix, Margins
from .errors import BruteForceLimitExceeded

Perm = tuple[int, ...]
Grid = tuple[tuple[int, ...], ...]

DEFAULT_LIMIT = 8
HARD_CAP = 9


def resolve_limit(limit: int | None = None) -> int:
    """Effective brute-force limit: the argument, else the default, never above the cap."""
    return min(DEFAULT_LIMIT if limit is None else limit, HARD_CAP)


def compose(h: Perm, g: Perm) -> Perm:
    """h o g: apply g first, then h."""
    return tuple(h[g[x]] for x in range(len(g)))


def _block_of(n: tuple[int, ...]) -> tuple[int, ...]:
    """The block index of each of the N points."""
    return tuple(j for j, size in enumerate(n) for _ in range(size))


def _block_counts(g: Perm, block_of: tuple[int, ...], nu: int) -> Grid:
    """Entry (i, j) counts the points of block i that g sends into block j."""
    counts = [[0] * nu for _ in range(nu)]
    for x, y in enumerate(g):
        counts[block_of[x]][block_of[y]] += 1
    return tuple(map(tuple, counts))


def classify(g: Perm, margins: Margins) -> CosetMatrix:
    """Coset matrix of g: entry (i, j) counts points of block i sent into block j."""
    if len(g) != margins.N:
        raise ValueError(f"a permutation of {len(g)} points, margins {margins.n} need {margins.N}")
    return CosetMatrix(_block_counts(g, _block_of(margins.n), margins.nu), margins)


@lru_cache(maxsize=None)
def _partition_by_matrix(n: tuple[int, ...]) -> dict[Grid, list[Perm]]:
    block_of = _block_of(n)
    out: dict[Grid, list[Perm]] = {}
    for g in itertools.permutations(range(sum(n))):
        out.setdefault(_block_counts(g, block_of, len(n)), []).append(g)
    return out


def _partition(margins: Margins, limit: int | None) -> dict[Grid, list[Perm]]:
    """The cached grouping of the whole group by coset-matrix entries, within the limit."""
    eff = resolve_limit(limit)
    if margins.N > eff:
        raise BruteForceLimitExceeded(margins.N, eff)
    return _partition_by_matrix(margins.n)


def coset_partition(margins: Margins, limit: int | None = None) -> dict[CosetMatrix, list[Perm]]:
    """The whole group, grouped by coset matrix.  Cached per margins."""
    return {
        CosetMatrix._make(e, margins): list(perms)
        for e, perms in _partition(margins, limit).items()
    }


def _sweep(a: CosetMatrix, b: CosetMatrix, limit: int | None):
    """Fix g0 in the a-coset and tally the coset matrix entries of h o g0 over
    every h in the b-coset.  Returns the tallies and the b-coset size.

    The share of h landing in the c-coset is the coefficient of c.  It does
    not depend on g0, because the b-coset is invariant under right
    multiplication by the Young subgroup, so one sweep gives every target.
    """
    margins = a.margins
    if b.margins != margins:
        raise ValueError("all matrices must share their margins")
    part = _partition(margins, limit)
    g0 = part[a.entries][0]
    block_of, nu = _block_of(margins.n), margins.nu
    counts: dict[Grid, int] = {}
    members = part[b.entries]
    for h in members:
        c = _block_counts(compose(h, g0), block_of, nu)
        counts[c] = counts.get(c, 0) + 1
    return counts, len(members)


def oracle_structure_constant(
    a: CosetMatrix, b: CosetMatrix, c: CosetMatrix, limit: int | None = None
) -> Fraction:
    """Coefficient of the c-coset average in the product of the a- and b-averages.

    Read from the same sweep of the b-coset as ``oracle_product``: the share
    of h in the b-coset with h o g0 in the c-coset, for one fixed g0 in the
    a-coset.
    """
    if c.margins != a.margins:
        raise ValueError("all matrices must share their margins")
    counts, mu_b = _sweep(a, b, limit)
    return Fraction(counts.get(c.entries, 0), mu_b)


def oracle_product(
    a: CosetMatrix, b: CosetMatrix, limit: int | None = None
) -> dict[CosetMatrix, Fraction]:
    """All nonzero oracle structure constants with first factor a, second b."""
    counts, mu_b = _sweep(a, b, limit)
    return {CosetMatrix._make(c, a.margins): Fraction(k, mu_b) for c, k in counts.items()}
