"""Brute-force ground truth over explicit permutations.

Everything the structure-constant formula claims is checked here against
direct counting in the symmetric group G = S_N.  A permutation is classified
into its double coset H g H of the Young subgroup H by its coset matrix.  A
product of coset averages is counted by one sweep of the second factor's
coset, over one permutation per left H-orbit of it:

- Fix g0 in the a-coset.  The coefficient of c in (a-average)(b-average) is
  the share of h in the b-coset with h o g0 in the c-coset.  It does not
  depend on g0, because the b-coset is invariant under right multiplication
  by H, so one sweep gives every target.
- That share is the same over one h per left orbit {sigma o h : sigma in H}
  as over the whole coset.  Every sigma in H keeps each point inside its
  block, so h o g0 and sigma o h o g0 send the same number of points of
  block i into block j: they lie in one c-coset.  H acts freely (sigma o h =
  h only for sigma the identity), so every orbit has |H| members, and each
  count and the coset size are |H| times those over the representatives.
- The orbit of h is fixed by its labelling, the block of h(x) for each point
  x: sigma o h has the labels of h, and h' o h^-1 is in H when h' has the
  labels of h.  Block i has m_ij points labelled j, in any order, which makes
  prod_i n_i! / prod_ij m_ij! orbits, the coset's size over |H| = prod_j n_j!.
  The representative of a labelling sends the points labelled j to block j's
  points in increasing order.

The whole group, grouped by coset matrix, is built only for
``coset_partition``, an independent reference that no product uses.

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

from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product, repeat

from .cosets import CosetMatrix, Grid, Margins
from .errors import BruteForceLimitExceeded

Perm = tuple[int, ...]
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
    return tuple(chain.from_iterable(map(repeat, range(len(n)), n)))


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
    for g in permutations(range(sum(n))):
        out.setdefault(_block_counts(g, block_of, len(n)), []).append(g)
    return out


def _check_limit(margins: Margins, limit: int | None) -> None:
    eff = resolve_limit(limit)
    if margins.N > eff:
        raise BruteForceLimitExceeded(margins.N, eff)


def coset_partition(margins: Margins, limit: int | None = None) -> dict[CosetMatrix, list[Perm]]:
    """The whole group, grouped by coset matrix, within the limit.  Cached per margins."""
    _check_limit(margins, limit)
    return {
        CosetMatrix._make(e, margins): list(perms)
        for e, perms in _partition_by_matrix(margins.n).items()
    }


def _labelled(labels: list[int]) -> Perm:
    """The permutation sending the points labelled j to block j's points, in
    increasing order: the rank of each point in the stable sort by label."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return tuple(sorted(range(len(labels)), key=order.__getitem__))


def _orders(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """The distinct orders of a multiset of labels, counts[j] copies of label
    j, in lexicographic order.  Works in place on counts, which holds its
    starting values again once the orders run out."""
    if not any(counts):
        yield ()
        return
    for j, k in enumerate(counts):
        if k:
            counts[j] -= 1
            for rest in _orders(counts):
                yield (j, *rest)
            counts[j] += 1


@lru_cache(maxsize=1024)
def _representatives(m: CosetMatrix) -> tuple[Perm, ...]:
    """One permutation in each left Young-subgroup orbit of the m-coset, one
    per labelling (see the module docstring): block i's labels in each of
    their distinct orders, block by block.  The first has every block's labels
    in increasing order.  Cached for the last 1024 matrices, so a coset met by
    many factors is walked once.
    """
    blocks = product(*(_orders(list(row)) for row in m.entries))
    return tuple(_labelled(list(chain.from_iterable(labels))) for labels in blocks)


def _sweep(a: CosetMatrix, b: CosetMatrix, limit: int | None):
    """Fix g0 in the a-coset and tally the coset matrix entries of h o g0 over
    one h per left Young-subgroup orbit of the b-coset.  Returns the tallies
    and the number of orbits, whose ratios are the coefficients: the module
    docstring proves that they equal the ratios over the whole coset.
    """
    margins = a.margins
    if b.margins != margins:
        raise ValueError("all matrices must share their margins")
    _check_limit(margins, limit)
    g0 = _representatives(a)[0]
    block_of, nu = _block_of(margins.n), margins.nu
    reps = _representatives(b)
    return Counter(_block_counts(compose(h, g0), block_of, nu) for h in reps), len(reps)


def oracle_structure_constant(
    a: CosetMatrix, b: CosetMatrix, c: CosetMatrix, limit: int | None = None
) -> Fraction:
    """Coefficient of the c-coset average in the product of the a- and b-averages.

    Read from the same sweep of the b-coset as ``oracle_product``: the share
    of h in the b-coset with h o g0 in the c-coset, for one fixed g0 in the
    a-coset, counted over the coset's left Young-subgroup orbits.
    """
    if c.margins != a.margins:
        raise ValueError("all matrices must share their margins")
    counts, orbits = _sweep(a, b, limit)
    return Fraction(counts.get(c.entries, 0), orbits)


def oracle_product(
    a: CosetMatrix, b: CosetMatrix, limit: int | None = None
) -> dict[CosetMatrix, Fraction]:
    """All nonzero oracle structure constants with first factor a, second b."""
    counts, orbits = _sweep(a, b, limit)
    return {CosetMatrix._make(c, a.margins): Fraction(k, orbits) for c, k in counts.items()}
