"""Brute-force ground truth over explicit permutations.

Everything the structure-constant formula claims is checked here against
direct counting in the symmetric group: permutations are classified into
double cosets, cosets are enumerated by filtering the whole group, and
products are counted pair by pair.

Composition convention (load-bearing, do not change): permutations act on
points, ``compose(h, g)`` is "apply g first", i.e. (h o g)(x) = h(g(x)),
and the algebra product of an element supported on A with an element
supported on B is supported on {h o g : g in A, h in B}.  The classification
of h o g is what the triple-count formula predicts from the classifications
of g and h; flipping either choice transposes every product.

Brute force is capped: the default limit is N <= 8 (40320 permutations),
overridable through the ``COSETALG_NMAX`` environment variable but never
above the hard cap of 9.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combination import Combination, bilinear
from .cosets import CosetMatrix, Margins, coset_size
from .errors import BruteForceLimitExceeded

Perm = tuple[int, ...]

DEFAULT_LIMIT = 8
HARD_CAP = 9
NMAX_ENV_VAR = "COSETALG_NMAX"


def resolve_limit(limit: int | None = None) -> int:
    """Effective brute-force limit: explicit argument, else env var, else default."""
    if limit is None:
        raw = os.environ.get(NMAX_ENV_VAR)
        limit = int(raw) if raw else DEFAULT_LIMIT
    return min(limit, HARD_CAP)


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(h: Perm, g: Perm) -> Perm:
    """h o g: apply g first, then h."""
    return tuple(h[g[x]] for x in range(len(g)))


def inverse(g: Perm) -> Perm:
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def random_permutation(n: int, seed: int) -> Perm:
    """Fisher-Yates shuffle of range(n) driven by ``random.Random(seed)``.

    The draw sequence is randrange(1), randrange(2), ..., swapping each
    position i with a uniformly chosen position <= i.  Documented so that
    seeded examples are reproducible.
    """
    rng = random.Random(seed)
    points = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        points[i], points[j] = points[j], points[i]
    return tuple(points)


@dataclass(frozen=True)
class YoungPartition:
    """Consecutive blocks [0, n_1), [n_1, n_1+n_2), ... of {0, ..., N-1}."""

    margins: Margins
    block_of: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        owner = []
        for j, size in enumerate(self.margins.n):
            owner.extend([j] * size)
        object.__setattr__(self, "block_of", tuple(owner))

    @property
    def blocks(self) -> tuple[range, ...]:
        out, start = [], 0
        for size in self.margins.n:
            out.append(range(start, start + size))
            start += size
        return tuple(out)


def classify(g: Perm, yp: YoungPartition) -> CosetMatrix:
    """Coset matrix of g: entry (i, j) counts points of block i sent into block j."""
    nu = yp.margins.nu
    block_of = yp.block_of
    counts = [[0] * nu for _ in range(nu)]
    for x, y in enumerate(g):
        counts[block_of[x]][block_of[y]] += 1
    return CosetMatrix(tuple(tuple(row) for row in counts), yp.margins)


@lru_cache(maxsize=None)
def _partition_by_matrix(n: tuple[int, ...]) -> dict:
    yp = YoungPartition(Margins(n))
    out: dict[tuple, list[Perm]] = {}
    for g in itertools.permutations(range(sum(n))):
        out.setdefault(classify(g, yp).entries, []).append(g)
    return out


def coset_partition(yp: YoungPartition, limit: int | None = None) -> dict[CosetMatrix, list[Perm]]:
    """The whole group, grouped by coset matrix.  Cached per margins."""
    N = yp.margins.N
    eff = resolve_limit(limit)
    if N > eff:
        raise BruteForceLimitExceeded(N, eff)
    raw = _partition_by_matrix(yp.margins.n)
    return {CosetMatrix(e, yp.margins): list(perms) for e, perms in raw.items()}


def enumerate_coset(m: CosetMatrix, yp: YoungPartition, limit: int | None = None) -> list[Perm]:
    """All permutations classified to ``m``; length equals ``coset_size(m)``."""
    if m.margins != yp.margins:
        raise ValueError("matrix and partition margins differ")
    N = yp.margins.N
    eff = resolve_limit(limit)
    if N > eff:
        raise BruteForceLimitExceeded(N, eff)
    return list(_partition_by_matrix(yp.margins.n).get(m.entries, []))


def oracle_structure_constant(
    a: CosetMatrix,
    b: CosetMatrix,
    c: CosetMatrix,
    yp: YoungPartition,
    mode: str = "representative",
    limit: int | None = None,
) -> Fraction:
    """Coefficient of the c-coset average in the product of the a- and b-averages.

    ``direct`` counts all pairs (g, h) with g in the a-coset, h in the b-coset
    and h o g in the c-coset, then divides by both coset sizes.  The
    ``representative`` mode fixes one x0 in the c-coset, counts g in the
    a-coset with x0 o g^-1 in the b-coset, and rescales by the c-coset size;
    the two agree because the pair count is constant along the c-coset.
    """
    if not (a.margins == b.margins == c.margins == yp.margins):
        raise ValueError("all matrices must share the partition margins")
    part = coset_partition(yp, limit)
    mu_a, mu_b = coset_size(a), coset_size(b)
    if mode == "direct":
        target = set(part[c])
        count = sum(
            1
            for g in part[a]
            for h in part[b]
            if compose(h, g) in target
        )
        return Fraction(count, mu_a * mu_b)
    if mode == "representative":
        x0 = part[c][0]
        b_entries = b.entries
        count = 0
        for g in part[a]:
            h = compose(x0, inverse(g))  # then h o g = x0
            if classify(h, yp).entries == b_entries:
                count += 1
        return Fraction(count * coset_size(c), mu_a * mu_b)
    raise ValueError(f"unknown mode {mode!r}")


def oracle_product(a: CosetMatrix, b: CosetMatrix, yp: YoungPartition,
                   limit: int | None = None) -> dict[CosetMatrix, Fraction]:
    """All nonzero oracle structure constants with first factor a, second b.

    Fix g0 in the a-coset; the coefficient of c is the share of h in the
    b-coset with h o g0 in the c-coset.  The share does not depend on g0,
    because the b-coset is invariant under right multiplication by the Young
    subgroup, so one sweep of the b-coset gives every target.
    """
    part = coset_partition(yp, limit)
    g0 = part[a][0]
    counts: dict[CosetMatrix, int] = {}
    for h in part[b]:
        c = classify(compose(h, g0), yp)
        counts[c] = counts.get(c, 0) + 1
    mu_b = coset_size(b)
    return {c: Fraction(k, mu_b) for c, k in counts.items()}


class GroupAlgebraVector(Combination):
    """Sparse exact-rational vector in the group algebra of S_N; the space is N."""

    __slots__ = ()

    @staticmethod
    def _space_of(g: Perm) -> int:
        return len(g)

    @property
    def n(self) -> int:
        return self.space

    @classmethod
    def delta(cls, g: Perm) -> "GroupAlgebraVector":
        return cls.basis(tuple(g))


def convolve(x: GroupAlgebraVector, y: GroupAlgebraVector) -> GroupAlgebraVector:
    """Group algebra product: mass of x at g and of y at h lands on h o g."""
    return bilinear(x, y, lambda g, h: ((compose(h, g), 1),))


def young_average(yp: YoungPartition) -> GroupAlgebraVector:
    """Uniform average over the Young subgroup; an idempotent."""
    blocks = yp.blocks
    N = yp.margins.N
    terms: dict[Perm, Fraction] = {}
    weight = Fraction(1)
    for size in yp.margins.n:
        weight /= factorial(size)
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        img = [0] * N
        for block, perm in zip(blocks, parts):
            for src, dst in zip(block, perm):
                img[src] = dst
        terms[tuple(img)] = weight
    return GroupAlgebraVector(N, terms)


def coset_average(m: CosetMatrix, yp: YoungPartition, limit: int | None = None) -> GroupAlgebraVector:
    """The normalized coset sum: weight 1/coset_size on every member."""
    perms = enumerate_coset(m, yp, limit)
    w = Fraction(1, len(perms))
    return GroupAlgebraVector(yp.margins.N, {g: w for g in perms})
