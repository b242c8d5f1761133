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


def is_permutation(g) -> bool:
    return sorted(g) == list(range(len(g)))


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
    """All nonzero oracle structure constants with first factor a, second b."""
    part = coset_partition(yp, limit)
    mu_a, mu_b = coset_size(a), coset_size(b)
    b_entries = b.entries
    out: dict[CosetMatrix, Fraction] = {}
    for c, perms in part.items():
        x0 = perms[0]
        count = 0
        for g in part[a]:
            h = compose(x0, inverse(g))
            if classify(h, yp).entries == b_entries:
                count += 1
        if count:
            out[c] = Fraction(count * coset_size(c), mu_a * mu_b)
    return out


class GroupAlgebraVector:
    """Sparse exact-rational vector in the group algebra of S_N."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Perm, Fraction] | None = None):
        self.n = n
        self.terms: dict[Perm, Fraction] = {}
        if terms:
            for g, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    self.terms[tuple(g)] = coeff

    @classmethod
    def delta(cls, g: Perm) -> "GroupAlgebraVector":
        return cls(len(g), {tuple(g): Fraction(1)})

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupAlgebraVector) and self.n == other.n and self.terms == other.terms

    def __add__(self, other: "GroupAlgebraVector") -> "GroupAlgebraVector":
        if self.n != other.n:
            raise ValueError("size mismatch")
        merged = dict(self.terms)
        for g, coeff in other.terms.items():
            merged[g] = merged.get(g, Fraction(0)) + coeff
        return GroupAlgebraVector(self.n, merged)

    def __sub__(self, other: "GroupAlgebraVector") -> "GroupAlgebraVector":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "GroupAlgebraVector":
        scalar = Fraction(scalar)
        return GroupAlgebraVector(self.n, {g: scalar * c for g, c in self.terms.items()})

    def mass(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __repr__(self):
        body = ", ".join(f"{g}: {c}" for g, c in sorted(self.terms.items()))
        return f"GroupAlgebraVector({self.n}, {{{body}}})"


def convolve(x: GroupAlgebraVector, y: GroupAlgebraVector) -> GroupAlgebraVector:
    """Group algebra product: mass of x at g and of y at h lands on h o g."""
    if x.n != y.n:
        raise ValueError("size mismatch")
    out: dict[Perm, Fraction] = {}
    for g, cg in x.terms.items():
        for h, ch in y.terms.items():
            k = compose(h, g)
            out[k] = out.get(k, Fraction(0)) + cg * ch
    return GroupAlgebraVector(x.n, out)


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
