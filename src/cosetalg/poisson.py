"""Graded degeneration and the Poisson bracket.

The deformation filtration by total eps-degree degenerates the universal
algebra to a commutative one: at order zero a product of basis types is the
basis type of the entrywise sum.  The next coefficient carries a Poisson
bracket once all deformation variables are identified.

That bracket is the Lie-Poisson bracket of gl_nu reduced by the diagonal
torus (Kirillov 1976; Kostant 1970).  Read a balanced type a as the monomial
prod x_ij^(a_ij) in off-diagonal coordinates x_ij, with every diagonal x_jj
set to 1; then

  {x_ij, x_kl} = delta_jk x_il - delta_li x_kj,

and Leibniz extends it to monomials.  For basis types a, b the bracket is a
sum over middle indices j, cells (i, j) of a and cells (j, l) of b: each adds
a_ij b_jl on the target a + b - E_ij - E_jl + E_il (the E_ii unit is dropped
when i = l), and the same sum with a and b swapped is subtracted.

It equals the identified eps-linear coefficient of the commutator.  The
eps_j-linear coefficient of a product of basis types a, b is the j-th term of
that sum (the tensors of total cross weight one are exactly the single unit
cells (i, j, l) with i, l != j) minus a*_jj b*_jj on a + b, the linear term of
the bracket ratio of the unique weight-zero tensor.  That correction is
symmetric in a and b, so it cancels from the commutator.  ``_order_one_linear``
still computes both pieces, as the reference route that tests tie to the full
ring expansion and to the bracket.

The bracket cache and the graded-product cache are keyed by the two basis
types and hold the public key objects; the graded cache is bounded, since a
product there is cheap to recompute.  The target types are interned per nu
and field width (``cosets._interned``), a layout the universal products
share: a target is built once, the first time any bracket, graded product or
universal product produces it, and while that layout's table stays cached
every later product that produces it hands out that same object, so merging
brackets and graded products compares no keys and builds no type.
"""

from __future__ import annotations

from functools import lru_cache

from .combination import Combination, bilinear
from .cosets import Grid, OffDiagonalType, _field_bits, _interned, _pack


class GradedElement(Combination):
    """Rational combination of off-diagonal basis types; the space is nu."""

    __slots__ = ()

    @staticmethod
    def _space_of(tp: OffDiagonalType) -> int:
        return tp.nu

    @property
    def nu(self) -> int:
        return self.space


def graded_multiply(x: GradedElement, y: GradedElement) -> GradedElement:
    """Commutative product: basis types multiply by entrywise addition."""
    return bilinear(x, y, _graded_basis)


@lru_cache(maxsize=4096)
def _graded_basis(x: OffDiagonalType, y: OffDiagonalType) -> dict[OffDiagonalType, int]:
    """{a + b: 1}: the graded product of the basis types x, y with entries a, b.

    The target is built as ``_bracket_basis`` builds its targets: packed at
    the pair's field width (``_pair_shift``), where no field carries, the key
    of a + b is the sum of the two keys, and the target is the interned type
    of that key in the layout (nu, field width).  So a graded product and a
    bracket that produce equal targets in one layout hand out one object.
    The cache keeps 4,096 pairs, more than a warm round of the benchmark's
    identity checks meets; a pair evicted from it is recomputed and hands out
    its interned target again while the layout stays cached.
    """
    a, b = x.entries, y.entries
    nu = len(a)
    shift = _pair_shift(a, b)
    (target,) = _interned([_pack(a, shift) + _pack(b, shift)], nu, nu, shift, OffDiagonalType._make)
    return {target: 1}


@lru_cache(maxsize=None)
def _bracket_basis(x: OffDiagonalType, y: OffDiagonalType) -> dict[OffDiagonalType, int]:
    """{target: nonzero coefficient} of the bracket of the basis types x, y.

    The Lie-Poisson sum of the module docstring, on packed keys: a grid is one
    integer with a byte-aligned field per cell, row by row as ``_unpack``
    reads it, so a target a + b - E_ij - E_jl + E_il is the key of a + b less
    two cell units plus one; the diagonal units are 0, which drops E_ii.
    Every field of a target is at most an entry of a + b plus one.  The
    nonzero targets are the interned types of the layout (nu, field width),
    so a target that an earlier bracket produced is not decoded again.  The
    cache is keyed by the two types, and it holds the target types that every
    later call hands out.
    """
    a, b = x.entries, y.entries
    nu = len(a)
    shift = _pair_shift(a, b)
    unit = [[0 if i == k else 1 << shift * (i * nu + k) for k in range(nu)] for i in range(nu)]
    base = sum((a[i][k] + b[i][k]) * unit[i][k] for i in range(nu) for k in range(nu))
    acc: dict[int, int] = {}
    get = acc.get
    for sign, p, q in ((1, a, b), (-1, b, a)):
        for j in range(nu):
            outs = [(q[j][l], unit[j][l], l) for l in range(nu) if q[j][l]]
            if not outs:
                continue
            for i in range(nu):
                if not p[i][j]:
                    continue
                head, row, v = base - unit[i][j], unit[i], sign * p[i][j]
                for w, out, l in outs:
                    key = head - out + row[l]
                    acc[key] = get(key, 0) + v * w
    keys = [key for key, v in acc.items() if v]
    targets = _interned(keys, nu, nu, shift, OffDiagonalType._make)
    return dict(zip(targets, map(acc.__getitem__, keys)))


def _pair_shift(a: Grid, b: Grid) -> int:
    """The field width of the pair's layout: it holds an entry of a + b plus one."""
    return _field_bits(max(map(max, a), default=0) + max(map(max, b), default=0) + 1)


def _shift_target(base: Grid, alpha: int, j: int, gamma: int) -> OffDiagonalType:
    grid = [list(row) for row in base]
    grid[alpha][j] -= 1
    grid[j][gamma] -= 1
    if alpha != gamma:
        grid[alpha][gamma] += 1
    return OffDiagonalType._make(tuple(tuple(row) for row in grid))


@lru_cache(maxsize=None)
def _order_one_linear(a: Grid, b: Grid) -> tuple[dict, ...]:
    """Per-variable eps-linear coefficients of the product of basis types a, b.

    The reference route for the bracket, called only by tests: no production
    code calls it or ``_shift_target`` and ``_range_sum``, which stay here
    because the benchmark counts this cache's entries.

    Returns one {target entries: int} map per variable index.  Exact:
    the weight-one tensors give the shifted targets, the weight-zero tensor's
    bracket ratio gives the diagonal correction on a + b.
    """
    nu = len(a)
    base = tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )
    out: list[dict[Grid, int]] = [dict() for _ in range(nu)]
    for j in range(nu):
        a_star = sum(a[i][j] for i in range(nu) if i != j)
        b_star = sum(b[j][k] for k in range(nu) if k != j)
        # linear term of ((a*, a*+b*)) ((b*, a*+b*)) / ((0, a*+b*)) in eps_j
        t_star = a_star + b_star
        lin = -(_range_sum(a_star, t_star) + _range_sum(b_star, t_star) - _range_sum(0, t_star))
        if lin:
            out[j][base] = lin
        for alpha in range(nu):
            if alpha == j or a[alpha][j] == 0:
                continue
            for gamma in range(nu):
                if gamma == j or b[j][gamma] == 0:
                    continue
                tgt = _shift_target(base, alpha, j, gamma).entries
                out[j][tgt] = out[j].get(tgt, 0) + a[alpha][j] * b[j][gamma]
    return tuple(out)


def _range_sum(p: int, q: int) -> int:
    """p + (p+1) + ... + (q-1)."""
    return (q * (q - 1) - p * (p - 1)) // 2


def poisson_bracket(x: GradedElement, y: GradedElement) -> GradedElement:
    """{x, y}: the eps-linear coefficient of the commutator, all variables identified.

    Equals (commutator / eps) at eps = 0 after setting every eps_j = eps;
    computed exactly on basis types from the Lie-Poisson formula and extended
    bilinearly.
    """
    return bilinear(x, y, _bracket_basis)


def poisson_bracket_via_ring(a: OffDiagonalType, b: OffDiagonalType) -> GradedElement:
    """Reference route for basis types: full ring commutator, identify, divide, evaluate."""
    from .epsring import EpsRingElement
    from .universal import universal_product

    if a.nu != b.nu:
        raise ValueError("size mismatch")
    nu = a.nu
    forward = universal_product(a, b)
    backward = universal_product(b, a)
    acc: dict[OffDiagonalType, int] = {}
    for target in set(forward) | set(backward):
        diff = forward.get(target, EpsRingElement.zero(nu)) - backward.get(
            target, EpsRingElement.zero(nu)
        )
        v = _identified_linear_value(diff)
        if v:
            acc[target] = v
    return GradedElement(nu, acc)


def _identified_linear_value(x):
    """(x / eps) at eps = 0 with every variable set to eps.

    Needs the identified constant term to vanish; the denominator factors all
    equal 1 at the origin, so the value is the total-degree-one coefficient
    mass of the canonical numerator.
    """
    const = sum(c for d, c in x.num.terms.items() if sum(d) == 0)
    if const:
        raise ValueError("constant term does not vanish; not a commutator coefficient")
    return sum(c for d, c in x.num.terms.items() if sum(d) == 1)
