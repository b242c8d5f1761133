"""Graded degeneration and the Poisson bracket.

The deformation filtration by total eps-degree degenerates the universal
algebra to a commutative one: at order zero a product of basis types is the
basis type of the entrywise sum.  The next coefficient carries a Poisson
bracket once all deformation variables are identified.

The order-one coefficient of a product of basis types a, b decomposes as

  eps_j-part = sum over alpha, gamma != j of a_{alpha j} b_{j gamma} on the
               target a + b + E_{alpha gamma} - E_{alpha j} - E_{j gamma}
               (the E_{alpha alpha} unit is dropped when alpha = gamma),
  minus a*_jj b*_jj on the target a + b.

Both pieces come straight out of the defining tensor sum: the tensors of
total cross weight one are exactly the single unit cells (alpha, j, gamma)
with alpha, gamma != j, and the diagonal correction is the linear term of
the bracket ratio of the unique weight-zero tensor.  The correction is
symmetric in a and b, so it cancels from commutators; tests pin both pieces
against the full ring expansion.
"""

from __future__ import annotations

from functools import lru_cache

from .combination import Combination, bilinear
from .cosets import Grid, OffDiagonalType
from .rationals import format_rational


class GradedElement(Combination):
    """Rational combination of off-diagonal basis types; the space is nu."""

    __slots__ = ()

    @staticmethod
    def _space_of(tp: OffDiagonalType) -> int:
        return tp.nu

    @property
    def nu(self) -> int:
        return self.space

    def to_json_dict(self):
        return {
            "nu": self.nu,
            "terms": [
                {"type": tp.to_json_dict(), "coeff": format_rational(coeff)}
                for tp, coeff in self.sorted_terms()
            ],
        }


def graded_multiply(x: GradedElement, y: GradedElement) -> GradedElement:
    """Commutative product: basis types multiply by entrywise addition."""
    return bilinear(x, y, lambda a, b: ((a + b, 1),))


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


@lru_cache(maxsize=None)
def _bracket_basis(a: Grid, b: Grid) -> GradedElement:
    nu = len(a)
    acc: dict[Grid, int] = {}
    for sign, lin in ((1, _order_one_linear(a, b)), (-1, _order_one_linear(b, a))):
        for part in lin:
            for tgt, v in part.items():
                acc[tgt] = acc.get(tgt, 0) + sign * v
    return GradedElement._make(
        nu, {OffDiagonalType._make(tgt): v for tgt, v in acc.items() if v}
    )


def poisson_bracket(x: GradedElement, y: GradedElement) -> GradedElement:
    """{x, y}: the eps-linear coefficient of the commutator, all variables identified.

    Equals (commutator / eps) at eps = 0 after setting every eps_j = eps;
    computed exactly from the order-one part of the product expansion and
    extended bilinearly.
    """
    return bilinear(x, y, lambda a, b: _bracket_basis(a.entries, b.entries).terms.items())


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
