"""The margin-free algebra with deformation-ring coefficients.

Basis elements are indexed by balanced off-diagonal types.  The coefficient
of a type c in the product of types a and b is a sum over 3-tensors
t_ijk >= 0 (cells with all three indices equal are excluded) subject to

* column sums: sum_i t_ijk = b_jk for j != k;
* row sums:    sum_k t_ijk = a_ij for i != j;
* the c-slice: sum_j t_ijk = c_ik for i != k;
* a coupled diagonal condition tying the three star sums together:
  a*_jj + sum_{k != j} t_jjk  =  b*_jj + sum_{i != j} t_ijj
                              =  c*_jj + sum_{m != j} t_jmj  =:  t*_jjj.

Given the first two margin families and balanced a, b, the first equality is
automatic and the remaining one holds exactly when the derived c-slice is
itself balanced.  Each admissible tensor contributes

    (prod a_ij! prod b_jk! / prod t_ijk!)
      * prod_j eps_j^(a*_jj + b*_jj - t*_jjj)
      * prod_j ((a*_jj, t*_jjj)) ((b*_jj, t*_jjj)) / ((0, t*_jjj))

with ((p, q)) the falling bracket in eps_j.  The exponents are nonnegative,
all constants live in the localized polynomial ring, and substituting
eps_j = 1/n_j recovers the finite algebra whenever the star sums of a and b
fit under the margins.

The constraints separate by the middle index j.  Slice j is a
transportation table over rows i and columns k != j with column sums b_jk,
row i != j capped by a_ij (the remainder is t_ijj) and row j uncapped.  The
weight factorises into integer slice weights

    prod_{k != j} b_jk! / prod_i t_ijk!  *  prod_{i != j} a_ij! / t_ijj!,

and t*_jjj = a*_jj + sum_{k != j} t_jjk depends on slice j alone.  Each
table is read once into a packed integer key (the partial c and the row-j
total) and its weight.  The integer weight of every (c, t*-profile) is then
a convolution of those keys over j, and the balanced c are kept at the end.
Polynomials are touched once per profile, and the bracket product of a
profile is cancelled before it is built (``_profile_poly``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .algebra import _column, _convolve, _field_bits, _unpack
from .combination import Combination
from .cosets import Margins, OffDiagonalType, transport
from .epsring import EpsPolynomial, EpsRingElement, _den_product, _falling, _sum_over_lcm
from .errors import InvariantViolation, MarginOverflow

Grid = tuple[tuple[int, ...], ...]


def _star(entries: Grid, j: int) -> int:
    return sum(entries[i][j] for i in range(len(entries)) if i != j)


def _balanced(c: Grid) -> bool:
    """Column sum equals row sum at every index (c has a zero diagonal)."""
    return all(sum(col) == sum(row) for col, row in zip(zip(*c), c))


@lru_cache(maxsize=None)
def _slice_terms(j: int, a_col: tuple[int, ...], b_row: tuple[int, ...], shift: int):
    """(packed key, integer weight) for every slice j, one per transportation table.

    The table has rows i and columns k != j: column sums b_jk, row i != j
    capped by a_ij and row j uncapped.  The key holds the slice's share of
    c_ik (i != k): t_ijk for k != j and the remainder t_ijj = a_ij - (row
    sum) at (i, j), in field i*nu + k; and the row-j total sum_{k != j} t_jjk
    in field nu*nu + j.  Every t_ijk, the remainders included, divides the
    weight by its factorial.
    """
    nu = len(a_col)
    ks = [k for k in range(nu) if k != j]
    caps = tuple(sum(b_row) if i == j else a_col[i] for i in range(nu))
    top = prod(map(factorial, a_col)) * prod(map(factorial, b_row))
    out = []
    for table in transport(caps, tuple(b_row[k] for k in ks)):
        packed = 0
        den = 1
        for i, row in enumerate(table):
            if i == j:
                packed += sum(row) << (shift * (nu * nu + j))
            else:
                rest = a_col[i] - sum(row)
                packed += rest << (shift * (i * nu + j))
                den *= factorial(rest)
            for k, v in zip(ks, row):
                if i != k:
                    packed += v << (shift * (i * nu + k))
                den *= factorial(v)
        out.append((packed, top // den))
    return tuple(out)


def _profile_weights(a: Grid, b: Grid) -> dict[tuple[Grid, tuple[int, ...]], int]:
    """Integer weight sum_t prod a! prod b! / prod t! per balanced (c, t*-profile)."""
    nu = len(a)
    shift = _field_bits(sum(map(sum, a)) + sum(map(sum, b)))  # bounds every field
    states = _convolve(_slice_terms(j, _column(a, j), b[j], shift) for j in range(nu))
    a_stars = [_star(a, j) for j in range(nu)]
    out = {}
    for key, w in states.items():
        *c, row_sums = _unpack(key, nu + 1, nu, shift)
        c = tuple(c)
        if _balanced(c):
            t_stars = tuple(s + r for s, r in zip(a_stars, row_sums))
            out[(c, t_stars)] = w
    return out


@lru_cache(maxsize=None)
def _profile_poly(
    a_stars: tuple[int, ...], b_stars: tuple[int, ...], t_stars: tuple[int, ...], nu: int
) -> EpsPolynomial:
    """Numerator left by prod_j ((a*_j, t*_j)) ((b*_j, t*_j)) / ((0, t*_j)) after cancellation.

    In variable j the factor (1 - m*eps_j) appears in the numerator for m in
    [a*, t*) and again for m in [b*, t*), and once in the denominator for m
    in [1, t*).  Cancelling leaves one numerator copy on [max(a*, b*), t*)
    and a leftover denominator on [1, min(a*, b*)), which is independent of
    t*; the caller supplies the leftover as the pair-wide common denominator.
    Brackets in distinct variables multiply as an outer product of coefficients.
    """
    terms: dict[tuple[int, ...], int] = {(): 1}
    for j in range(nu):
        coeffs = _falling(max(a_stars[j], b_stars[j]), t_stars[j])
        terms = {d + (k,): c * v for d, c in terms.items() for k, v in enumerate(coeffs)}
    return EpsPolynomial._make(nu, terms)


@lru_cache(maxsize=None)
def _product_terms(a: Grid, b: Grid) -> dict[Grid, EpsRingElement]:
    nu = len(a)
    a_stars = tuple(_star(a, j) for j in range(nu))
    b_stars = tuple(_star(b, j) for j in range(nu))
    common_den: dict[tuple[int, int], int] = {}
    for j in range(nu):
        for m in range(1, min(a_stars[j], b_stars[j])):
            common_den[(j, m)] = 1
    numerators: dict[Grid, EpsPolynomial] = {}
    for (c, t_stars), w in _profile_weights(a, b).items():
        exps = tuple(a_stars[j] + b_stars[j] - t_stars[j] for j in range(nu))
        if min(exps) < 0:
            raise InvariantViolation(f"negative eps exponent {exps} for {a} * {b}")
        num = _profile_poly(a_stars, b_stars, t_stars, nu).shift_scale(exps, w)
        acc = numerators.get(c)
        numerators[c] = num if acc is None else acc + num
    out: dict[Grid, EpsRingElement] = {}
    for c, num in numerators.items():
        if num.is_zero():
            continue
        out[c] = EpsRingElement(nu, num, dict(common_den))
    return out


def universal_product(a: OffDiagonalType, b: OffDiagonalType) -> dict[OffDiagonalType, EpsRingElement]:
    """All nonzero structure constants for the ordered pair (a, b)."""
    if a.nu != b.nu:
        raise ValueError("size mismatch")
    return {
        OffDiagonalType._make(c): v for c, v in _product_terms(a.entries, b.entries).items()
    }


def universal_structure_constant(
    a: OffDiagonalType, b: OffDiagonalType, c: OffDiagonalType
) -> EpsRingElement:
    """The coefficient of c in the product of a and b; zero when no tensor fits."""
    if not (a.nu == b.nu == c.nu):
        raise ValueError("size mismatch")
    return _product_terms(a.entries, b.entries).get(c.entries, EpsRingElement.zero(a.nu))


def candidate_outputs(a: OffDiagonalType, b: OffDiagonalType) -> list[OffDiagonalType]:
    """The finitely many types reachable from the pair (a, b), sorted."""
    if a.nu != b.nu:
        raise ValueError("size mismatch")
    seen = {c for c, _ in _profile_weights(a.entries, b.entries)}
    return sorted((OffDiagonalType._make(c) for c in seen), key=lambda t: t.entries)


class UniversalElement(Combination):
    """Finite combination of off-diagonal basis types with ring-element coefficients."""

    __slots__ = ()

    @staticmethod
    def _space_of(tp: OffDiagonalType) -> int:
        return tp.nu

    def _coefficient(self, value) -> EpsRingElement:
        """A ring element as it is; a rational as the constant ring element."""
        if not isinstance(value, EpsRingElement):
            return EpsRingElement.from_rational(self.space, value)
        if value.nu != self.space:
            raise ValueError(f"coefficient in {value.nu} variables, expected {self.space}")
        return value

    @property
    def nu(self) -> int:
        return self.space

    @classmethod
    def unit(cls, nu: int) -> "UniversalElement":
        return cls.basis(OffDiagonalType.zero(nu))

    def __mul__(self, other: "UniversalElement") -> "UniversalElement":
        return universal_multiply(self, other)

    def to_json_dict(self):
        return {
            "nu": self.nu,
            "terms": [
                {"type": tp.to_json_dict(), "coeff": coeff.to_json_dict()}
                for tp, coeff in self.sorted_terms()
            ],
        }


def universal_multiply(x: UniversalElement, y: UniversalElement) -> UniversalElement:
    """Bilinear extension over ring-element coefficients.

    Contributions are accumulated as raw numerator/denominator pairs over a
    running least common denominator; cancellation runs once per final
    target, not once per contribution.
    """
    x._check(y)
    nu = x.nu
    acc: dict[OffDiagonalType, tuple[EpsPolynomial, dict]] = {}
    for ta, ca in x.terms.items():
        for tb, cb in y.terms.items():
            for tc_entries, coeff in _product_terms(ta.entries, tb.entries).items():
                tc = OffDiagonalType._make(tc_entries)
                num = ca.num * cb.num * coeff.num
                den = _den_product(ca.den, cb.den, coeff.den)
                acc[tc] = (num, den) if tc not in acc else _sum_over_lcm(*acc[tc], num, den)
    return UniversalElement(
        nu, {tc: EpsRingElement(nu, num, den) for tc, (num, den) in acc.items()}
    )


def specialize_constant(
    a: OffDiagonalType, b: OffDiagonalType, c: OffDiagonalType, margins: Margins
) -> Fraction:
    """The universal constant evaluated at eps_j = 1/n_j.

    Requires the star sums of a and b to fit under the margins (outside that
    region poles can occur).  The value then agrees with the finite-algebra
    structure constant of the embedded matrices, and is zero whenever the
    c star sums overflow.
    """
    if not (a.nu == b.nu == c.nu == margins.nu):
        raise ValueError("size mismatch")
    check_fit(a, b, margins)
    return universal_structure_constant(a, b, c).specialize(margins)


def check_fit(a: OffDiagonalType, b: OffDiagonalType, margins: Margins) -> None:
    """Raise ``MarginOverflow`` unless the star sums of a and b fit under the margins."""
    for tp in (a, b):
        for j in range(margins.nu):
            if tp.star(j) > margins.n[j]:
                raise MarginOverflow(j + 1, tp.star(j), margins.n[j])
