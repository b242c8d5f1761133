"""The margin-free algebra with deformation-ring coefficients.

Basis elements are indexed by balanced off-diagonal types.  The product of
types a and b extrapolates the finite algebra (``algebra``) at the margins
n_j = a*_jj + b*_jj.  Embed a and b there as coset matrices, so that
a_jj = b*_jj and b_jj = a*_jj.  The 3-tensors of the universal product are
then exactly the finite tensors t of the embedded pair with their corner
cells t_jjj left out, and the type c of a tensor is the off-diagonal part of
its finite target, so c is balanced as every coset matrix is.  The corner
t_jjj is the exponent of eps_j, and with t*_jjj = n_j - t_jjj each tensor
contributes

    (prod a_ij! prod b_jk! / prod t_ijk!)
      * prod_j eps_j^t_jjj
      * prod_j ((a*_jj, t*_jjj)) ((b*_jj, t*_jjj)) / ((0, t*_jjj))

with the products over off-diagonal a_ij and b_jk and over the cells t_ijk
whose indices are not all equal, and ((p, q)) the falling bracket in eps_j.
All constants live in the localized polynomial ring, and substituting
eps_j = 1/n_j recovers the finite algebra whenever the star sums of a and b
fit under the margins.

One pass builds a pair's product.  The finite product's slice builder
(``cosets._slice_terms``) enumerates the tensors: the packed key of slice j
holds its share of c_ik (i != k) and, in a field row above c, its corner
t_jjj.  The convolution over j maps each profile, a key of c and its corner
vector e, to its finite weight w; the universal one is
W = w * prod_j e_j! * prod b_jk! / prod_j b*_j!, whose divisor is the
product of b's row multinomials (``cosets._multinomial``; b's diagonal is
0).  In variable j the brackets cancel to one numerator copy on
[lo_j, t*_j), lo_j = max(a*_j, b*_j), and a denominator on [1, d_j),
d_j = min(a*_j, b*_j), that does not depend on t*_j: the pair-wide common
denominator, whose candidates (j, m) every constant lists by j, then m.  A
profile adds W * prod_i eps_i^e_i prod_(q in [lo_i, t*_i)) (1 - q*eps_i) to
its target's numerator N_c.  The factor in eps_i is built once per pair for
each corner e_i <= d_i, and their product once per corner row, keyed by
multidegree tuples, so each target sums straight into the keys of its final
polynomial; only the keys of the targets stay packed.

The factors of the common denominator that divide N_c are read off its
profiles exactly.  Fix a candidate (j, m), m in [1, d_j).  The factor in a
variable i != j has the lowest monomial eps_i^e_i, with coefficient 1, so
the products over i != j with distinct exponents off j are linearly
independent: the least exponent tuple owns a monomial that no other product
has.  A corner e_j is at most d_j, so t*_j >= lo_j and e_j + t*_j - lo_j =
d_j: at eps_j = 1/m the eps_j factor is m^(-d_j) g_j(m, e_j), with
g_j(m, e_j) = prod_(q in [lo_j, t*_j)) (m - q).  So (1 - m*eps_j) divides
N_c iff sum W * g_j(m, e_j) = 0 over every group of c's profiles that share
their exponents off j.  Such a group is the profiles whose keys agree off
corner field j, and in it W is w * e_j! times one positive factor.  Each
m - q < 0, as m < d_j <= lo_j <= q, and W > 0, so a lone profile never sums
to 0: a target with a lone group keeps every candidate in eps_j, and by the
same argument over all variables N_c != 0.  A target of one profile has a
lone group in every variable, so the rule reads only the profiles of the
targets that met a second profile, and only their numerators can hold a
term that cancelled to 0.  The candidates are distinct linear factors, so
one ``divide_out`` call divides N_c by the product of its divisors; a
divisor left over raises ``InvariantViolation``.

The product cache holds the public key objects.  The targets are interned
per nu and field width (``cosets._interned``), the layout the Poisson
brackets use: a target is decoded and built as an ``OffDiagonalType`` the
first time any product or bracket produces it, and while that layout's table
stays cached every later product hands out that same object.
``universal_product`` hands out a copy of the cached mapping with those keys.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import factorial, prod

from .combination import Combination
from .cosets import (
    Grid,
    Margins,
    OffDiagonalType,
    _convolve,
    _field_bits,
    _interned,
    _multinomial,
    _slice_terms,
    _star,
    check_fit,
)
from .epsring import EpsPolynomial, EpsRingElement, _den_product, _falling, _sum_over_lcm
from .errors import InvariantViolation


@lru_cache(maxsize=None)
def _product_terms(a: Grid, b: Grid) -> dict[OffDiagonalType, EpsRingElement]:
    """{c: structure constant} for every target type c of the pair with entries a, b."""
    nu = len(a)
    a_stars = [_star(a, j) for j in range(nu)]
    b_stars = [_star(b, j) for j in range(nu)]
    lows = [max(x, y) for x, y in zip(a_stars, b_stars)]
    shift = _field_bits(max(x + y for x, y in zip(a_stars, b_stars)))  # bounds every field
    slices = []
    for j in range(nu):
        # slice j of the pair embedded at n_j = a*_j + b*_j, where a_jj = b*_j
        # and b_jj = a*_j; the corner (j, j) keys the eps_j exponent
        caps = tuple(b_stars[j] if i == j else a[i][j] for i in range(nu))
        cols = tuple(a_stars[j] if k == j else b[j][k] for k in range(nu))
        fields = tuple(
            nu * nu + j if i == k == j else None if i == k else i * nu + k
            for i in range(nu)
            for k in range(nu)
        )
        slices.append(_slice_terms(caps, cols, shift, fields))
    # W = w * scale / b_rows: a corner row's scale is prod_j e_j!, b_rows b's row multinomials
    b_rows = prod(map(_multinomial, b))
    # the common denominator, copied for each target
    candidates = {(j, m): 1 for j in range(nu) for m in range(1, min(a_stars[j], b_stars[j]))}
    # the terms of eps_j^e * ((lo_j, t*_j)) for each corner e <= d_j, t*_j = n_j - e
    brackets = [
        [list(enumerate(_falling(lo, x + y - e), e)) for e in range(min(x, y) + 1)]
        for lo, x, y in zip(lows, a_stars, b_stars)
    ]
    top = nu * nu * shift
    mask = (1 << top) - 1
    field = (1 << shift) - 1
    # corner row -> scale, bracket terms {multidegree: coefficient}
    corners: dict[int, tuple[int, dict[tuple[int, ...], int]]] = {}
    targets: dict[int, dict[tuple[int, ...], int]] = {}  # c -> N_c as {multidegree: coefficient}
    shared = set()  # the targets that met a second profile
    profiles = _convolve(slices)
    for key, w in profiles.items():
        corner = corners.get(key >> top)
        if corner is None:
            exps = [key >> top + j * shift & field for j in range(nu)]
            terms = {(): 1}
            for row, e in zip(brackets, exps):  # brackets in distinct variables: an outer product
                terms = {d + (k,): x * v for d, x in terms.items() for k, v in row[e]}
            corner = corners[key >> top] = (prod(map(factorial, exps)), terms)
        scale, terms = corner
        weight = w * scale // b_rows
        c = key & mask
        acc = targets.get(c)
        if acc is None:
            targets[c] = {d: weight * v for d, v in terms.items()}
        else:
            shared.add(c)
            get = acc.get
            for d, v in terms.items():
                acc[d] = get(d, 0) + weight * v
    # a target of one profile has a lone group in every variable, so the rule
    # reads only the profiles of the shared targets
    grouped = [k for k in profiles if k & mask in shared]
    cuts: dict[int, list[tuple[int, int]]] = {}  # c -> the candidates that divide N_c
    for j in range(nu):
        dj = min(a_stars[j], b_stars[j])
        if dj < 2:  # no candidate in eps_j
            continue
        # a group is the profiles whose keys agree off corner field j; a target
        # with a lone group keeps every candidate in eps_j
        pos = top + j * shift
        sizes = Counter(map(((1 << top + nu * shift) - 1 ^ field << pos).__and__, grouped))
        lone = {k & mask for k, n in sizes.items() if n == 1}
        groups = [k for k, n in sizes.items() if n > 1 and k & mask not in lone]
        kept = set(map(mask.__and__, groups))  # the targets with no lone group
        ws = [[profiles.get(k | e << pos, 0) for k in groups] for e in range(dj + 1)]
        for m in range(1, dj):
            # each group's sum of w * e_j! * g_j(m, e_j), where t*_j = lo_j + d_j - e_j
            gs = [
                factorial(e) * prod(m - q for q in range(lows[j], lows[j] + dj - e))
                for e in range(dj + 1)
            ]
            sums = map(sum, zip(*[map(g.__mul__, col) for g, col in zip(gs, ws)]))
            for c in kept.difference(map(mask.__and__, compress(groups, sums))):
                cuts.setdefault(c, []).append((j, m))
    out: dict[OffDiagonalType, EpsRingElement] = {}
    types = _interned(targets, nu, nu, shift, OffDiagonalType._make)
    for (c, acc), tc in zip(targets.items(), types):
        if c in shared and 0 in acc.values():  # only summed profiles can cancel
            acc = {d: v for d, v in acc.items() if v}
        num = EpsPolynomial._make(nu, acc)
        den = candidates.copy()
        if cut := cuts.get(c):
            num, left = num.divide_out(dict.fromkeys(cut, 1))
            if left:  # the rule is exact: a factor it names must divide
                j, m = min(left)
                raise InvariantViolation(f"(1 - {m}*eps_{j + 1}) does not divide N_{tc.entries}")
            for f in cut:
                del den[f]
        out[tc] = EpsRingElement._make(nu, num, den)
    return out


def universal_product(a: OffDiagonalType, b: OffDiagonalType) -> dict[OffDiagonalType, EpsRingElement]:
    """All nonzero structure constants for the ordered pair (a, b)."""
    if a.nu != b.nu:
        raise ValueError("size mismatch")
    return dict(_product_terms(a.entries, b.entries))


def universal_structure_constant(
    a: OffDiagonalType, b: OffDiagonalType, c: OffDiagonalType
) -> EpsRingElement:
    """The coefficient of c in the product of a and b; zero when no tensor fits."""
    if not (a.nu == b.nu == c.nu):
        raise ValueError("size mismatch")
    value = _product_terms(a.entries, b.entries).get(c)
    return EpsRingElement.zero(a.nu) if value is None else value


def candidate_outputs(a: OffDiagonalType, b: OffDiagonalType) -> list[OffDiagonalType]:
    """The finitely many types reachable from the pair (a, b), sorted: the
    targets of their product, since no structure constant N_c is 0."""
    return sorted(universal_product(a, b))


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
            for tc, coeff in _product_terms(ta.entries, tb.entries).items():
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
    check_fit(margins, a, b)
    return universal_structure_constant(a, b, c).specialize(margins)

