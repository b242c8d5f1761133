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

The tensors are enumerated by the finite product's slice builder
(``cosets._slice_terms``).  The key of slice j holds its share of c_ik
(i != k) and, in one more field, its corner t_jjj; the other diagonal cells
stay out of the key.  The convolution over j gives the finite weight w of
every (c, corner vector), and w * prod_j t_jjj! * prod b_jk! / prod_j b*_jj!
is the universal one.  A profile's polynomial and the data of the divisor
rule below depend on its exponent vector alone, so they are built once per
distinct exponent vector of the pair, the polynomial already multiplied by
the profile's monomial and its bracket product cancelled (``_profile_poly``),
and each target's numerator is summed from its first profile's terms on.

What is left over is the pair-wide common denominator, (1 - m*eps_j) for m in
[1, d_j), d_j = min(a*_j, b*_j), and the factors that divide a target's
numerator N_c are read off its profiles exactly.  With lo_j = max(a*_j, b*_j),
a profile of c with exponent vector e and weight w is

    w * prod_i eps_i^e_i prod_(q in [lo_i, t*_i)) (1 - q*eps_i).

Fix a candidate (j, m).  The factor in a variable i != j has the lowest
monomial eps_i^e_i, with coefficient 1, so the products over i != j with
distinct exponents off j are linearly independent: the least exponent tuple
owns a monomial that no other product has.  A corner e_j is at most d_j, so
t*_j >= lo_j and e_j + t*_j - lo_j = d_j: at eps_j = 1/m the eps_j factor is
m^(-d_j) g_j(m, e_j), with g_j(m, e_j) = prod_(q in [lo_j, t*_j)) (m - q).
So (1 - m*eps_j) divides N_c iff sum w * g_j(m, e_j) = 0 over every set of
c's profiles that share their exponents off j.  Each m - q < 0, as
m < d_j <= lo_j <= q, and w > 0, so a lone profile never sums to 0: a target
of one profile keeps every candidate, and by the same argument over all
variables N_c != 0.  The candidates are distinct linear factors, so one
``divide_out`` call divides N_c by the product of its divisors; a divisor left
over raises ``InvariantViolation``.

The product cache holds the public key objects: each target is built once
as an ``OffDiagonalType``, whose hash is stored, and ``universal_product``
hands out a copy of the cached mapping with those same keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import mul

from .combination import Combination
from .cosets import (
    Grid,
    Margins,
    OffDiagonalType,
    _convolve,
    _field_bits,
    _slice_terms,
    _star,
    _unpack,
    check_fit,
)
from .epsring import EpsPolynomial, EpsRingElement, _den_product, _falling, _sum_over_lcm
from .errors import InvariantViolation


def _profile_weights(a: Grid, b: Grid) -> dict[Grid, dict[tuple[int, ...], int]]:
    """Integer weight sum_t prod a! prod b! / prod t! per target c and eps exponent vector,
    as {c: {exps: w}}.

    A convolution key holds c in its low nu*nu fields and the corner vector,
    which is the exponent vector, in the field row above them; each distinct
    target and each distinct corner is decoded once.
    """
    nu = len(a)
    a_stars = [_star(a, j) for j in range(nu)]
    b_stars = [_star(b, j) for j in range(nu)]
    shift = _field_bits(max(a_stars[j] + b_stars[j] for j in range(nu)))  # bounds every field
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
    # the finite weight divides by the corners' factorials and multiplies by
    # a_jj! = b*_j!; the universal one divides by neither and has b's factorials
    num = prod(factorial(v) for row in b for v in row)
    den = prod(map(factorial, b_stars))
    top = nu * nu * shift
    mask = (1 << top) - 1
    field = (1 << shift) - 1
    corners: dict[int, tuple[tuple[int, ...], int]] = {}  # corner key -> (exps, prod exps!)
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for key, w in _convolve(slices).items():
        corner = corners.get(key >> top)
        if corner is None:
            exps = tuple(key >> top + j * shift & field for j in range(nu))
            corner = corners[key >> top] = (exps, prod(map(factorial, exps)))
        exps, scale = corner
        group = groups.get(key & mask)
        if group is None:
            group = groups[key & mask] = {}
        group[exps] = w * scale * num // den
    return dict(zip(_unpack(groups, nu, nu, shift), groups.values()))


def _profile_poly(
    a_stars: tuple[int, ...], b_stars: tuple[int, ...], t_stars: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """The terms of prod_j eps_j^(a*_j + b*_j - t*_j) times the numerator left
    by prod_j ((a*_j, t*_j)) ((b*_j, t*_j)) / ((0, t*_j)) after cancellation.

    The monomial is the profile's, since its exponent vector is a* + b* - t*.
    In variable j the factor (1 - m*eps_j) appears in the numerator for m in
    [a*, t*) and again for m in [b*, t*), and once in the denominator for m
    in [1, t*).  Cancelling leaves one numerator copy on [max(a*, b*), t*)
    and a leftover denominator on [1, min(a*, b*)), which is independent of
    t*; the caller supplies the leftover as the pair-wide common denominator.
    Brackets in distinct variables multiply as an outer product of coefficients.
    """
    terms: dict[tuple[int, ...], int] = {(): 1}
    for x, y, t in zip(a_stars, b_stars, t_stars):
        e = x + y - t
        coeffs = _falling(max(x, y), t)
        terms = {d + (e + k,): c * v for d, c in terms.items() for k, v in enumerate(coeffs)}
    return terms


def _numerators(
    a: Grid, b: Grid
) -> tuple[list[tuple[int, int]], dict[Grid, EpsPolynomial], dict[Grid, list[tuple[int, int]]]]:
    """The candidate factors, the numerator N_c of every target c over them, and
    the candidates that divide N_c, listed for each target with a zero sum.

    The candidates are the pair-wide common denominator, (j, m) for m in
    [1, min(a*_j, b*_j)), in that order, and each target's divisors keep it.
    A profile adds w * g_j(m, e_j) to the sum of candidate k = (j, m) and its
    exponents off j, whose id is k + K * (those exponents as base-B digits),
    with K candidates and B above every exponent; k divides N_c iff all of
    c's sums of k are 0.
    """
    nu = len(a)
    a_stars = tuple(_star(a, j) for j in range(nu))
    b_stars = tuple(_star(b, j) for j in range(nu))
    lows = [max(x, y) for x, y in zip(a_stars, b_stars)]
    candidates = [(j, m) for j in range(nu) for m in range(1, min(a_stars[j], b_stars[j]))]
    size = len(candidates)
    powers = [(max(lows) + 1) ** i for i in range(nu)]  # B: an exponent e_j is at most lo_j
    profiles: dict[tuple[int, ...], tuple[dict, list[int], list[int]]] = {}  # exps -> terms, ids, g
    numerators: dict[Grid, EpsPolynomial] = {}
    divisors: dict[Grid, list[tuple[int, int]]] = {}
    for c, group in _profile_weights(a, b).items():
        for exps in group:
            if exps not in profiles:
                t_stars = tuple(x + y - e for x, y, e in zip(a_stars, b_stars, exps))
                code = sum(map(mul, exps, powers))
                ids = [k + size * (code - exps[j] * powers[j]) for k, (j, _) in enumerate(candidates)]
                gs = [prod(m - q for q in range(lows[j], t_stars[j])) for j, m in candidates]
                profiles[exps] = (_profile_poly(a_stars, b_stars, t_stars), ids, gs)
        items = iter(group.items())
        exps, w = next(items)
        terms, ids, gs = profiles[exps]
        acc = {d: w * v for d, v in terms.items()}
        sums = dict(zip(ids, map(w.__mul__, gs)))
        get = acc.get
        sget = sums.get
        for exps, w in items:
            terms, ids, gs = profiles[exps]
            for d, v in terms.items():
                acc[d] = get(d, 0) + w * v
            for i, g in zip(ids, gs):
                sums[i] = sget(i, 0) + w * g
        if 0 in acc.values():  # profiles rarely cancel: filter only when some did
            acc = {d: v for d, v in acc.items() if v}
        numerators[c] = EpsPolynomial._make(nu, acc)
        if 0 in sums.values():  # a sum of one profile is never 0: most targets stop here
            kept = {i % size for i, v in sums.items() if v}
            divisors[c] = [f for k, f in enumerate(candidates) if k not in kept]
    return candidates, numerators, divisors


@lru_cache(maxsize=None)
def _product_terms(a: Grid, b: Grid) -> dict[OffDiagonalType, EpsRingElement]:
    """{c: structure constant} for every target type c of the pair with entries a, b.

    Each key is built once, here, and the cache holds it: every later call
    hands out the same ``OffDiagonalType`` objects, whose hashes are stored.
    """
    nu = len(a)
    candidates, numerators, divisors = _numerators(a, b)
    make = OffDiagonalType._make
    out: dict[OffDiagonalType, EpsRingElement] = {}
    for c, num in numerators.items():
        den = dict.fromkeys(candidates, 1)
        cut = divisors.get(c)
        if cut:
            num, left = num.divide_out(dict.fromkeys(cut, 1))
            if left:  # the rule is exact: a factor it names must divide
                j, m = min(left)
                raise InvariantViolation(f"(1 - {m}*eps_{j + 1}) does not divide N_{c}")
            for f in cut:
                del den[f]
        out[make(c)] = EpsRingElement._make(nu, num, den)
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

