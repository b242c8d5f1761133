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
is the universal one.  A profile's polynomial and its hyperplane values
depend on its exponent vector alone, so they are built once per distinct
exponent vector of the pair, already multiplied by the profile's monomial,
and each target's numerator is summed from them in one pass; the bracket
product of a profile is cancelled before it is built (``_profile_poly``).

What is left over is the pair-wide common denominator, (1 - m*eps_j) for m in
[1, min(a*_j, b*_j)), and almost none of its factors divides a target's
numerator N_c.  A factor that divides N_c makes it vanish on the whole
hyperplane eps_j = 1/m, so N_c is tested at one point of it, with eps_i = z_i
(the primes 2, 3, 5, ...) for i != j, and only a factor whose value is 0 goes
on to the real trial division.  A nonzero value proves that the factor does
not divide; a zero may be false, and the division settles it, so no
probability enters.  The value is an integer read off the profiles.  A
candidate needs min(a*_j, b*_j) >= 2, and a profile's corner t_jjj is at most
min(a*_j, b*_j), so t*_j >= lo_j = max(a*_j, b*_j) and every profile has
eps_j-degree exactly d_j = min(a*_j, b*_j).  Hence m^d_j N_c(eps_j = 1/m) is
the sum over c's profiles of w * prod_(i != j) h_i * g_j(m), with h_i the
profile's bracket and monomial in variable i at z_i and g_j(m) =
prod_(q in [lo_j, t*_j)) (m - q) (``_hyperplane_terms``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .combination import Combination
from .cosets import Grid, Margins, OffDiagonalType, _convolve, _field_bits, _slice_terms, _unpack
from .epsring import EpsPolynomial, EpsRingElement, _den_product, _falling, _sum_over_lcm
from .errors import MarginOverflow


def _star(entries: Grid, j: int) -> int:
    return sum(entries[i][j] for i in range(len(entries)) if i != j)


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
    corners: dict[int, tuple[tuple[int, ...], int]] = {}  # corner key -> (exps, prod exps!)
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for key, w in _convolve(slices).items():
        corner = corners.get(key >> top)
        if corner is None:
            ((exps,),) = _unpack((key >> top,), 1, nu, shift)
            corner = corners[key >> top] = (exps, prod(map(factorial, exps)))
        exps, scale = corner
        group = groups.get(key & mask)
        if group is None:
            group = groups[key & mask] = {}
        group[exps] = w * scale * num // den
    return dict(zip(_unpack(groups, nu, nu, shift), groups.values()))


@lru_cache(maxsize=None)
def _profile_poly(
    a_stars: tuple[int, ...], b_stars: tuple[int, ...], t_stars: tuple[int, ...]
) -> EpsPolynomial:
    """prod_j eps_j^(a*_j + b*_j - t*_j) times the numerator left by
    prod_j ((a*_j, t*_j)) ((b*_j, t*_j)) / ((0, t*_j)) after cancellation.

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
    return EpsPolynomial._make(len(t_stars), terms)


def _test_point(nu: int) -> list[int]:
    """The first nu primes z = (2, 3, 5, ...), where the hyperplane test fixes the
    variables it does not test."""
    z: list[int] = []
    k = 2
    while len(z) < nu:
        if all(k % p for p in z):
            z.append(k)
        k += 1
    return z


def _hyperplane_terms(
    candidates: list[tuple[int, int]], lows: list[int], exps: tuple[int, ...],
    t_stars: tuple[int, ...], z: list[int],
) -> list[int]:
    """prod_(i != j) h_i * g_j(m) of one profile, per candidate (j, m).

    h_i = z_i^exps_i * prod_(q in [max(lo_i, 1), t*_i)) (1 - q*z_i) is the
    profile's factor in a variable held at z_i, never 0; g_j(m) =
    prod_(q in [lo_j, t*_j)) (m - q) is m^d_j times its factor in eps_j at 1/m.
    """
    hs = [
        z[i] ** e * prod(1 - q * z[i] for q in range(max(low, 1), t))
        for i, (low, e, t) in enumerate(zip(lows, exps, t_stars))
    ]
    return [
        prod(hs[:j] + hs[j + 1 :]) * prod(m - q for q in range(lows[j], t_stars[j]))
        for j, m in candidates
    ]


def _numerators(
    a: Grid, b: Grid
) -> tuple[list[tuple[int, int]], dict[Grid, EpsPolynomial], dict[Grid, list[int]]]:
    """The candidate factors, the numerator N_c of every target c over them, and
    the hyperplane values of N_c.

    The candidates are the pair-wide common denominator, (j, m) for m in
    [1, min(a*_j, b*_j)), in that order; values[c][k] is the integer
    m^d_j * N_c(eps_j = 1/m, eps_i = z_i for i != j) of candidates[k] = (j, m),
    summed over c's profiles as w * prod_(i != j) h_i * g_j(m).
    """
    nu = len(a)
    a_stars = tuple(_star(a, j) for j in range(nu))
    b_stars = tuple(_star(b, j) for j in range(nu))
    lows = [max(x, y) for x, y in zip(a_stars, b_stars)]
    candidates = [(j, m) for j in range(nu) for m in range(1, min(a_stars[j], b_stars[j]))]
    z = _test_point(nu) if candidates else []
    # exps -> (terms of the shifted profile polynomial, _hyperplane_terms)
    profiles: dict[tuple[int, ...], tuple[dict, list[int]]] = {}
    numerators: dict[Grid, EpsPolynomial] = {}
    values: dict[Grid, list[int]] = {}
    for c, group in _profile_weights(a, b).items():
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        row = [0] * len(candidates)
        for exps, w in group.items():
            profile = profiles.get(exps)
            if profile is None:
                t_stars = tuple(x + y - e for x, y, e in zip(a_stars, b_stars, exps))
                profile = profiles[exps] = (
                    _profile_poly(a_stars, b_stars, t_stars).terms,
                    _hyperplane_terms(candidates, lows, exps, t_stars, z) if candidates else [],
                )
            terms, ts = profile
            for d, v in terms.items():
                acc[d] = get(d, 0) + w * v
            for k, v in enumerate(ts):
                row[k] += w * v
        if 0 in acc.values():  # profiles rarely cancel: filter only when some did
            acc = {d: v for d, v in acc.items() if v}
        numerators[c] = EpsPolynomial._make(nu, acc)
        values[c] = row
    return candidates, numerators, values


@lru_cache(maxsize=None)
def _product_terms(a: Grid, b: Grid) -> dict[Grid, EpsRingElement]:
    nu = len(a)
    candidates, numerators, values = _numerators(a, b)
    out: dict[Grid, EpsRingElement] = {}
    for c, num in numerators.items():
        if num.is_zero():
            continue
        row = values[c]
        # only a factor whose value is 0 may divide; the others stay as they are
        zeros = {f: 1 for f, v in zip(candidates, row) if not v}
        left: dict[tuple[int, int], int] = {}
        if zeros:
            divided = EpsRingElement(nu, num, zeros)
            num, left = divided.num, divided.den
        den = {f: 1 for f, v in zip(candidates, row) if v or f in left}
        out[c] = EpsRingElement._make(nu, num, den)
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
    value = _product_terms(a.entries, b.entries).get(c.entries)
    return EpsRingElement.zero(a.nu) if value is None else value


def candidate_outputs(a: OffDiagonalType, b: OffDiagonalType) -> list[OffDiagonalType]:
    """The finitely many types reachable from the pair (a, b), sorted."""
    if a.nu != b.nu:
        raise ValueError("size mismatch")
    targets = _profile_weights(a.entries, b.entries)
    return sorted((OffDiagonalType._make(c) for c in targets), key=lambda t: t.entries)


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
