"""Exact arithmetic in rational-coefficient rings of the deformation variables.

Coefficients are exact rationals, never floats.  An integral coefficient is
held as a Python ``int`` and a ``Fraction`` appears only where a coefficient
is truly non-integral (a rational passed in, a rational multiple).  Everything
the universal algebra builds stays in the integers: slice weights are
integers, the brackets prod (1 - m*eps_j) have integer coefficients, and
dividing by (1 - m*eps_j) keeps them integral because the divisor's constant
term is 1.  Specialisation sums integers over one common denominator.

Two layers, both exact:

* ``EpsPolynomial``: sparse multivariate polynomials in eps_1, ..., eps_nu
  over the rationals; a ``Combination`` of exponent multidegrees whose space
  is nu, so sums, scalar multiples, equality and term access are the shared
  ones.
* ``EpsRingElement``: a polynomial numerator over a multiset of linear
  denominator factors (1 - m*eps_j), m >= 1.  Denominators are never
  expanded, so deciding whether a substitution eps_j = 1/n_j hits a pole is
  a multiset lookup after cancellation.

Division by (1 - m*eps_j) runs on eps_j-chains: the terms that share their
exponents in the other variables form a dense list p_0, p_1, ... of
coefficients of eps_j^k, and the quotient satisfies q_k = p_k + m*q_(k-1).
Run over the whole chain the recurrence is exact division (it divides iff the
last q vanishes).  One ``divide_out`` call takes a whole factor multiset
{(j, m): mult} and groups it by variable itself.  The universal product
passes it only factors its profile weights prove to divide, so none of its
divisions fails; the canonical form of sums and products tries every factor.
The chains serve only ``divide_out``: ``expand`` runs the same recurrence
once per variable on the series of prod_m 1/(1 - m*eps_j) and multiplies it
in, and ``specialize`` reads each term's weight prod n_j^(E_j - e_j) from the
one table cached per margins n, whose E only grows to the largest degrees met.

Canonical form: no factor present in the denominator divides the numerator.
Because every factor is linear with constant term 1, the canonical
numerator/denominator pair of a given rational function is unique, and
cancellation is one synthetic division per factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import add, index, mul, sub

from .combination import Combination
from .cosets import Margins
from .errors import PoleAtSpecialization

Degree = tuple[int, ...]
Rational = int | Fraction
Den = dict[tuple[int, int], int]  # {(j, m): multiplicity of (1 - m*eps_j)}


class EpsPolynomial(Combination):
    """Sparse polynomial: a combination of exponent multidegrees in nu variables.

    A coefficient is an ``int`` where integral and a ``Fraction`` otherwise,
    never a ``float``; the constructor accepts any rational.  Exponents are
    read through ``operator.index``, so a float exponent raises ``TypeError``.
    """

    __slots__ = ()

    @staticmethod
    def _space_of(deg: Degree) -> int:
        if any(index(d) < 0 for d in deg):
            raise ValueError(f"negative exponent in multidegree {deg}")
        return len(deg)

    @property
    def nu(self) -> int:
        return self.space

    @classmethod
    def constant(cls, nu: int, value) -> "EpsPolynomial":
        return cls(nu, {(0,) * nu: value})

    @classmethod
    def monomial(cls, nu: int, deg: Degree, coeff=1) -> "EpsPolynomial":
        return cls(nu, {tuple(deg): coeff})

    def __mul__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        self._check(other)
        out: dict[Degree, Rational] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = tuple(map(add, d1, d2))
                acc = out.get(d)
                out[d] = c1 * c2 if acc is None else acc + c1 * c2
        return EpsPolynomial._make(self.space, {d: c for d, c in out.items() if c})

    def divide_out(self, factors: Den) -> tuple["EpsPolynomial", Den]:
        """Divide by each (1 - m*eps_j)^mult of ``factors`` as far as it divides exactly.

        Returns the quotient and the factors {(j, m): mult} left over; zero is
        divided by every factor.  The factors are grouped by variable, j
        ascending, and the eps_j-chains built once per variable; each chain
        divides on its own, m ascending, and a division is exact iff it is
        exact in every chain.
        """
        if self.is_zero():
            return self, {}
        left = {f: mult for f, mult in factors.items() if mult}
        poly = self
        for j in sorted({j for j, _ in left}):
            chains = start = _chains(poly, j)
            for f in sorted(f for f in left if f[0] == j):
                while left[f] and (quotients := _divide_chains(chains, f[1])) is not None:
                    chains = quotients
                    left[f] -= 1
            if chains is not start:  # something divided
                poly = _unchain(chains, j, self.space)
        return poly, {f: mult for f, mult in left.items() if mult}

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for deg, coeff in self.sorted_terms():
            mono = "*".join(
                f"e{i + 1}^{e}" if e > 1 else f"e{i + 1}"
                for i, e in enumerate(deg)
                if e
            )
            bits.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return " + ".join(bits)


def _chains(poly: EpsPolynomial, j: int) -> dict[Degree, list[Rational]]:
    """The terms as eps_j-chains: {multidegree with eps_j exponent 0: [p_0, ..., p_top]}."""
    chains: dict[Degree, list[Rational]] = {}
    for deg, coeff in poly.terms.items():
        k = deg[j]
        chain = chains.setdefault(deg[:j] + (0,) + deg[j + 1 :], [])
        if len(chain) <= k:
            chain.extend([0] * (k + 1 - len(chain)))
        chain[k] = coeff
    return chains


def _unchain(chains: dict[Degree, list[Rational]], j: int, nu: int) -> EpsPolynomial:
    """The polynomial whose eps_j-chains are ``chains``; zero coefficients are dropped."""
    terms: dict[Degree, Rational] = {}
    for rest, chain in chains.items():
        for k, coeff in enumerate(chain):
            if coeff:
                terms[rest[:j] + (k,) + rest[j + 1 :]] = coeff
    return EpsPolynomial._make(nu, terms)


def _divide_chains(
    chains: dict[Degree, list[Rational]], m: int
) -> dict[Degree, list[Rational]] | None:
    """Every chain [p_0, ..., p_top] divided by (1 - m*x), or None if one does not divide.

    The quotient q_k = p_k + m*q_(k-1), run over the whole chain, is exact iff
    its last coefficient is 0.
    """
    out = {}
    for rest, chain in chains.items():
        quotient = []
        carry = 0
        for p in chain:
            carry = p + m * carry
            quotient.append(carry)
        if quotient.pop():
            return None
        out[rest] = quotient
    return out


def bracket(p: int, q: int, j: int, nu: int) -> EpsPolynomial:
    """The product (1 - p*eps_j)(1 - (p+1)*eps_j) ... (1 - (q-1)*eps_j).

    Empty products (p == q) are 1; the m = 0 factor is 1 and contributes
    nothing.  Requires 0 <= p <= q and 0 <= j < nu.
    """
    if not 0 <= p <= q:
        raise ValueError(f"need 0 <= p <= q, got ({p}, {q})")
    if not 0 <= j < nu:
        raise ValueError(f"variable index {j} out of range for nu={nu}")
    head, tail = (0,) * j, (0,) * (nu - j - 1)
    return EpsPolynomial._make(nu, {head + (k,) + tail: c for k, c in enumerate(_falling(p, q))})


def _falling(p: int, q: int) -> list[int]:
    """Coefficients of (1 - p*x) ... (1 - (q-1)*x) by ascending power of x; none is 0,
    since the roots 1/m are positive and the signs alternate."""
    coeffs = [1]
    for m in range(max(p, 1), q):
        coeffs = [c - m * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class EpsRingElement:
    """Numerator polynomial over a multiset of factors (1 - m*eps_j), canonical.

    The constructor reads j, m and each multiplicity through ``operator.index``,
    so a float raises ``TypeError``; ``_make`` checks nothing.
    """

    __slots__ = ("nu", "num", "den")

    def __init__(self, nu: int, num: EpsPolynomial, den: Den | None = None):
        if num.nu != nu:
            raise ValueError("numerator variable count mismatch")
        for (j, m), mult in (den or {}).items():
            j, m, mult = index(j), index(m), index(mult)
            if mult < 0:
                raise ValueError("negative multiplicity")
            if m < 1:
                raise ValueError("denominator factors need m >= 1")
            if not 0 <= j < nu:
                raise ValueError("denominator variable index out of range")
        self.nu = nu
        self.num, self.den = num.divide_out(den or {})

    @classmethod
    def _make(cls, nu: int, num: EpsPolynomial, den: Den) -> "EpsRingElement":
        """Trusted constructor: num over den already canonical, den empty when num is zero."""
        self = object.__new__(cls)
        self.nu = nu
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_rational(cls, nu: int, value) -> "EpsRingElement":
        return cls(nu, EpsPolynomial.constant(nu, value))

    @classmethod
    def zero(cls, nu: int) -> "EpsRingElement":
        return cls._make(nu, EpsPolynomial.zero(nu), {})

    @classmethod
    def one(cls, nu: int) -> "EpsRingElement":
        return cls.from_rational(nu, 1)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def den_polynomial(self) -> EpsPolynomial:
        return _times_factors(EpsPolynomial._make(self.nu, {(0,) * self.nu: 1}), self.den)

    def __eq__(self, other) -> bool:
        """The canonical form of a rational function is unique, so compare it directly."""
        return (
            isinstance(other, EpsRingElement) and self.den == other.den and self.num == other.num
        )

    def __add__(self, other: "EpsRingElement") -> "EpsRingElement":
        if self.nu != other.nu:
            raise ValueError("variable count mismatch")
        return EpsRingElement(self.nu, *_sum_over_lcm(self.num, self.den, other.num, other.den))

    def __neg__(self) -> "EpsRingElement":
        return EpsRingElement._make(self.nu, -self.num, dict(self.den))

    def __sub__(self, other: "EpsRingElement") -> "EpsRingElement":
        return self + (-other)

    def __mul__(self, other: "EpsRingElement") -> "EpsRingElement":
        if self.nu != other.nu:
            raise ValueError("variable count mismatch")
        return EpsRingElement(self.nu, self.num * other.num, _den_product(self.den, other.den))

    def __rmul__(self, scalar) -> "EpsRingElement":
        """Multiply by a rational; a nonzero factor cannot change which factors divide."""
        num = scalar * self.num
        return EpsRingElement._make(self.nu, num, dict(self.den) if num.terms else {})

    def specialize(self, margins: Margins) -> Fraction:
        """Evaluate at eps_j = 1/n_j; fails exactly on surviving factors with m = n_j.

        With E_j the largest degree in eps_j met so far at n, a term
        c * prod eps_j^e_j is c * prod n_j^(E_j - e_j) over prod n_j^E_j, both
        read from the one table kept per margins (``_weight_table``); only a
        monomial the table has not met sends the element's terms to
        ``_WeightTable.add``.  Each factor 1/(1 - m/n_j) is n_j/(n_j - m), so
        the denominator folds into one integer ratio and the value is built as
        a single Fraction, which reduces it, so a larger E changes no value.
        """
        if margins.nu != self.nu:
            raise ValueError("margins dimension mismatch")
        n = margins.n
        for j, m in self.den:
            if m == n[j]:
                j, m = min(f for f in self.den if f[1] == n[f[0]])
                raise PoleAtSpecialization(j + 1, m)
        terms = self.num.terms
        table = _weight_table(n)
        try:
            total = sum(map(mul, terms.values(), map(table.weights.__getitem__, terms)))
        except KeyError:
            table.add(terms)
            total = sum(map(mul, terms.values(), map(table.weights.__getitem__, terms)))
        den = table.den
        for (j, m), mult in self.den.items():
            total *= n[j] ** mult
            den *= (n[j] - m) ** mult
        return Fraction(total, den)

    def expand(self, order: int) -> EpsPolynomial:
        """The power series to total degree ``order``, as a polynomial.

        Each variable's factors prod_m 1/(1 - m*eps_j) form one series
        g_0 + g_1 eps_j + ... in eps_j alone, built by g_k += m*g_(k-1) per
        factor; the truncated numerator is multiplied by it one variable at a
        time, a term of total degree r taking g_0 .. g_(order - r).  No
        eps_j-chains are built: they serve only ``divide_out``.  The numerator
        is truncated first, so no series is built when nothing is left.
        """
        if order < 0:
            raise ValueError("order must be nonnegative")
        terms = {d: c for d, c in self.num.terms.items() if sum(d) <= order}
        if not terms:
            return EpsPolynomial._make(self.nu, {})
        series: dict[int, list[int]] = {}  # j -> [g_0, ..., g_order]
        for (j, m), mult in self.den.items():
            g = series.get(j)
            if g is None:
                g = series[j] = [1] + [0] * order
            for _ in range(mult):
                for k in range(1, order + 1):
                    g[k] += m * g[k - 1]
        for j, g in series.items():
            out: dict[Degree, Rational] = {}
            get = out.get
            for d, c in terms.items():
                head, e, tail = d[:j], d[j], d[j + 1 :]
                for k in range(order + 1 - sum(d)):
                    key = head + (e + k,) + tail
                    out[key] = get(key, 0) + c * g[k]
            terms = out
        return EpsPolynomial._make(self.nu, {d: c for d, c in terms.items() if c})

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        bits = [
            f"(1-{m}e{j + 1})" + (f"^{mult}" if mult > 1 else "")
            for (j, m), mult in sorted(self.den.items())
        ]
        return f"({self.num!r}) / ({'*'.join(bits)})"


class _WeightTable:
    """The term weights at margins n: E = ``tops``, the largest degrees met so
    far, ``den`` = prod n_j^E_j and ``weights`` = {e: prod n_j^(E_j - e_j)}
    for each monomial e met, never the whole box below E."""

    __slots__ = ("n", "tops", "den", "weights")

    def __init__(self, n: tuple[int, ...]):
        self.n = n
        self.tops: Degree = (0,) * len(n)
        self.den = 1
        self.weights: dict[Degree, int] = {}

    def add(self, degrees) -> None:
        """Raise E to cover ``degrees``, re-weighting the monomials met once, and weigh
        those of ``degrees`` not yet met."""
        n, weights = self.n, self.weights
        tops = tuple(map(max, self.tops, *degrees))
        if tops != self.tops:
            scale = prod(map(pow, n, map(sub, tops, self.tops)))
            for e, w in weights.items():
                weights[e] = w * scale
            self.tops, self.den = tops, self.den * scale
        for e in degrees:
            if e not in weights:
                weights[e] = prod(map(pow, n, map(sub, tops, e)))


@lru_cache(maxsize=256)
def _weight_table(n: tuple[int, ...]) -> _WeightTable:
    """The one weight table at margins n.

    The bound is above the margins a cold ``universal`` benchmark round meets,
    so a round never evicts; an evicted table is rebuilt as it is met again.
    """
    return _WeightTable(n)


def _times_factors(poly: EpsPolynomial, factors: Den) -> EpsPolynomial:
    """poly times prod (1 - m*eps_j)^mult over the factors {(j, m): mult}."""
    for (j, m), mult in sorted(factors.items()):
        lin = bracket(m, m + 1, j, poly.space)
        for _ in range(mult):
            poly = poly * lin
    return poly


def _den_product(*dens: Den) -> Den:
    """The denominator of a product: factor multiplicities add."""
    out = dict(dens[0])
    for den in dens[1:]:
        for key, mult in den.items():
            out[key] = out.get(key, 0) + mult
    return out


def _sum_over_lcm(
    num1: EpsPolynomial, den1: Den, num2: EpsPolynomial, den2: Den
) -> tuple[EpsPolynomial, Den]:
    """num1/den1 + num2/den2 as a numerator over the lcm of the denominators, not cancelled."""
    lcm = dict(den1)
    for key, mult in den2.items():
        if mult > lcm.get(key, 0):
            lcm[key] = mult
    extra1 = {k: v - den1.get(k, 0) for k, v in lcm.items() if v != den1.get(k, 0)}
    extra2 = {k: v - den2.get(k, 0) for k, v in lcm.items() if v != den2.get(k, 0)}
    return _times_factors(num1, extra1) + _times_factors(num2, extra2), lcm

