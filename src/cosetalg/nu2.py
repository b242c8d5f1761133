"""The two-block case: scalar basis, explicit sums, terminating 4F3 forms.

With two blocks the basis is indexed by a single integer a between 0 and
min(n1, n2): the coset matrix is [[n1-a, a], [a, n2-a]].  The structure
constants collapse to a double sum over two free tensor cells (sigma, tau),
and rewriting the factorials through Pochhammer symbols turns the sum into a
terminating generalized hypergeometric series at argument 1.

The classical parameters apply when the sum starts at sigma = 0, which needs
c >= max(a, b) and a + b <= n2.  Otherwise the summation is re-based at its
true starting point with the same two transformation rules,
(p + s)! = p! (p+1)_s and (q - s)! = (-1)^s q! / (-q)_s, which again yields
a 4F3; the exhaustive equality test against the plain double sum is the
correctness certificate for every branch.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import structure_constant
from .cosets import CosetMatrix, Margins
from .errors import HypergeometricParameterError, InvariantViolation
from .oracle import oracle_structure_constant


def _check_domain(a: int, b: int, c: int, n1: int, n2: int):
    if n1 < 1 or n2 < 1:
        raise ValueError("block sizes must be positive")
    top = min(n1, n2)
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not 0 <= v <= top:
            raise ValueError(f"{name}={v} outside [0, min(n1, n2)] = [0, {top}]")


def phi_matrix(a: int, n1: int, n2: int) -> CosetMatrix:
    """The basis matrix [[n1-a, a], [a, n2-a]]."""
    return CosetMatrix(((n1 - a, a), (a, n2 - a)), Margins((n1, n2)))


def _prefactor(a: int, b: int, n1: int, n2: int) -> Fraction:
    """The factor a!^2 b!^2 (n1-a)! (n2-a)! (n1-b)! (n2-b)! / (n1! n2!) of every term."""
    return Fraction(
        factorial(a) ** 2 * factorial(b) ** 2
        * factorial(n1 - a) * factorial(n2 - a) * factorial(n1 - b) * factorial(n2 - b),
        factorial(n1) * factorial(n2),
    )


def s_sum(a: int, b: int, c: int, n1: int, n2: int) -> Fraction:
    """Structure constant as the explicit double sum over (sigma, tau).

    Terms where any factorial argument would go negative contribute zero.
    """
    _check_domain(a, b, c, n1, n2)
    total = Fraction(0)
    for sigma in range(0, min(a, b) + 1):
        tau = a + b - c - sigma
        if not 0 <= tau <= min(a, b):
            continue
        args = (
            sigma, tau, a - sigma, b - sigma, a - tau, b - tau,
            n1 - a - b + tau, n2 - a - b + sigma,
        )
        if any(x < 0 for x in args):
            continue
        den = 1
        for x in args:
            den *= factorial(x)
        total += Fraction(1, den)
    return _prefactor(a, b, n1, n2) * total


def f43_terminating(upper, lower) -> Fraction:
    """Terminating 4F3 at unit argument, summed exactly.

    ``upper`` holds four parameters of which at least one must be a
    nonpositive integer (it terminates the series); ``lower`` holds three.
    Raises if a lower Pochhammer vanishes before the series terminates.
    """
    upper = [Fraction(u) for u in upper]
    lower = [Fraction(l) for l in lower]
    if len(upper) != 4 or len(lower) != 3:
        raise ValueError("need exactly four upper and three lower parameters")
    stops = [-u for u in upper if u <= 0 and u.denominator == 1]
    if not stops:
        raise ValueError("no nonpositive-integer upper parameter: series does not terminate")
    k_stop = int(min(stops))
    total = Fraction(1)
    term = Fraction(1)
    for k in range(k_stop):
        for l in lower:
            if l + k == 0:
                raise HypergeometricParameterError(
                    f"lower parameter {l} hits zero at term {k + 1} before termination"
                )
        ratio = Fraction(1, k + 1)
        for u in upper:
            ratio *= u + k
        for l in lower:
            ratio /= l + k
        term *= ratio
        total += term
    return total


def s_closed_form(a: int, b: int, c: int, n1: int, n2: int) -> Fraction:
    """Structure constant as (prefactor) * 4F3(1), exact on every branch.

    In terms of the single summation variable sigma the summand is

        1 / [sigma! (a+b-c-sigma)! (a-sigma)! (b-sigma)!
             (c-b+sigma)! (c-a+sigma)! (n1-c-sigma)! (n2-a-b+sigma)!]

    so the sum runs from s0 = max(0, b-c, a-c, a+b-n2) up to
    min(a, b, a+b-c, n1-c).  Re-based at s0 the term ratio is a ratio of
    Pochhammer products: four upper parameters from the factorials that
    shrink with sigma, three lower ones (plus the implicit k!) from those
    that grow.  With s0 = 0 these are the classical parameters
    (-a, -b, c-a-b, c-n1; c-b+1, c-a+1, n2-a-b+1).
    """
    _check_domain(a, b, c, n1, n2)
    s0 = max(0, b - c, a - c, a + b - n2)
    s_max = min(a, b, a + b - c, n1 - c)
    if s_max < s0:
        return Fraction(0)
    base_args = (
        s0, a + b - c - s0, a - s0, b - s0,
        c - b + s0, c - a + s0, n1 - c - s0, n2 - a - b + s0,
    )
    if min(base_args) < 0:
        raise InvariantViolation(f"negative 4F3 base argument in {base_args}")
    den = 1
    for x in base_args:
        den *= factorial(x)
    upper = (s0 - a, s0 - b, s0 + c - a - b, s0 + c - n1)
    lowers = [s0 + 1, c - b + s0 + 1, c - a + s0 + 1, n2 - a - b + s0 + 1]
    lowers.remove(1)  # the slot realizing s0 supplies the series k!
    return _prefactor(a, b, n1, n2) / den * f43_terminating(upper, tuple(lowers))


def s_eq3(a: int, b: int, c: int, n1: int, n2: int) -> Fraction:
    """Same constant through the general finite-algebra tensor sum."""
    _check_domain(a, b, c, n1, n2)
    return structure_constant(
        phi_matrix(a, n1, n2), phi_matrix(b, n1, n2), phi_matrix(c, n1, n2)
    )


def s_oracle(a: int, b: int, c: int, n1: int, n2: int, limit: int | None = None) -> Fraction:
    """Same constant by counting permutation pairs (brute force)."""
    _check_domain(a, b, c, n1, n2)
    return oracle_structure_constant(
        phi_matrix(a, n1, n2), phi_matrix(b, n1, n2), phi_matrix(c, n1, n2), limit=limit
    )
