"""Finite combinations of basis keys and the bilinear extension of a basis product.

Every sparse-term type of the package is a finite combination sum_k c_k * k
of keys that all lie in one space, held once here as ``Combination``.  Its
five subclasses say how to read a key's space and, where the ring is not the
rationals, how a rational becomes a coefficient: ``AlgebraElement`` (coset
matrices over the margins), ``GradedElement`` and ``UniversalElement``
(off-diagonal types over nu), ``EpsPolynomial`` (multidegrees over nu) and,
in the tests, ``GroupAlgebraVector`` (permutations over their length).  The algebras'
products are the bilinear extension of a product of basis keys.

A basis product is a mapping {key: nonzero coefficient}, which ``bilinear``
only reads: the algebras hand it their cached dicts, whose keys are built
once, and a product of two single terms copies the cached dict, so the
element it returns shares the keys but not the dict.

A sum or a difference copies the first operand's terms and merges the
second's into the copy, one helper for both: a difference stores -c for a
new key and prev - c for a shared one, so it builds no negated copy of the
second operand first.

Coefficient rule: the validating constructor stores a rational coefficient
through ``_exact``, so it is an ``int`` where integral and a ``Fraction``
otherwise, never a ``float``, and it drops zero coefficients.
Arithmetic keeps whatever the coefficient ring returns: ints stay ints, and a
sum of ``Fraction`` coefficients that happens to be integral stays a
``Fraction`` (it compares and hashes equal to the int).
"""

from __future__ import annotations

from fractions import Fraction


def _exact(x) -> int | Fraction:
    """Any rational as an ``int`` when integral, else as a ``Fraction``; an ``int`` as it is."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Combination:
    """A finite linear combination {basis key: nonzero coefficient} in one space."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms: dict | None = None):
        self.space = space
        self.terms: dict = {}
        if terms:
            for key, coeff in terms.items():
                if self._space_of(key) != space:
                    raise ValueError(f"{key!r} does not lie in {space!r}")
                coeff = self._coefficient(coeff)
                if coeff:
                    self.terms[key] = coeff

    @staticmethod
    def _space_of(key):
        raise NotImplementedError

    def _coefficient(self, value):
        """A value as a stored coefficient."""
        return _exact(value)

    @classmethod
    def _make(cls, space, terms: dict):
        """Trusted constructor: keys lie in ``space``, coefficients are stored form and nonzero."""
        self = object.__new__(cls)
        self.space = space
        self.terms = terms
        return self

    @classmethod
    def basis(cls, key):
        return cls(cls._space_of(key), {key: 1})

    @classmethod
    def zero(cls, space):
        return cls._make(space, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.space != self.space:
            raise ValueError(f"space mismatch: {self.space!r} and {other.space!r}")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.space == self.space and other.terms == self.terms

    def __add__(self, other):
        return self._merge(other, False)

    def __neg__(self):
        return (-1) * self

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, negate: bool):
        """self + other, or self - other when ``negate``: other's terms merge into a copy."""
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            prev = terms.get(key)
            if prev is None:
                terms[key] = -coeff if negate else coeff
                continue
            total = prev - coeff if negate else prev + coeff
            if total:
                terms[key] = total
            else:
                del terms[key]
        return self._make(self.space, terms)

    def __rmul__(self, scalar):
        scalar = _exact(scalar)
        if not scalar:
            return self.zero(self.space)
        return self._make(self.space, {key: scalar * c for key, c in self.terms.items()})

    def coefficient(self, key):
        coeff = self.terms.get(key)
        return self._coefficient(0) if coeff is None else coeff

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        body = ", ".join(f"{key!r}: {coeff}" for key, coeff in self.sorted_terms())
        return f"{type(self).__name__}({self.space!r}, {{{body}}})"


def bilinear(x: Combination, y: Combination, basis_product) -> Combination:
    """x * y for the product whose value on basis keys a, b is ``basis_product(a, b)``.

    ``basis_product`` returns a mapping {key: nonzero coefficient} with its
    keys in the same space; it may be a cached dict, which is only read,
    never stored or handed out.  Contributions are summed per target, and
    zeros are dropped once at the end.  A product of two single terms has one
    contribution and is built directly; under the int weight 1 it is a copy
    of the mapping, whose values are taken as they are, since 1 * v is v of
    the same type.
    """
    x._check(y)
    if len(x.terms) == len(y.terms) == 1:
        ((a, ca),), ((b, cb),) = x.terms.items(), y.terms.items()
        w = ca * cb
        if type(w) is int and w == 1:
            return x._make(x.space, dict(basis_product(a, b)))
        return x._make(x.space, {c: w * v for c, v in basis_product(a, b).items()})
    acc: dict = {}
    get = acc.get
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            w = ca * cb
            for c, v in basis_product(a, b).items():
                prev = get(c)
                acc[c] = w * v if prev is None else prev + w * v
    return x._make(x.space, {c: v for c, v in acc.items() if v})
