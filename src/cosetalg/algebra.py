"""The finite double-coset algebra: exact products of coset averages.

The basis consists of the normalized coset sums, one per coset matrix.  The
coefficient of the c-basis element in a product of the a- and b-basis
elements is

    (prod_ij a_ij! * prod_jk b_jk! / prod_j n_j!) * sum_t 1 / prod_ijk t_ijk!

where the sum runs over all nonnegative integer 3-tensors t whose three
axis-wise marginal slices reproduce a, b and c:

    sum_k t_ijk = a_ij,   sum_i t_ijk = b_jk,   sum_j t_ijk = c_ik.

The first two constraints separate by the middle index j: the slice t_{.j.}
is a transportation table with row sums a_{.j} and column sums b_{j.}, and
c is the sum of the slices.  The slice weight prod_i a_ij! / prod_ik t_ijk!
is an integer (a product of multinomials), so

    coefficient = (prod_jk b_jk! / prod_j n_j!) * W_c,
    W_c = sum over slice choices with sum c of the product of slice weights.

W_c is computed for every target at once by a convolution over j: a dict
from the partial c, packed into one integer with a fixed bit width per
entry, to the integer weight accumulated so far.  One ``Fraction`` is built
per target; no tensor is ever materialised on this route.  The packing
layer (slice tables, keys, convolution) lives in ``cosets``, where the
universal product uses it too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .combination import Combination, bilinear
from .cosets import (
    CosetMatrix,
    Grid,
    Margins,
    _column,
    _convolve,
    _field_bits,
    _slice_terms,
    _unpack,
    enumerate_coset_matrices,
)
from .rationals import format_rational


@lru_cache(maxsize=None)
def _product_terms(a: Grid, b: Grid, n: tuple[int, ...]) -> dict[Grid, Fraction]:
    nu = len(n)
    shift = _field_bits(max(n))  # every partial c_ik is at most n_i
    cells = tuple(range(nu * nu))  # cell (i, k) packs into field i*nu + k
    weights = _convolve(_slice_terms(_column(a, j), b[j], shift, cells) for j in range(nu))
    num = prod(factorial(v) for row in b for v in row)
    den = prod(map(factorial, n))
    return {_unpack(key, nu, nu, shift): Fraction(num * w, den) for key, w in weights.items()}


def _require_same_margins(*ms: CosetMatrix) -> Margins:
    margins = ms[0].margins
    for m in ms[1:]:
        if m.margins != margins:
            raise ValueError("margin mismatch")
    return margins


def structure_constant(a: CosetMatrix, b: CosetMatrix, c: CosetMatrix) -> Fraction:
    """Exact coefficient of the c-basis element in the product of a and b."""
    _require_same_margins(a, b, c)
    return _product_terms(a.entries, b.entries, a.margins.n).get(c.entries, Fraction(0))


class AlgebraElement(Combination):
    """Exact rational combination of coset-matrix basis elements; the space is the margins."""

    __slots__ = ()

    @staticmethod
    def _space_of(m: CosetMatrix) -> Margins:
        return m.margins

    @property
    def margins(self) -> Margins:
        return self.space

    @classmethod
    def unit(cls, margins: Margins) -> "AlgebraElement":
        diag = tuple(
            tuple(margins.n[i] if i == j else 0 for j in range(margins.nu))
            for i in range(margins.nu)
        )
        return cls.basis(CosetMatrix(diag, margins))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def to_json_dict(self):
        return {
            "n": list(self.margins.n),
            "terms": [
                {"matrix": [list(r) for r in m.entries], "coeff": format_rational(c)}
                for m, c in self.sorted_terms()
            ],
        }


def _basis_product(a: CosetMatrix, b: CosetMatrix):
    """(c, structure constant) for every target c of the basis pair (a, b)."""
    margins = a.margins
    for c, v in _product_terms(a.entries, b.entries, margins.n).items():
        yield CosetMatrix._make(c, margins), v


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure constants; first factor acts first."""
    return bilinear(x, y, _basis_product)


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return multiply(x, y) - multiply(y, x)


def _bounded_basis(margins: Margins, max_basis: int) -> list[CosetMatrix]:
    """Every coset matrix of the margins; ValueError when there are more than ``max_basis``."""
    basis = enumerate_coset_matrices(margins)
    if len(basis) > max_basis:
        raise ValueError(f"{len(basis)} basis matrices exceed the configured bound {max_basis}")
    return basis


def product_table(
    margins: Margins, max_basis: int = 128
) -> list[tuple[CosetMatrix, CosetMatrix, CosetMatrix, Fraction]]:
    """Every nonzero structure constant, ordered by (a, b, c) entries."""
    basis = _bounded_basis(margins, max_basis)
    rows = []
    for a in basis:
        for b in basis:
            terms = _product_terms(a.entries, b.entries, margins.n)
            for c_entries in sorted(terms):
                rows.append(
                    (a, b, CosetMatrix._make(c_entries, margins), terms[c_entries])
                )
    return rows


class AssociativityReport:
    def __init__(
        self,
        margins: Margins,
        basis_size: int,
        triples_checked: int,
        violations: list[tuple[CosetMatrix, CosetMatrix, CosetMatrix]],
    ):
        self.margins = margins
        self.basis_size = basis_size
        self.triples_checked = triples_checked
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self):
        return {
            "n": list(self.margins.n),
            "basis_size": self.basis_size,
            "triples_checked": self.triples_checked,
            "violations": [
                [x.to_json_dict(), y.to_json_dict(), z.to_json_dict()]
                for x, y, z in self.violations
            ],
        }


def verify_associativity(margins: Margins, max_basis: int = 128) -> AssociativityReport:
    """Exhaustively compare (ab)c with a(bc) over all basis triples."""
    basis = _bounded_basis(margins, max_basis)
    violations = []
    checked = 0
    elems = {m: AlgebraElement.basis(m) for m in basis}
    for a in basis:
        for b in basis:
            ab = multiply(elems[a], elems[b])
            for c in basis:
                left = multiply(ab, elems[c])
                right = multiply(elems[a], multiply(elems[b], elems[c]))
                checked += 1
                if left != right:
                    violations.append((a, b, c))
    return AssociativityReport(margins, len(basis), checked, violations)
