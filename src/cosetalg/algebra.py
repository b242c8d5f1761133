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
entry, to the integer weight accumulated so far.  No tensor is ever
materialised on this route.  One ``Fraction`` is built per distinct weight,
not per target, and the targets of equal weight share it.  The weights
repeat because they are sums of products of multinomials of small parts,
which take few values: the 128 pair products of a seed-1 ``finite``
benchmark round have 20,750 targets and, counted per product, 834 distinct
weights.  The packing layer (slice tables, keys, convolution, decoding)
lives in ``cosets``, where the universal product uses it too.

Two symmetries leave the coefficients unchanged: renaming blocks of equal
size (a permutation p of the block indices with n[p[i]] == n[i]), and the
anti-involution g -> g^-1 of S_N, which maps a coset matrix to its
transpose and reverses products.  ``product_table`` computes one product
per orbit of basis pairs and carries it to the rest of the orbit; at
(3,3,3) that is 301 products for 3,025 pairs.  Single products
(``multiply``, ``structure_constant``) take the direct route: a run of
products almost never meets the same orbit twice, so a canonical form
would cost more than it saves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
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
    values: dict[int, Fraction] = {}  # W_c -> its coefficient, built once per distinct weight
    out = {}
    for c, w in zip(_unpack(weights, nu, nu, shift), weights.values()):
        try:
            out[c] = values[w]
        except KeyError:
            out[c] = values[w] = Fraction(num * w, den)
    return out


def _require_same_margins(*ms: CosetMatrix) -> Margins:
    margins = ms[0].margins
    for m in ms[1:]:
        if m.margins != margins:
            raise ValueError("margin mismatch")
    return margins


def structure_constant(a: CosetMatrix, b: CosetMatrix, c: CosetMatrix) -> Fraction:
    """Exact coefficient of the c-basis element in the product of a and b."""
    _require_same_margins(a, b, c)
    value = _product_terms(a.entries, b.entries, a.margins.n).get(c.entries)
    return Fraction(0) if value is None else value


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


def _basis_product(a: CosetMatrix, b: CosetMatrix) -> list[tuple[CosetMatrix, Fraction]]:
    """(c, structure constant) for every target c of the basis pair (a, b)."""
    margins = a.margins
    make = CosetMatrix._make
    return [(make(c, margins), v) for c, v in _product_terms(a.entries, b.entries, margins.n).items()]


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


def _stabiliser(n: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every permutation p of the block indices with n[p[i]] == n[i].

    It is the product of the symmetric groups on the blocks of each size.
    Each p gives a different coset matrix, with n_i at (i, p[i]), so there
    are never more of them than basis elements.
    """
    blocks: dict[int, list[int]] = {}
    for i, size in enumerate(n):
        blocks.setdefault(size, []).append(i)
    perms = []
    for images in product(*(permutations(b) for b in blocks.values())):
        p = [0] * len(n)
        for b, image in zip(blocks.values(), images):
            for i, k in zip(b, image):
                p[i] = k
        perms.append(tuple(p))
    return perms


def product_table(
    margins: Margins, max_basis: int = 128
) -> list[tuple[CosetMatrix, CosetMatrix, CosetMatrix, Fraction]]:
    """Every nonzero structure constant, ordered by (a, b, c) entries.

    One product is computed per orbit of basis pairs under two symmetries of
    the structure constants, and carried to the rest of its orbit:

    - renaming blocks of equal size, m -> (m[p[i]][p[k]])_ik for p in
      ``_stabiliser(n)``: conjugating by a permutation of S_N that moves
      block i onto block p[i] maps the Young subgroup to itself and each
      double coset to the one of the renamed matrix;
    - the anti-involution g -> g^-1 of S_N: it maps the double coset of m to
      that of m^T and reverses products, so the coefficient of c in a*b is
      that of c^T in b^T * a^T.

    Each symmetry is a permutation of basis indices, so carrying a product
    over re-keys its targets and shares its ``Fraction`` values.  Only the
    table does this: a single product has no orbit mates to share with.
    """
    basis = _bounded_basis(margins, max_basis)
    n = margins.n
    entries = [m.entries for m in basis]
    index = {e: k for k, e in enumerate(entries)}
    transposed = [tuple(zip(*e)) for e in entries]
    maps = []  # (reverses the product, basis index -> index of its image)
    for p in _stabiliser(n):
        for flip, grids in ((False, entries), (True, transposed)):
            images = [index[tuple(tuple(g[i][k] for k in p) for i in p)] for g in grids]
            maps.append((flip, images))
    size = len(basis)
    table: list[list] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if table[i][j] is not None:
                continue
            terms = [(index[c], v) for c, v in _product_terms(entries[i], entries[j], n).items()]
            for flip, m in maps:
                x, y = (m[j], m[i]) if flip else (m[i], m[j])
                if table[x][y] is None:
                    table[x][y] = [(m[c], v) for c, v in terms]
    # basis order is entry order, so sorting target indices sorts targets
    rows = []
    for a, row in zip(basis, table):
        for b, terms in zip(basis, row):
            rows.extend((a, b, basis[c], v) for c, v in sorted(terms))
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
