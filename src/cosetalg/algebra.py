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
is an integer (a product of multinomials), and the rows of b sum to n, so

    coefficient = W_c / prod_j multinomial(n_j; b_j.),
    W_c = sum over slice choices with sum c of the product of slice weights,

with multinomial(n_j; b_j.) = n_j! / prod_k b_jk!; ``cosets._multinomial``
builds each from binomials, so no factorial of a margin is ever formed.

W_c is computed for every target at once by a convolution over j: a dict
from the partial c, packed into one integer with a fixed bit width per
entry, to the integer weight accumulated so far.  No tensor is ever
materialised on this route.  One ``Fraction`` is built per distinct weight,
not per target, and the targets of equal weight share it.  The weights
repeat because they are sums of products of multinomials of small parts,
which take few values, so a product has far fewer distinct weights than
targets.  The packing layer (slice tables, keys, convolution, decoding)
lives in ``cosets``, where the universal product uses it too.

``_coefficients`` runs this route and returns the coefficients keyed by
packed target.  ``_product_terms`` wraps it with the product cache, which
holds the public key objects.  The targets of products at the same margins
repeat from one product to the next, so the keys are interned per margins
(``cosets._interned``): a target is decoded and built as a ``CosetMatrix``
the first time any product produces it, and while the margins' table stays
cached every product that produces it again hands out that same object.  A
warm product builds no key, and merging products compares none.

Two symmetries leave the coefficients unchanged: renaming blocks of equal
size (a permutation p of the block indices with n[p[i]] == n[i]), and the
anti-involution g -> g^-1 of S_N, which maps a coset matrix to its
transpose and reverses products.  ``product_table`` computes one product
per orbit of basis pairs and carries it to the rest of the orbit.  The
table never decodes a key: it packs each basis grid once, maps each orbit
product's packed targets straight to basis indices, and lets every pair of
the orbit share that one {index: coefficient} dict through the symmetry's
index map.  It calls ``_coefficients`` directly, so it leaves the product
cache as it was.
Single products (``multiply``, ``structure_constant``) take the direct
route: a run of products almost never meets the same orbit twice, so a
canonical form would cost more than it saves.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod

from .combination import Combination, bilinear
from .cosets import (
    MAX_BASIS,
    CosetMatrix,
    Grid,
    Margins,
    _column,
    _convolve,
    _field_bits,
    _interned,
    _multinomial,
    _pack,
    _slice_terms,
    count_transport,
    enumerate_coset_matrices,
)


def _coefficients(a: Grid, b: Grid, margins: Margins) -> dict[int, Fraction]:
    """{packed c: structure constant} for every target c of the basis pair with entries a, b.

    A key holds c_ik in field i*nu + k of ``_field_bits(max(n))`` bits, the
    layout of ``cosets._pack``.
    """
    n = margins.n
    nu = len(n)
    shift = _field_bits(max(n))  # every partial c_ik is at most n_i
    cells = tuple(range(nu * nu))  # cell (i, k) packs into field i*nu + k
    weights = _convolve(_slice_terms(_column(a, j), b[j], shift, cells) for j in range(nu))
    den = prod(map(_multinomial, b))  # prod_j n_j! / prod_k b_jk!: b's rows sum to n
    # W_c -> its coefficient, built once per distinct weight
    values = {w: Fraction(w, den) for w in set(weights.values())}
    return {c: values[w] for c, w in weights.items()}


@lru_cache(maxsize=None)
def _product_terms(a: Grid, b: Grid, margins: Margins) -> dict[CosetMatrix, Fraction]:
    """{c: structure constant} for every target c of the basis pair with entries a, b.

    The keys are the margins' interned coset matrices (``cosets._interned``):
    while the margins' table stays cached, equal targets of any two products
    are one object, decoded once, and this cache holds it for every later
    call.
    """
    terms = _coefficients(a, b, margins)
    keys = _interned(terms, margins, margins.nu, _field_bits(max(margins.n)),
                     lambda grid: CosetMatrix._make(grid, margins))
    return dict(zip(keys, terms.values()))


def _require_same_margins(*ms: CosetMatrix) -> Margins:
    margins = ms[0].margins
    for m in ms[1:]:
        if m.margins != margins:
            raise ValueError("margin mismatch")
    return margins


def structure_constant(a: CosetMatrix, b: CosetMatrix, c: CosetMatrix) -> Fraction:
    """Exact coefficient of the c-basis element in the product of a and b."""
    _require_same_margins(a, b, c)
    value = _product_terms(a.entries, b.entries, a.margins).get(c)
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


def _basis_product(a: CosetMatrix, b: CosetMatrix) -> dict[CosetMatrix, Fraction]:
    """{c: structure constant} for every target c of the basis pair (a, b); the cached mapping."""
    return _product_terms(a.entries, b.entries, a.margins)


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the structure constants; first factor acts first."""
    return bilinear(x, y, _basis_product)


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return multiply(x, y) - multiply(y, x)


def _bounded_basis(margins: Margins, max_basis: int) -> list[CosetMatrix]:
    """Every coset matrix of the margins; ValueError when there are more than ``max_basis``.

    The matrices are counted before any is built, so a refusal costs no
    enumeration.
    """
    size = count_transport(margins.n, margins.n)
    if size > max_basis:
        raise ValueError(f"{size} basis matrices exceed the configured bound {max_basis}")
    return enumerate_coset_matrices(margins)


def _stabiliser(n: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every permutation p of the block indices with n[p[i]] == n[i].

    The filter walks all of S_nu, which costs no more than the basis that
    ``_bounded_basis`` has already counted: each p in S_nu gives a distinct
    coset matrix, with a unit at (i, p[i]) and n_i - 1 on the diagonal of
    each moved block i (n_i on the diagonal of each fixed one), so nu! is at
    most the basis size.
    """
    return [p for p in permutations(range(len(n))) if all(n[k] == n[i] for i, k in enumerate(p))]


def product_table(
    margins: Margins, max_basis: int = MAX_BASIS
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

    Each symmetry is a permutation of basis indices, so the table works on
    indices from the convolution to its rows.  The basis grids are packed
    once (``cosets._pack``, the key layout of ``_coefficients``), and each
    orbit representative's packed targets map straight to basis indices, with
    no decoding and no ``CosetMatrix`` built.  Every pair of the orbit then
    holds (index map, the basis under that map, the representative's
    {target index: Fraction}), and its rows read the targets through its map,
    in basis order, sharing the representative's ``Fraction`` values.  Only
    the table does this: a single product has no orbit mates to share with,
    and the table leaves the ``_product_terms`` cache as it was.
    """
    basis = _bounded_basis(margins, max_basis)
    entries = [m.entries for m in basis]
    shift = _field_bits(max(margins.n))
    index = {_pack(e, shift): k for k, e in enumerate(entries)}
    transposed = [tuple(zip(*e)) for e in entries]
    maps = []  # (reverses the product, basis index -> index of its image, -> its image)
    for p in _stabiliser(margins.n):
        for flip, grids in ((False, entries), (True, transposed)):
            images = [index[_pack([[g[i][k] for k in p] for i in p], shift)] for g in grids]
            maps.append((flip, images, [basis[k] for k in images]))
    size = len(basis)
    table: list[list] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if table[i][j] is not None:
                continue
            terms = {index[c]: v for c, v in _coefficients(entries[i], entries[j], margins).items()}
            for flip, m, mapped in maps:
                x, y = (m[j], m[i]) if flip else (m[i], m[j])
                if table[x][y] is None:
                    table[x][y] = (m, mapped, terms)
    # basis order is entry order, so sorting target indices sorts targets
    rows = []
    append = rows.append
    for a, row in zip(basis, table):
        for b, (m, mapped, terms) in zip(basis, row):
            for c in sorted(terms, key=m.__getitem__):
                append((a, b, mapped[c], terms[c]))
    return rows


class AssociativityReport(
    namedtuple("AssociativityReport", "margins basis_size triples_checked violations")
):
    """The margins, the basis size, the triples compared and the (a, b, c) that failed."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_associativity(margins: Margins, max_basis: int = MAX_BASIS) -> AssociativityReport:
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
