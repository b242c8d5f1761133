"""Integer matrices labelling double cosets of a symmetric group by a Young subgroup.

Split N = n_1 + ... + n_nu points into consecutive blocks of sizes n_j.  A
double coset of the block-preserving subgroup is labelled by the nu x nu
matrix whose (i, j) entry counts how many points of block i land in block j;
its row sums and column sums both equal the block sizes.  This module
enumerates those matrices, computes the exact size of the coset each one
labels, and converts between full matrices and their off-diagonal part.

It also holds the packing layer that both products build on.  ``transport``,
the one table enumerator (``enumerate_coset_matrices`` runs it too), walks the
transportation tables of one slice a row at a time: each row is a
composition of its row sum under the column sums still left, and the last row
is whatever the columns still need.  Every caller passes row sums and column
sums with the same total, as the margins of a coset matrix or of a slice of
a product have, and unequal totals admit no table.
``_slice_terms`` hands it only the slice's nonzero rows and columns, since a
zero cap or a zero column sum forces zeros there, and reads each table into a
packed integer key and an integer weight over the kept cells.  The tables and
weights of each such trimmed shape are built once (``_shape_terms``), and the
slices of every layout that meets the shape only pack them.  Every weight,
here and in ``coset_size``, is a product of row multinomials, built by
``_multinomial`` from ``comb`` factors, so a huge diagonal cell costs no more
than the small cells of its row.  ``_convolve`` sums over the slices and
``_unpack`` reads the keys back as grids, one row field at a time, decoding
each distinct row once through a {row bits: row tuple} dict.  ``_interned``
maps the packed targets of a product or bracket to key objects: each layout
(margins or nu, field width) has one table of key objects and one row dict,
so a target that another product has already produced is not decoded again,
and while the layout's table is cached equal targets of any two products are
one object.
``_pack`` is the inverse of ``_unpack`` for one grid, and ``count_transport``
counts the tables ``transport`` would walk without building them.

Conventions fixed here and relied on everywhere else:

* indices are 0-based internally;
* enumeration order is lexicographic on the row-major flattening, ascending;
* all arithmetic is exact (Python integers, ``fractions.Fraction``);
* the value types are named tuples, each hashing, comparing and ordering as
  the plain tuple of its fields, which it also equals.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial, prod
from operator import index, mul, sub

from .errors import MarginOverflow

Grid = tuple[tuple[int, ...], ...]

MAX_BASIS = 128  # default bound on the basis size of a product table or associativity check


def _star(entries: Grid, j: int) -> int:
    """The off-diagonal column sum at j of a square grid."""
    return sum(entries[i][j] for i in range(len(entries)) if i != j)


def _replace(self, **fields):
    """A copy with some fields replaced, built through the validating constructor."""
    return type(self)(**dict(zip(self._fields, self), **fields))


class Margins(namedtuple("Margins", "n")):
    """Block sizes (n_1, ..., n_nu) of a Young subgroup."""

    __slots__ = ()

    def __new__(cls, n: tuple[int, ...]):
        n = tuple(map(index, n))
        if len(n) < 1:
            raise ValueError("at least one block required")
        if any(x < 1 for x in n):
            raise ValueError(f"block sizes must be positive: {n}")
        return tuple.__new__(cls, (n,))

    @classmethod
    def _make(cls, n: tuple[int, ...]) -> "Margins":
        """Trusted constructor: n already a nonempty tuple of positive ints."""
        return tuple.__new__(cls, (n,))

    _replace = _replace

    @property
    def nu(self) -> int:
        return len(self.n)

    @property
    def N(self) -> int:
        return sum(self.n)


class CosetMatrix(namedtuple("CosetMatrix", "entries margins")):
    """A nu x nu nonnegative integer matrix with row and column sums n_i, n_j."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...], margins: Margins):
        entries = tuple(tuple(map(index, row)) for row in entries)
        n = margins.n
        nu = margins.nu
        if len(entries) != nu or any(len(row) != nu for row in entries):
            raise ValueError(f"expected a {nu}x{nu} matrix")
        for row in entries:
            if any(v < 0 for v in row):
                raise ValueError("entries must be nonnegative")
        for i, row in enumerate(entries):
            if sum(row) != n[i]:
                raise ValueError(f"row {i + 1} sums to {sum(row)}, expected {n[i]}")
        for j in range(nu):
            col = sum(entries[i][j] for i in range(nu))
            if col != n[j]:
                raise ValueError(f"column {j + 1} sums to {col}, expected {n[j]}")
        return tuple.__new__(cls, (entries, margins))

    @classmethod
    def _make(cls, entries: tuple[tuple[int, ...], ...], margins: Margins) -> "CosetMatrix":
        """Trusted constructor: entries already a valid integer grid for the margins."""
        return tuple.__new__(cls, (entries, margins))

    _replace = _replace

    def transpose(self) -> "CosetMatrix":
        nu = self.margins.nu
        return CosetMatrix(
            tuple(tuple(self.entries[j][i] for j in range(nu)) for i in range(nu)),
            self.margins,
        )


class OffDiagonalType(namedtuple("OffDiagonalType", "entries")):
    """The off-diagonal part {a_ij : i != j} of a coset matrix, margins forgotten.

    Stored as a full nu x nu grid with a zero diagonal.  Validity requires the
    balance condition: at every index j the off-diagonal column sum equals the
    off-diagonal row sum.  That common value is the star sum a*_jj, the number
    of points that leave (equivalently, enter) block j.
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]):
        entries = tuple(tuple(map(index, row)) for row in entries)
        nu = len(entries)
        if nu < 1:
            raise ValueError("at least one block required")
        if any(len(row) != nu for row in entries):
            raise ValueError("entries must form a square grid")
        for i in range(nu):
            if entries[i][i] != 0:
                raise ValueError("diagonal slots must be zero")
            if any(v < 0 for v in entries[i]):
                raise ValueError("entries must be nonnegative")
        for j in range(nu):
            if _star(entries, j) != sum(entries[j][i] for i in range(nu)):
                raise ValueError(f"unbalanced at index {j + 1}: column and row sums differ")
        return tuple.__new__(cls, (entries,))

    @classmethod
    def _make(cls, entries: tuple[tuple[int, ...], ...]) -> "OffDiagonalType":
        """Trusted constructor: entries already a balanced integer grid, zero diagonal."""
        return tuple.__new__(cls, (entries,))

    _replace = _replace

    @property
    def nu(self) -> int:
        return len(self.entries)

    def star(self, j: int) -> int:
        """a*_jj: the off-diagonal column sum at j (equals the row sum)."""
        return _star(self.entries, j)

    def __add__(self, other: "OffDiagonalType") -> "OffDiagonalType":
        if self.nu != other.nu:
            raise ValueError("size mismatch")
        return OffDiagonalType._make(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    @classmethod
    def zero(cls, nu: int) -> "OffDiagonalType":
        return cls(tuple((0,) * nu for _ in range(nu)))

    @classmethod
    def build(cls, nu: int, values: dict[tuple[int, int], int]) -> "OffDiagonalType":
        """Construct from a sparse {(i, j): value} mapping, 0-based, i != j."""
        grid = [[0] * nu for _ in range(nu)]
        for (i, j), v in values.items():
            if i == j:
                raise ValueError("diagonal positions are not allowed")
            grid[i][j] = v
        return cls(tuple(tuple(row) for row in grid))


def transport(caps: tuple[int, ...], cols: tuple[int, ...]) -> tuple[Grid, ...]:
    """Every nonnegative integer table with row sums ``caps`` and column sums
    ``cols``, in row-major lexicographic order; none when the totals differ.

    The walk picks whole rows, top to bottom.  Each row is a composition of
    its cap with every part at most what its column still needs, generated
    in lexicographic order, and the last row is whatever the columns still
    need.  Any row chosen this way leaves the rows below a table whose row
    and column totals agree, which always has a completion, so no branch is
    abandoned.  The walk goes one row at a time over a list of partial
    tables, not by recursion, so a table may have any number of rows.
    """
    if sum(caps) != sum(cols):
        return ()
    if len(caps) < 2:
        return ((cols,) * len(caps),)
    found: dict[tuple[int, tuple[int, ...]], list] = {}

    def choices(cap: int, need: tuple[int, ...]) -> list:
        """(row, what the columns need after it) for every row of sum ``cap`` under ``need``."""
        out = found.get((cap, need))
        if out is None:
            out = found[cap, need] = [
                (row, tuple(map(sub, need, row))) for row in _rows(cap, need)
            ]
        return out

    tables = [((), cols)]  # (rows so far, what the columns need)
    for cap in caps[:-2]:
        tables = [
            (head + (row,), after) for head, need in tables for row, after in choices(cap, need)
        ]
    return tuple(
        [head + (row, after) for head, need in tables for row, after in choices(caps[-2], need)]
    )


def _rows(cap: int, need: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every row of sum ``cap`` with each part at most what its column still
    needs, in lexicographic order; ``cap`` is at most ``sum(need)``."""
    parts = [((), cap)]  # (the row's first cells, what they leave of its cap)
    room = sum(need)
    for bound in need[:-1]:
        room -= bound  # what the cells right of this one can still take
        parts = [
            (row + (v,), left - v)
            for row, left in parts
            for v in range(max(0, left - room), min(bound, left) + 1)
        ]
    return [row + (left,) for row, left in parts]


def count_transport(caps: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """``len(transport(caps, cols))``, counted without building a table.

    The count goes a row at a time, as ``transport`` walks, over what the
    columns still need, and keeps one count per need.  The completions of a
    partial table are the tables with the remaining caps as row sums and that
    need as column sums, so their number does not depend on the order of the
    columns: each need is sorted, and needs that are equal up to order share
    one state.  There are never more states than the partial tables
    ``transport`` would walk, and usually far fewer.
    """
    if sum(caps) != sum(cols):
        return 0
    states = {tuple(sorted(cols)): 1}
    for cap in caps[:-1]:  # the last row is whatever the columns still need
        nxt: dict[tuple[int, ...], int] = {}
        for need, count in states.items():
            for row in _rows(cap, need):
                after = tuple(sorted(map(sub, need, row)))
                nxt[after] = nxt.get(after, 0) + count
        states = nxt
    return sum(states.values())


def _column(grid: Grid, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in grid)


def _field_bits(bound: int) -> int:
    """Bits per packed field that hold every value up to ``bound``: whole bytes."""
    return 8 * max(1, (bound.bit_length() + 7) // 8)


def _pack(grid: Grid, shift: int) -> int:
    """The packed key of ``grid``, fields of ``shift`` bits; the inverse of ``_unpack``.

    Cell (i, k) of a grid of width w is field i*w + k, counted from the low
    end, so row i starts at bit i*w*shift.
    """
    key = 0
    for row in reversed(grid):
        for v in reversed(row):
            key = key << shift | v
    return key


def _unpack(keys, rows: int, width: int, shift: int, decoded=None) -> list[Grid]:
    """Read each packed key back as ``rows`` rows of ``width`` fields of ``shift`` bits.

    A key is read a row at a time from its low end: ``key & mask`` is a row's
    fields, then ``key >>= width * shift`` moves to the next row.  Keys share
    many rows, so each distinct row is decoded once, through ``decoded``
    ({row bits: row tuple}, a fresh dict unless one is passed), and the grids
    share its tuple; calls that pass the same dict share tuples across calls.
    """
    size = shift // 8
    step = width * shift
    mask = (1 << step) - 1
    if decoded is None:
        decoded = {}
    out = []
    for key in keys:
        grid = []
        for _ in range(rows):
            bits = key & mask
            try:
                row = decoded[bits]
            except KeyError:
                raw = bits.to_bytes(width * size, "little")
                if size > 1:
                    raw = [
                        int.from_bytes(raw[p : p + size], "little") for p in range(0, len(raw), size)
                    ]
                row = decoded[bits] = tuple(raw)
            grid.append(row)
            key >>= step
        out.append(tuple(grid))
    return out


@lru_cache(maxsize=64)
def _intern_tables(layout, shift: int) -> tuple[dict, dict[int, tuple[int, ...]]]:
    """({packed key: key object}, {row bits: row tuple}) of one key layout.

    A layout is the margins of coset matrices (finite products) or the nu
    of off-diagonal types (Poisson brackets, graded products and universal
    products, which share it), with a field width; ``_interned`` fills its
    two dicts.  They live only in this cache, so its ``cache_clear``, which a
    fresh-process reset calls with every other module-level cache, empties
    them.

    The cache keeps 64 layouts, more than any benchmark round asks for.  An
    evicted layout costs a second decode of its targets, and later products
    then hand out new key objects, equal to the ones earlier products hold
    but not the same.

    A table holds each distinct target its layout's products or brackets
    produced while it was cached: at margins n, at most the coset matrices of
    n.  The product and bracket caches mostly hold the same objects, but a
    product computed past its cache (``__wrapped__``), dropped by a
    ``cache_clear`` of that cache or evicted from the bounded graded-product
    cache leaves its targets here alone.  Bounding the other caches must also
    clear these tables.
    """
    return {}, {}


def _interned(keys, layout, nu: int, shift: int, make):
    """An iterator over the one key object of each packed key of the layout (layout, shift).

    A key is an nu x nu grid of ``shift``-bit fields, as ``_pack`` lays it
    out, and ``make`` builds the key object of a grid.  Only the keys the
    layout's table has not seen are decoded, through ``_unpack`` with the
    layout's row dict, so while the layout stays cached every product that
    produces a target hands out the same object, decoded once.
    """
    table, rows = _intern_tables(layout, shift)
    new = [key for key in keys if key not in table]
    if new:
        table.update(zip(new, map(make, _unpack(new, nu, nu, shift, rows))))
    return map(table.__getitem__, keys)


def _multinomial(parts) -> int:
    """(sum of parts)! / prod p!, as prod_k comb(p_1 + ... + p_k, p_k): each ``comb``
    multiplies min(p_k, p_1 + ... + p_(k-1)) factors, so one huge part is cheap."""
    out, total = 1, 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


@lru_cache(maxsize=256)
def _shape_terms(caps: tuple[int, ...], cols: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """(cells, weights) of ``transport(caps, cols)``: each table's cells
    flattened row by row, and its weight prod_i caps_i! / prod_ik t_ik!, the
    product of the rows' multinomials (``_multinomial``), since every row
    meets its cap; one huge cell costs no more than a small one.

    The shape is a trimmed slice, every cap and column sum nonzero, so the
    slices of many products and layouts share it; the cache keeps 256
    shapes, more than a benchmark round meets.
    """
    tables = transport(caps, cols)
    cells = tuple(tuple(v for row in table for v in row) for table in tables)
    return cells, tuple(prod(map(_multinomial, table)) for table in tables)


@lru_cache(maxsize=2048)
def _slice_terms(
    caps: tuple[int, ...], cols: tuple[int, ...], shift: int, fields: tuple[int | None, ...]
) -> tuple[tuple[int, int], ...]:
    """(packed key, integer weight) for each table of ``transport(caps, cols)``.

    Cell (i, k) adds its value to field ``fields[i*len(cols) + k]`` of the
    key, fields being ``shift`` bits wide; a cell whose field is None stays
    out of the key.  The weight is the product of the table's row
    multinomials.  A row with cap 0 or a column with sum 0 holds only zeros,
    which add nothing to a key or a weight, so the tables and weights of the
    other rows and columns come from the shape cache (``_shape_terms``) and
    are only packed here, for this layout; the cells left out are 0 in every
    table, so the tables come in the same order as over the full slice.  The
    cache keeps 2,048 slices, more than a benchmark round builds.
    """
    width = len(cols)
    rows = [i for i, cap in enumerate(caps) if cap]
    keep = [k for k, col in enumerate(cols) if col]
    units = [fields[i * width + k] for i in rows for k in keep]
    units = [0 if f is None else 1 << shift * f for f in units]
    cells, weights = _shape_terms(tuple(caps[i] for i in rows), tuple(cols[k] for k in keep))
    return tuple(zip([sum(map(mul, table, units)) for table in cells], weights))


def _convolve(slices) -> dict[int, int]:
    """Sum the weight products of every choice of one term per slice.

    Each slice is a sequence of (packed key, integer weight).  The result maps
    each sum of packed keys to its total weight.
    """
    states = {0: 1}
    for terms in slices:
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, w in states.items():
            for d, v in terms:
                k = key + d
                nxt[k] = get(k, 0) + w * v
        states = nxt
    return states


def enumerate_coset_matrices(margins: Margins) -> list[CosetMatrix]:
    """All coset matrices for the given margins, in row-major lexicographic order."""
    return [CosetMatrix._make(e, margins) for e in transport(margins.n, margins.n)]


def coset_size(m: CosetMatrix) -> int:
    """Number of group elements in the double coset labelled by ``m``.

    Equals prod_j (n_j!)^2 / prod_ij a_ij!: the product of the rows'
    multinomials n_i! / prod_j a_ij!, times prod_j n_j!.
    """
    return prod(map(_multinomial, m.entries)) * prod(map(factorial, m.margins.n))


def check_fit(margins: Margins, *types: OffDiagonalType) -> None:
    """Raise ``MarginOverflow`` at the first type, and its first block j, with t*_j > n_j."""
    for t in types:
        for j, n in enumerate(margins.n):
            if t.star(j) > n:
                raise MarginOverflow(j + 1, t.star(j), n)


def embed_offdiagonal(t: OffDiagonalType, margins: Margins) -> CosetMatrix:
    """Complete an off-diagonal type to a coset matrix via a_jj = n_j - a*_jj."""
    if t.nu != margins.nu:
        raise ValueError("size mismatch between type and margins")
    check_fit(margins, t)
    grid = [list(row) for row in t.entries]
    for j in range(t.nu):
        grid[j][j] = margins.n[j] - t.star(j)
    return CosetMatrix(tuple(tuple(row) for row in grid), margins)


def strip_diagonal(m: CosetMatrix) -> OffDiagonalType:
    """Forget the diagonal of a coset matrix.  Inverse of ``embed_offdiagonal``."""
    nu = m.margins.nu
    return OffDiagonalType._make(
        tuple(
            tuple(0 if i == j else m.entries[i][j] for j in range(nu))
            for i in range(nu)
        )
    )
