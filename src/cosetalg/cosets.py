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
composition of its cap under the column sums still left, and the last row is
whatever the columns still need; when the caps exceed the column total, a
slack column takes each row's shortfall and is dropped from the output.
``_slice_terms`` hands it only the slice's nonzero rows and columns, since a
zero cap or a zero column sum forces zeros there, and reads each table into a
packed integer key and an integer weight over the kept cells.  ``_convolve``
sums over the slices and ``_unpack`` reads the keys back as grids, one row
field at a time: the targets of one product share most of their rows, so each
distinct row is decoded once per call and its tuple is shared by every grid
that holds it.

Conventions fixed here and relied on everywhere else:

* indices are 0-based internally and 1-based in all JSON output;
* enumeration order is lexicographic on the row-major flattening, ascending;
* all arithmetic is exact (Python integers, ``fractions.Fraction``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import factorial, prod
from operator import index, sub

from .errors import InvariantViolation, MarginOverflow

Grid = tuple[tuple[int, ...], ...]


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


class Margins:
    """Block sizes (n_1, ..., n_nu) of a Young subgroup.

    The hash, that of the field tuple ``(n,)``, is computed once and stored,
    since every ``CosetMatrix`` hash includes it.
    """

    __slots__ = ("n", "_hash")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, n: tuple[int, ...]):
        n = tuple(map(index, n))
        if len(n) < 1:
            raise ValueError("at least one block required")
        if any(x < 1 for x in n):
            raise ValueError(f"block sizes must be positive: {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_hash", hash((n,)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Margins(n={self.n!r})"

    def __reduce__(self):
        return Margins, (self.n,)

    @property
    def nu(self) -> int:
        return len(self.n)

    @property
    def N(self) -> int:
        return sum(self.n)

    def to_json_dict(self):
        return {"n": list(self.n)}


class CosetMatrix:
    """A nu x nu nonnegative integer matrix with row and column sums n_i, n_j."""

    __slots__ = ("entries", "margins")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, entries: tuple[tuple[int, ...], ...], margins: Margins):
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
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "margins", margins)

    @classmethod
    def _make(cls, entries: tuple[tuple[int, ...], ...], margins: Margins) -> "CosetMatrix":
        """Trusted constructor: entries already a valid integer grid for the margins."""
        self = object.__new__(cls)
        _set_entries(self, entries)
        _set_margins(self, margins)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.margins) == (other.entries, other.margins)

    def __hash__(self):
        return hash((self.entries, self.margins))

    def __repr__(self):
        return f"CosetMatrix(entries={self.entries!r}, margins={self.margins!r})"

    def __reduce__(self):
        return CosetMatrix, (self.entries, self.margins)

    def __lt__(self, other: "CosetMatrix") -> bool:
        return self.entries < other.entries

    def transpose(self) -> "CosetMatrix":
        nu = self.margins.nu
        return CosetMatrix(
            tuple(tuple(self.entries[j][i] for j in range(nu)) for i in range(nu)),
            self.margins,
        )

    def to_json_dict(self):
        return {"n": list(self.margins.n), "entries": [list(row) for row in self.entries]}


# the slot setters, which ``_make`` calls directly; ``__setattr__`` refuses
_set_entries = CosetMatrix.entries.__set__
_set_margins = CosetMatrix.margins.__set__


class OffDiagonalType:
    """The off-diagonal part {a_ij : i != j} of a coset matrix, margins forgotten.

    Stored as a full nu x nu grid with a zero diagonal.  Validity requires the
    balance condition: at every index j the off-diagonal column sum equals the
    off-diagonal row sum.  That common value is the star sum a*_jj, the number
    of points that leave (equivalently, enter) block j.
    """

    __slots__ = ("entries",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "entries", tuple(tuple(map(index, row)) for row in entries))
        nu = len(self.entries)
        if any(len(row) != nu for row in self.entries):
            raise ValueError("entries must form a square grid")
        for i in range(nu):
            if self.entries[i][i] != 0:
                raise ValueError("diagonal slots must be zero")
            if any(v < 0 for v in self.entries[i]):
                raise ValueError("entries must be nonnegative")
        for j in range(nu):
            if self.star(j) != sum(self.entries[j][i] for i in range(nu)):
                raise ValueError(f"unbalanced at index {j + 1}: column and row sums differ")

    @classmethod
    def _make(cls, entries: tuple[tuple[int, ...], ...]) -> "OffDiagonalType":
        """Trusted constructor: entries already a balanced integer grid, zero diagonal."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.entries,))

    def __repr__(self):
        return f"OffDiagonalType(entries={self.entries!r})"

    def __reduce__(self):
        return OffDiagonalType, (self.entries,)

    @property
    def nu(self) -> int:
        return len(self.entries)

    def star(self, j: int) -> int:
        """a*_jj: the off-diagonal column sum at j (equals the row sum)."""
        return sum(self.entries[i][j] for i in range(self.nu) if i != j)

    def __add__(self, other: "OffDiagonalType") -> "OffDiagonalType":
        if self.nu != other.nu:
            raise ValueError("size mismatch")
        return OffDiagonalType._make(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __lt__(self, other: "OffDiagonalType") -> bool:
        return self.entries < other.entries

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

    def to_json_dict(self):
        offdiag = [
            [i + 1, j + 1, self.entries[i][j]]
            for i in range(self.nu)
            for j in range(self.nu)
            if i != j and self.entries[i][j]
        ]
        return {"nu": self.nu, "offdiag": offdiag}


def transport(caps: tuple[int, ...], cols: tuple[int, ...]) -> tuple[Grid, ...]:
    """Every nonnegative integer table with column sums ``cols`` and row i
    summing to at most ``caps[i]``, in row-major lexicographic order.

    The walk picks whole rows, top to bottom.  Each row is a composition of
    its cap with every part at most what its column still needs, generated
    in lexicographic order, and the last row is whatever the columns still
    need.  When the caps add up to more than the column total, a slack
    column on the right takes each row's shortfall, so that every row meets
    its cap, and is dropped from the output; a slack cell is fixed by the
    rest of its row, so the order stays lexicographic.  Once every row meets
    its cap, any row chosen this way leaves the rows below a table whose row
    and column totals agree, which always has a completion, so no branch is
    abandoned.  The walk goes one row at a time over a list of partial
    tables, not by recursion, so a table may have any number of rows.
    """
    rows, width = len(caps), len(cols)
    spare = sum(caps) - sum(cols)
    if spare < 0:
        return ()
    if rows < 2:
        return ((cols,) * rows,)
    found: dict[tuple[int, tuple[int, ...]], list] = {}

    def choices(cap: int, need: tuple[int, ...]) -> list:
        """(row, what the columns need after it) for every row of sum ``cap`` under ``need``."""
        out = found.get((cap, need))
        if out is None:
            parts = [((), cap)]  # (the row's first cells, what they leave of its cap)
            room = sum(need)
            for bound in need[:-1]:
                room -= bound  # what the cells right of this one can still take
                parts = [
                    (row + (v,), left - v)
                    for row, left in parts
                    for v in range(max(0, left - room), min(bound, left) + 1)
                ]
            out = found[cap, need] = []
            for row, left in parts:
                row += (left,)
                out.append((row[:width], tuple(map(sub, need, row))))
        return out

    tables = [((), cols + (spare,) if spare else cols)]  # (rows so far, what the columns need)
    for cap in caps[:-2]:
        tables = [
            (head + (row,), after) for head, need in tables for row, after in choices(cap, need)
        ]
    return tuple(
        [
            head + (row, after[:width])
            for head, need in tables
            for row, after in choices(caps[-2], need)
        ]
    )


def _column(grid: Grid, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in grid)


def _field_bits(bound: int) -> int:
    """Bits per packed field that hold every value up to ``bound``: whole bytes."""
    return 8 * max(1, (bound.bit_length() + 7) // 8)


def _unpack(keys, rows: int, width: int, shift: int) -> list[Grid]:
    """Read each packed key back as ``rows`` rows of ``width`` fields of ``shift`` bits.

    A key is read a row at a time from its low end: ``key & mask`` is a row's
    fields, then ``key >>= width * shift`` moves to the next row.  The keys
    of one call share many rows, so each distinct row is decoded once, through
    a dict local to the call, and the grids share its tuple.
    """
    size = shift // 8
    step = width * shift
    mask = (1 << step) - 1
    decoded: dict[int, tuple[int, ...]] = {}
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


@lru_cache(maxsize=None)
def _slice_terms(
    caps: tuple[int, ...], cols: tuple[int, ...], shift: int, fields: tuple[int | None, ...]
) -> tuple[tuple[int, int], ...]:
    """(packed key, integer weight) for each table of ``transport(caps, cols)``.

    Cell (i, k) adds its value to field ``fields[i*len(cols) + k]`` of the
    key, fields being ``shift`` bits wide; a cell whose field is None stays
    out of the key.  The weight is prod_i caps_i! / prod_ik t_ik! over every
    cell, a product of multinomials when each row meets its cap.  A row with
    cap 0 or a column with sum 0 holds only zeros, which add nothing to a key
    or a weight, so only the other rows and columns are walked; the cells left
    out are 0 in every table, so the tables come in the same order as over the
    full slice.
    """
    width = len(cols)
    rows = [i for i, cap in enumerate(caps) if cap]
    keep = [k for k, col in enumerate(cols) if col]
    units = [fields[i * width + k] for i in rows for k in keep]
    units = [0 if f is None else 1 << shift * f for f in units]
    facts = [factorial(v) for v in range(max(caps, default=0) + 1)]
    top = prod(facts[caps[i]] for i in rows)
    out = []
    for table in transport(tuple(caps[i] for i in rows), tuple(cols[k] for k in keep)):
        packed = 0
        den = 1
        for v, unit in zip(chain.from_iterable(table), units):
            if v:
                packed += v * unit
                den *= facts[v]
        out.append((packed, top // den))
    return tuple(out)


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

    Equals prod_j (n_j!)^2 / prod_ij a_ij!, always an exact integer.
    """
    num = 1
    for x in m.margins.n:
        num *= factorial(x) ** 2
    den = 1
    for row in m.entries:
        for v in row:
            den *= factorial(v)
    size, rem = divmod(num, den)
    if rem:
        raise InvariantViolation(f"coset size of {m.entries} is not integral")
    return size


def embed_offdiagonal(t: OffDiagonalType, margins: Margins) -> CosetMatrix:
    """Complete an off-diagonal type to a coset matrix via a_jj = n_j - a*_jj."""
    if t.nu != margins.nu:
        raise ValueError("size mismatch between type and margins")
    grid = [list(row) for row in t.entries]
    for j in range(t.nu):
        star = t.star(j)
        if star > margins.n[j]:
            raise MarginOverflow(j + 1, star, margins.n[j])
        grid[j][j] = margins.n[j] - star
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
