"""Integer matrices labelling double cosets of a symmetric group by a Young subgroup.

Split N = n_1 + ... + n_nu points into consecutive blocks of sizes n_j.  A
double coset of the block-preserving subgroup is labelled by the nu x nu
matrix whose (i, j) entry counts how many points of block i land in block j;
its row sums and column sums both equal the block sizes.  This module
enumerates those matrices, computes the exact size of the coset each one
labels, and converts between full matrices and their off-diagonal part.

Conventions fixed here and relied on everywhere else:

* indices are 0-based internally and 1-based in all JSON output;
* enumeration order is lexicographic on the row-major flattening, ascending;
* all arithmetic is exact (Python integers, ``fractions.Fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import InvariantViolation, MarginOverflow


@dataclass(frozen=True)
class Margins:
    """Block sizes (n_1, ..., n_nu) of a Young subgroup."""

    n: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        if len(self.n) < 1:
            raise ValueError("at least one block required")
        if any(x < 1 for x in self.n):
            raise ValueError(f"block sizes must be positive: {self.n}")

    @property
    def nu(self) -> int:
        return len(self.n)

    @property
    def N(self) -> int:
        return sum(self.n)

    def to_json_dict(self):
        return {"n": list(self.n)}


@dataclass(frozen=True)
class CosetMatrix:
    """A nu x nu nonnegative integer matrix with row and column sums n_i, n_j."""

    entries: tuple[tuple[int, ...], ...]
    margins: Margins

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(tuple(int(v) for v in row) for row in self.entries)
        )
        n = self.margins.n
        nu = self.margins.nu
        if len(self.entries) != nu or any(len(row) != nu for row in self.entries):
            raise ValueError(f"expected a {nu}x{nu} matrix")
        for row in self.entries:
            if any(v < 0 for v in row):
                raise ValueError("entries must be nonnegative")
        for i, row in enumerate(self.entries):
            if sum(row) != n[i]:
                raise ValueError(f"row {i + 1} sums to {sum(row)}, expected {n[i]}")
        for j in range(nu):
            col = sum(self.entries[i][j] for i in range(nu))
            if col != n[j]:
                raise ValueError(f"column {j + 1} sums to {col}, expected {n[j]}")

    @classmethod
    def _make(cls, entries: tuple[tuple[int, ...], ...], margins: Margins) -> "CosetMatrix":
        """Trusted constructor: entries already a valid integer grid for the margins."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "margins", margins)
        return self

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


@dataclass(frozen=True)
class OffDiagonalType:
    """The off-diagonal part {a_ij : i != j} of a coset matrix, margins forgotten.

    Stored as a full nu x nu grid with a zero diagonal.  Validity requires the
    balance condition: at every index j the off-diagonal column sum equals the
    off-diagonal row sum.  That common value is the star sum a*_jj, the number
    of points that leave (equivalently, enter) block j.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple(tuple(int(v) for v in row) for row in self.entries)
        )
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


def transport(
    caps: tuple[int, ...], cols: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every nonnegative integer table with column sums ``cols`` and row i
    summing to at most ``caps[i]``, in row-major lexicographic order.

    When the caps add up to the column total every row meets its cap
    exactly.  Each cell's range is cut to the values that still leave a
    completion (the rows below must absorb what this row leaves), so no
    branch is abandoned.
    """
    rows, width = len(caps), len(cols)
    room = [0] * (rows + 1)  # room[i]: what rows i.. can absorb together
    for i in range(rows - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if sum(cols) > room[0]:
        return ()
    out: list[tuple[tuple[int, ...], ...]] = []
    colrem = list(cols)
    table: list[tuple[int, ...]] = []

    def fill_row(i: int, total: int):
        if i == rows:
            out.append(tuple(table))
            return
        need = total - room[i + 1]
        cap = caps[i]
        row = [0] * width
        after = [0] * (width + 1)  # after[k]: column budget left in cells k..width-1
        for k in range(width - 1, -1, -1):
            after[k] = after[k + 1] + colrem[k]

        def fill_cell(k: int, taken: int):
            if k == width:
                table.append(tuple(row))
                fill_row(i + 1, total - taken)
                table.pop()
                return
            for v in range(max(0, need - taken - after[k + 1]), min(colrem[k], cap - taken) + 1):
                row[k] = v
                colrem[k] -= v
                fill_cell(k + 1, taken + v)
                colrem[k] += v

        fill_cell(0, 0)

    fill_row(0, sum(cols))
    return tuple(out)


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
