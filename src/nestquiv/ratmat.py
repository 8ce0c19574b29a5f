"""Exact rational linear algebra.

Scalars are `fractions.Fraction` (re-exported as `Rational`): the stdlib type
already keeps lowest terms and a positive denominator, which is exactly the
normalization we need, so we do not reimplement it.  Matrices are immutable
tuples of tuples of Fraction.

The kernels run on Python integers and build one Fraction per output
entry: `_cleared` writes a row as integer numerators over the lcm of its
denominators, products take integer dot products of cleared rows and
columns, and `rank` and `_rref` eliminate fraction-free (Bareiss) on
cleared rows.  `_rref` is the package's one elimination: kernels, inverses
and solves read their canonical results off it, `chart.closure_scan` keeps
its pivot columns, and `ideals.ZeroCycleIdeal.from_rows` gets the
descending echelon basis of an ideal by running `rref` on the
column-reversed rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence

from .errors import ShapeMismatch, Singular

Rational = Fraction
_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' or '0.25', and Fractions to Fraction;
    a string that is not a rational, zero denominator included, raises
    ValueError.  So does exponent notation: '1e999999' is nine characters
    for an integer of a million digits."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"exponent notation is not accepted: {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _cleared(xs: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of xs over the lcm d of their denominators, and d."""
    xs = list(xs)
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _over(n: int, d: int) -> Fraction:
    """n / d, sharing one Fraction for the zeros that fill sparse results."""
    return Fraction(n, d) if n else _ZERO


def rat_str(x: Fraction) -> str:
    """Serialize: 'p' for integers, 'p/q' otherwise."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RationalMatrix:
    """Dense immutable matrix over Fraction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable]):
        rows = tuple(tuple(rat(x) for x in row) for row in data)
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged rows")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _trusted(data: tuple[tuple[Fraction, ...], ...], cols: int) -> "RationalMatrix":
        """Wrap rows that are already tuples of Fraction of width cols."""
        m = RationalMatrix.__new__(RationalMatrix)
        m.data, m.rows, m.cols = data, len(data), cols
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix._trusted(tuple((Fraction(0),) * cols for _ in range(rows)), cols)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "RationalMatrix":
        """Build from a possibly empty row list; `cols` disambiguates 0xN."""
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ShapeMismatch("empty matrix needs an explicit column count")
            return RationalMatrix.zeros(0, cols)
        return RationalMatrix(rows)

    @staticmethod
    def column(entries: Sequence) -> "RationalMatrix":
        return RationalMatrix([[x] for x in entries]) if entries else RationalMatrix.zeros(0, 1)

    @staticmethod
    def row(entries: Sequence) -> "RationalMatrix":
        return RationalMatrix([list(entries)]) if entries else RationalMatrix.zeros(1, 0)

    # -- basics -------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.data)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def transpose(self) -> "RationalMatrix":
        if self.rows == 0:
            # transpose of 0xN is Nx0: N empty rows
            return RationalMatrix._trusted(tuple(() for _ in range(self.cols)), 0)
        return RationalMatrix._trusted(tuple(zip(*self.data)), self.rows)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        if self.rows == 0 or self.cols == 0:
            return self
        return RationalMatrix._trusted(
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.data, other.data)), self.cols
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, a) -> "RationalMatrix":
        a = rat(a)
        if self.rows == 0 or self.cols == 0:
            return self
        return RationalMatrix._trusted(
            tuple(tuple(a * x for x in row) for row in self.data), self.cols
        )

    def __neg__(self) -> "RationalMatrix":
        return self.scale(Fraction(-1))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0:
            return RationalMatrix.zeros(self.rows, other.cols)
        left = [_cleared(row) for row in self.data]
        right = [_cleared(col) for col in other.transpose().data]
        return RationalMatrix._trusted(
            tuple(
                tuple(_over(sum(map(mul, a, b)), da * db) for b, db in right)
                for a, da in left
            ),
            other.cols,
        )

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        if self.rows == 0:
            return RationalMatrix.zeros(0, self.cols + other.cols)
        return RationalMatrix([list(a) + list(b) for a, b in zip(self.data, other.data)])

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack column mismatch")
        return RationalMatrix.from_rows(list(self.data) + list(other.data), cols=self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        rows = [[self.data[i][j] for j in col_idx] for i in row_idx]
        if not rows:
            return RationalMatrix.zeros(0, len(col_idx))
        return RationalMatrix(rows)

    def _same_shape(self, other: "RationalMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [rat_str(x) for row in self.data for x in row],
        }

    @staticmethod
    def from_json(obj: dict) -> "RationalMatrix":
        r, c = int(obj["rows"]), int(obj["cols"])
        entries = [rat(str(e)) if not isinstance(e, int) else Fraction(e) for e in obj["entries"]]
        if len(entries) != r * c:
            raise ShapeMismatch("entry count does not match rows*cols")
        if r == 0 or c == 0:
            return RationalMatrix.zeros(r, c)
        return RationalMatrix([entries[i * c : (i + 1) * c] for i in range(r)])


def block_diag(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[r0 + i][c0 + j] = b.data[i][j]
        r0 += b.rows
        c0 += b.cols
    return RationalMatrix.from_rows(out, cols=cols)


def _rref(m: RationalMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Fraction-free Gauss-Jordan on the rows cleared to integers: each pivot
    replaces every other row by (piv * row - f * pivot_row) // prev, rows
    above the pivot and rows with f = 0 included, so every pivot entry
    ends equal to the last pivot d and every division is exact (Bareiss).
    Dividing by d once at the end gives the reduced form.
    """
    a = [_cleared(row)[0] for row in m.data]
    nrows = m.rows
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(m.cols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        piv = prow[c]
        for i in range(nrows):
            if i != r:
                f = a[i][c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], prow)]
        prev = piv
        pivots.append(c)
        r += 1
    if prev < 0:
        prev, a = -prev, [[-x for x in row] for row in a]
    return [[_over(x, prev) for x in row] for row in a], pivots


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    a, pivots = _rref(m)
    return RationalMatrix._trusted(tuple(map(tuple, a)), m.cols), pivots


def rank(m: RationalMatrix) -> int:
    """Rank via Bareiss fraction-free elimination on an integer-cleared copy."""
    if m.rows == 0 or m.cols == 0:
        return 0
    a = [_cleared(row)[0] for row in m.data]
    nrows, ncols = m.rows, m.cols
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def kernel_basis(m: RationalMatrix) -> RationalMatrix:
    """Canonical basis of the right kernel, one column per free variable.

    The basis is the reduced-echelon one: free variable f contributes the
    vector with 1 in slot f and -R[i, f] in each pivot slot; columns are
    ordered by increasing f.  Two calls on row-equivalent matrices give the
    same result.
    """
    a, pivots = _rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -a[i][f]
        cols.append(v)
    if not cols:
        return RationalMatrix.zeros(m.cols, 0)
    return RationalMatrix(cols).transpose()


def invert(m: RationalMatrix) -> RationalMatrix:
    if m.rows != m.cols:
        raise ShapeMismatch("only square matrices invert")
    n = m.rows
    if n == 0:
        return m
    aug = m.hstack(RationalMatrix.identity(n))
    a, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is singular")
    return RationalMatrix([row[n:] for row in a[:n]])


def solve_right(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Solve a @ x = b exactly (a need not be square; raises if inconsistent
    or underdetermined in the columns that matter)."""
    if a.rows != b.rows:
        raise ShapeMismatch("solve_right row mismatch")
    aug = a.hstack(b)
    red, pivots = _rref(aug)
    for row in red:
        if all(x == 0 for x in row[: a.cols]) and any(x != 0 for x in row[a.cols :]):
            raise Singular("inconsistent linear system")
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        if p < a.cols:
            for j in range(b.cols):
                x[p][j] = red[i][a.cols + j]
    # free columns stay zero: this is the canonical minimal-support solution;
    # callers that need uniqueness check full column rank themselves
    return RationalMatrix.from_rows(x, cols=b.cols)
