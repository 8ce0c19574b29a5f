"""Exact rational linear algebra.

Scalars are `fractions.Fraction`.  A matrix is stored as integer rows
`num` over one positive denominator `den`, kept in lowest terms: the gcd
of `den` and every numerator is 1.  That pair is canonical, so equality
and hashing compare it directly, and every operation works on it with
Python integers.  `.data` (rows of Fraction) and `m[i, j]` are views
built on each read.  `from_json` reads 'p' and 'p/q' entries straight to
integers (`_json_ratio`).

`_echelon`, a Bareiss forward pass on the numerators, is the package's
one elimination: `rank` counts its pivots, `_rref` back-substitutes its
rows to the reduced form that kernels, inverses, solves and `rref` read,
and `_reduce` takes its step one row at a time.

A `kernel_basis` K is the identity at its free rows (`_free_rows`), so
the only X with K X = M is M at those rows.  `solve_right` stays,
uncalled in the package, as the tests' reference.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import MalformedInput, ShapeMismatch, Singular


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4' or '0.25', and Fractions to Fraction.
    Other strings, a zero denominator and exponent notation ('1e999999' is
    nine characters for a million digits) included, raise MalformedInput;
    other values, a caller's bug that `json_rat` never sends, TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise MalformedInput(f"exponent notation is not accepted: {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # a bad literal, a zero denominator, int's digit limit
            raise MalformedInput(f"not a rational: {x!r:.60}") from None
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def json_count(v) -> int:
    """A count read from JSON: an integer that is not a boolean.  Floats,
    booleans, null and strings raise MalformedInput."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise MalformedInput(f"not a JSON integer: {v!r}")


def json_field(obj, key: str):
    """obj[key] of a JSON object obj that has the key; MalformedInput otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput(f"no key {key!r} in a JSON {type(obj).__name__}")
    return obj[key]


def json_rat(v) -> Fraction:
    """A rational read from JSON: a string `rat` reads, or a `json_count`."""
    return rat(v) if isinstance(v, str) else Fraction(json_count(v))


# No integer digit limit Python accepts is below this length, so `int`
# reads any string this short.
_SHORT = sys.int_info.str_digits_check_threshold


def _json_ratio(v) -> tuple[int, int]:
    """Integers (p, q), q > 0, with p / q = json_rat(v).  A short string 'p'
    or 'p/q' of ASCII digits, p maybe with a leading '-', is read straight
    to integers; any other entry goes through json_rat, for its value or
    for its error."""
    short = type(v) is str and v.isascii() and len(v) <= _SHORT
    p, sep, q = v.partition("/") if short else ("", "", "")
    if p.removeprefix("-").isdigit() and (not sep or q.isdigit() and q.strip("0")):
        return int(p), int(q or 1)
    x = json_rat(v)
    return x.numerator, x.denominator


def rat_str(x: Fraction) -> str:
    """Serialize: 'p' for integers, 'p/q' otherwise."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _ratio_str(n: int, d: int) -> str:
    """rat_str of n / d."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


class RationalMatrix:
    """Dense immutable matrix over Fraction, stored as integer rows `num`
    over one positive denominator `den` in lowest terms."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Iterable[Iterable]):
        rows = [[rat(x) for x in row] for row in data]
        cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows")
        # over the lcm of lowest-terms denominators the numerators share no
        # factor with it, so the pair is already in lowest terms
        den = lcm(*(x.denominator for row in rows for x in row))
        self.num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)
        self.den, self.rows, self.cols = den, len(rows), cols

    # -- constructors -------------------------------------------------

    @staticmethod
    def _wrap(num: Iterable[Iterable[int]], den: int, cols: int) -> "RationalMatrix":
        """The matrix num / den, integer rows of width cols over den > 0,
        brought to lowest terms."""
        num = tuple(map(tuple, num))
        if den != 1:
            g = den
            for row in num:
                g = gcd(g, *row)
                if g == 1:
                    break
            if g != 1:
                num = tuple(tuple(x // g for x in row) for row in num)
                den //= g
        m = RationalMatrix.__new__(RationalMatrix)
        m.num, m.den, m.rows, m.cols = num, den, len(num), cols
        return m

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix._wrap(((0,) * cols,) * rows if rows else (), 1, cols)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix._wrap([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "RationalMatrix":
        """Build from a possibly empty row list; `cols` disambiguates 0xN."""
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ShapeMismatch("empty matrix needs an explicit column count")
            return RationalMatrix.zeros(0, cols)
        return RationalMatrix(rows)

    # -- basics -------------------------------------------------------

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of Fraction, built on each read."""
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.num)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row) for row in self.data)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_identity(self) -> bool:
        """Whether this equals `identity(rows)`, read off the integer rows
        with no identity built."""
        n = self.rows
        if self.den != 1 or self.cols != n:
            return False
        return all(r[i] == 1 and r.count(0) == n - 1 for i, r in enumerate(self.num))

    def transpose(self) -> "RationalMatrix":
        # transpose of 0xN is Nx0: N empty rows
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return RationalMatrix._wrap(num, self.den, self.rows)

    def _combine(self, other: "RationalMatrix", op) -> "RationalMatrix":
        """Entrywise op (add or sub) over the lcm of the denominators."""
        self._same_shape(other)
        (a, b), den = _common((self, other))
        return RationalMatrix._wrap([map(op, ra, rb) for ra, rb in zip(a, b)], den, self.cols)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, sub)

    def scale(self, a) -> "RationalMatrix":
        a = rat(a)
        p = a.numerator
        num = [[p * x for x in row] for row in self.num]
        return RationalMatrix._wrap(num, self.den * a.denominator, self.cols)

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = list(zip(*other.num)) if other.rows else [()] * other.cols
        num = [[sum(map(mul, a, b)) for b in right] for a in self.num]
        return RationalMatrix._wrap(num, self.den * other.den, other.cols)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        (a, b), den = _common((self, other))
        num = [(*ra, *rb) for ra, rb in zip(a, b)]
        return RationalMatrix._wrap(num, den, self.cols + other.cols)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack column mismatch")
        (a, b), den = _common((self, other))
        return RationalMatrix._wrap([*a, *b], den, self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        num = [[self.num[i][j] for j in col_idx] for i in row_idx]
        return RationalMatrix._wrap(num, self.den, len(col_idx))

    def _same_shape(self, other: "RationalMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        d = self.den
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [_ratio_str(x, d) for row in self.num for x in row],
        }

    @staticmethod
    def from_json(obj: dict) -> "RationalMatrix":
        """MalformedInput for a negative count, and for an r x 0 matrix
        with r > 1: the one shape whose storage grows with a count that no
        entry backs.  This package writes none: its only matrices without
        columns are the 1 x 0 covectors e and J of a length-0 cycle."""
        r, c = json_count(json_field(obj, "rows")), json_count(json_field(obj, "cols"))
        if r < 0 or c < 0:
            raise MalformedInput(f"matrix counts must be non-negative, got rows {r}, cols {c}")
        if c == 0 and r > 1:
            raise MalformedInput(f"a matrix without columns has at most one row, got rows {r}")
        entries = json_field(obj, "entries")
        if not isinstance(entries, list):
            raise MalformedInput(f"matrix entries must be a JSON list, got {type(entries).__name__}")
        entries = [_json_ratio(e) for e in entries]
        if len(entries) != r * c:
            raise ShapeMismatch("entry count does not match rows*cols")
        if r == 0 or c == 0:
            return RationalMatrix.zeros(r, c)
        den = lcm(*(q for _, q in entries))
        flat = [p * (den // q) for p, q in entries]
        return RationalMatrix._wrap([flat[i * c : (i + 1) * c] for i in range(r)], den, c)


def _json_shaped(obj: dict, key: str, rows: int, cols: int) -> RationalMatrix:
    """RationalMatrix.from_json(obj[key]), once it declares the shape rows x
    cols (ShapeMismatch otherwise).  A matrix without entries is built from
    its declared counts alone, so the caller's counts must bound them."""
    m = json_field(obj, key)
    r, c = json_count(json_field(m, "rows")), json_count(json_field(m, "cols"))
    if (r, c) != (rows, cols):
        raise ShapeMismatch(f"{key} must be {rows}x{cols}, got {r}x{c}")
    return RationalMatrix.from_json(m)


def _common(mats: Sequence[RationalMatrix]):
    """The numerator rows of each matrix over the lcm of their
    denominators, and that lcm."""
    den = lcm(*(m.den for m in mats))
    return [
        m.num if m.den == den else [[x * (den // m.den) for x in row] for row in m.num] for m in mats
    ], den


def lincomb(
    weights: Sequence, mats: Sequence[RationalMatrix], rows: int, cols: int, den: int = 1
) -> RationalMatrix:
    """sum_j (w_j / den) M_j over integer or Fraction weights w_j and a
    positive integer den, each M_j rows x cols (the zero matrix when there
    are no terms or every weight is zero); ShapeMismatch otherwise.

    Term j is p_j N_j / (q_j d_j den) for w_j = p_j / q_j and M_j = N_j / d_j,
    so over den times the lcm L of the q_j d_j the numerators are
    sum_j p_j (L / (q_j d_j)) N_j: integer products and sums, brought to
    lowest terms once.
    """
    if len(weights) != len(mats):
        raise ShapeMismatch(f"{len(weights)} weights for {len(mats)} matrices")
    terms = []
    for w, m in zip(weights, mats):
        if m.rows != rows or m.cols != cols:
            raise ShapeMismatch(f"{m.rows}x{m.cols} term in a {rows}x{cols} combination")
        if w:
            terms.append((w.numerator, w.denominator * m.den, m.num))
    if not terms:
        return RationalMatrix.zeros(rows, cols)
    common = lcm(*(q for _, q, _ in terms))
    (p, q, num), *rest = terms
    f = p * (common // q)
    out = [[f * x for x in row] for row in num]
    for p, q, num in rest:
        f = p * (common // q)
        out = [[a + f * x for a, x in zip(ra, rb)] for ra, rb in zip(out, num)]
    return RationalMatrix._wrap(out, common * den, cols)


def block_diag(blocks: Sequence[RationalMatrix]) -> RationalMatrix:
    cols = sum(b.cols for b in blocks)
    nums, den = _common(blocks)
    out = []
    c0 = 0
    for b, num in zip(blocks, nums):
        out += [(*[0] * c0, *row, *[0] * (cols - c0 - b.cols)) for row in num]
        c0 += b.cols
    return RationalMatrix._wrap(out, den, cols)


def _echelon(a: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Row echelon form of the integer rows a, in place; returns (last
    pivot, pivot columns), the last pivot 1 when there is none.

    Fraction-free (Bareiss): each pivot piv takes every entry x right of
    it in the rows below to (piv x - f y) / prev, for f in the pivot
    column and y in the pivot row, every division exact; the pivot of
    step k is the determinant of the k x k minor on the rows and columns
    chosen so far.
    """
    nrows = len(a)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        piv = prow[c]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (piv * row[j] - f * prow[j]) // prev
            row[c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return prev, pivots


def _reduce(basis: list[tuple[int, list[int]]], row: list[int]) -> list[int]:
    """The integer row reduced by a fraction-free echelon basis of
    (pivot column, row) pairs, in the order added: `_echelon`'s Bareiss
    step once per basis row, so every division is exact, and the result
    is nonzero exactly when the row is independent of the basis."""
    prev = 1
    for col, prow in basis:
        piv, f = prow[col], row[col]
        row = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = piv
    return row


def _rref(a: list[list[int]], ncols: int) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form of the integer rows a, reduced in place;
    returns (rows, denominator, pivot column indices): the reduced form
    is rows / denominator, a positive denominator that every pivot entry
    equals, and rows from the rank on are zero.  The rows of a matrix's
    numerators span its row space, so they reduce to its form.

    `_echelon`, then back-substitution.  Its last pivot d is the
    determinant of the pivot minor B and the reduced form is B^-1 times
    the rows that gave the pivots, so d times it is an integer matrix R
    (Cramer's rule): over the echelon rows U, R's last row is U's, and the
    exact R[k] = (d U[k] - sum_{m>k} U[k][p_m] R[m]) / U[k][p_k] above.
    """
    d, pivots = _echelon(a, ncols)
    for k in range(len(pivots) - 2, -1, -1):
        row = a[k]
        acc = [d * x for x in row]
        for m in range(k + 1, len(pivots)):
            f = row[pivots[m]]
            if f:
                acc = [x - f * y for x, y in zip(acc, a[m])]
        u = row[pivots[k]]
        a[k] = [x // u for x in acc]
    if d < 0:
        d, a = -d, [[-x for x in row] for row in a]
    return a, d, pivots


def rref(m: RationalMatrix) -> tuple[RationalMatrix, list[int]]:
    a, den, pivots = _rref([list(row) for row in m.num], m.cols)
    return RationalMatrix._wrap(a, den, m.cols), pivots


def rank(m: RationalMatrix) -> int:
    """The number of pivots of `_echelon` on the numerators."""
    return len(_echelon([list(row) for row in m.num], m.cols)[1])


def kernel_basis(m: RationalMatrix) -> RationalMatrix:
    """Canonical basis of the right kernel, one column per free variable.

    The basis is the reduced-echelon one: free variable f contributes the
    vector with 1 in slot f and -R[i, f] in each pivot slot; columns are
    ordered by increasing f.  Two calls on row-equivalent matrices give the
    same result.
    """
    a, den, pivots = _rref([list(row) for row in m.num], m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for f in free:
        v = [0] * m.cols
        v[f] = den
        for i, p in enumerate(pivots):
            v[p] = -a[i][f]
        cols.append(v)
    if not cols:
        return RationalMatrix.zeros(m.cols, 0)
    return RationalMatrix._wrap(cols, den, m.cols).transpose()


def _free_rows(k: RationalMatrix) -> list[int]:
    """The free row of each column of a kernel_basis result: its last
    nonzero row, where the basis is the identity."""
    return [max(i for i, x in enumerate(col) if x) for col in zip(*k.num)]


def invert(m: RationalMatrix) -> RationalMatrix:
    if m.rows != m.cols:
        raise ShapeMismatch("only square matrices invert")
    n = m.rows
    if n == 0:
        return m
    # [num | den I] is row-equivalent to [m | I]
    aug = [list(row) + [m.den if i == j else 0 for j in range(n)] for i, row in enumerate(m.num)]
    a, den, pivots = _rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is singular")
    return RationalMatrix._wrap([row[n:] for row in a], den, n)


def solve_right(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Solve a @ x = b exactly, a maybe not square: the minimal-support
    solution, zero at a's free columns.  Raises Singular if inconsistent."""
    if a.rows != b.rows:
        raise ShapeMismatch("solve_right row mismatch")
    aug = a.hstack(b)
    red, den, pivots = _rref([list(row) for row in aug.num], aug.cols)
    for row in red:
        if not any(row[: a.cols]) and any(row[a.cols :]):
            raise Singular("inconsistent linear system")
    x = [[0] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        if p < a.cols:
            x[p] = red[i][a.cols :]
    # free columns stay zero: this is the canonical minimal-support solution;
    # callers that need uniqueness check full column rank themselves
    return RationalMatrix._wrap(x, den, b.cols)
