"""Ideals of 0-cycles in a chart, nested pairs, and the ADHM dictionary.

A cycle of length c in the chart C^2 is stored as the degree-c truncation of
its ideal: the subspace I cap M_c of the polynomials of total degree <= c,
as a canonical echelon basis.  Truncating at the colength loses nothing (a
colength-c ideal is generated in degrees <= c) and keeps everything finite
and exact.

Conventions frozen here:
  * monomials are ordered by the key (a + b, b) (degree, then y-exponent);
  * echelon bases are reduced against the DESCENDING monomial order, so the
    pivot of each row is its largest monomial and the non-pivot monomials
    form the divisor-closed staircase of standard monomials;
  * a polynomial is its coefficient row over `monomials_upto(d)`, and a
    row v reduces to v @ normal_forms();
  * multiplication matrices act on the standard-monomial basis in ascending
    order, and the ADHM matrices are their transposes: the canonical gauge;
  * a datum's ideal is read off its walk (`chart.monomial_rows`) by
    `chart.closure_scan`.

`adhm_from_ideal` is the one gate that proves a basis an ideal's, and
every reader of a datum goes through it; an ideal built as one is
recorded so (`_keep_closed`).  An ideal is immutable, so the datum the
gate proves and its staircase are kept on it (`ZeroCycleIdeal._kept`),
and so is the left part `correspondence.nested_to_rep` embeds for it as
a pair's big cycle.  A stored basis that already is the canonical form
is read as it is (`ZeroCycleIdeal.from_rows`).

A monomial's basis column is `monomials.position`, a closed form.  The
torus-fixed cycles of `enumerate_nested_monomial` are built from their
staircases: a cycle at the origin of a chart is a `monomial_ideal`, and
one split between the two fixed points is the join of two such blocks,
each shifted to its point of [1, 1] (`_fixed_cycle_ideal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate
from operator import matmul, mul

from .chart import (
    CHART_FIRST, CHART_MIXED, CHART_SECOND, AdhmData, NuPoint, _commuting, closure_scan, monomial_rows,
)
from .errors import BadPair, DomainError, NotAnIdeal, NotCostable, ShapeMismatch
from .monomials import count_upto, monomials_upto, position
from .ratmat import RationalMatrix, block_diag, json_count, json_field, kernel_basis, rank, rref


def _pivot_rows(basis: RationalMatrix) -> dict:
    """The integer numerator rows of a desc-echelon basis, keyed by their
    pivot (largest-monomial) column."""
    out = {}
    for row in basis.num:
        p = next((j for j in range(len(row) - 1, -1, -1) if row[j] != 0), None)
        if p is not None:
            out[p] = row
    return out


def _is_reduced(m: RationalMatrix) -> bool:
    """Whether m's rows are the descending reduced echelon form: each
    row's pivot is 1 (its numerator is den), the pivots strictly fall,
    and every pivot column is zero in the other rows."""
    piv = _pivot_rows(m)
    cols = list(piv)
    return (
        len(cols) == m.rows
        and cols == sorted(cols, reverse=True)
        and all(row[p] == m.den and not any(row[q] for q in cols if q < p) for p, row in piv.items())
    )


def _width(d: int) -> int:
    """count_upto(d), the basis width of a degree-d truncation;
    ShapeMismatch for d < 0, where count_upto is 0."""
    if d < 0:
        raise ShapeMismatch(f"degree bound must be non-negative, got {d}")
    return count_upto(d)


@dataclass(frozen=True)
class ZeroCycleIdeal:
    """Degree-d truncation of a colength-c ideal, canonical echelon basis.

    basis rows are coefficient vectors over monomials_upto(d) in ascending
    order, reduced against the descending order (see module docstring).
    ShapeMismatch for d < 0 or c < 0, or a basis of the wrong shape.
    `_closed` (`_keep_closed`) and `_kept` are not fields.
    """

    c: int
    d: int
    basis: RationalMatrix
    _closed = False

    def __post_init__(self):
        nmon = _width(self.d)
        if self.c < 0:
            raise ShapeMismatch(f"colength must be non-negative, got {self.c}")
        if self.basis.cols != nmon:
            raise ShapeMismatch("basis width must match the monomial count")
        if self.basis.rows != nmon - self.c:
            raise ShapeMismatch("basis row count must match the colength")

    @staticmethod
    def from_rows(rows, c: int, d: int) -> "ZeroCycleIdeal":
        """Canonicalize spanning rows, a row list or a RationalMatrix whose
        width must be the monomial count, to the reduced echelon form of the
        rows with their columns reversed, reversed back; then `validate`.
        Rows already in that form (`_is_reduced`), as this package writes
        them, are the basis as given: the form is unique."""
        nmon = count_upto(d)
        m = rows if isinstance(rows, RationalMatrix) else RationalMatrix.from_rows(rows, cols=nmon)
        if m.cols != nmon:
            raise ShapeMismatch("basis width must match the monomial count")
        if _is_reduced(m):
            basis = m
        else:
            desc = range(nmon - 1, -1, -1)
            red, pivots = rref(m.submatrix(range(m.rows), desc))
            basis = red.submatrix(range(len(pivots)), desc)
        ideal = ZeroCycleIdeal(c=c, d=d, basis=basis)
        ideal.validate()
        return ideal

    def validate(self) -> None:
        """Closure of the truncation under multiplication, where checkable:
        x*f and y*f must have zero normal form whenever they stay within
        degree d."""
        self._closure(self.normal_forms())

    def _closure(self, nf: RationalMatrix) -> None:
        """`validate`, given the normal forms: the one closure check, for
        `validate` and for `adhm_from_ideal`, which has read them."""
        mons = monomials_upto(self.d)
        shifted = []
        for row in self.basis.num:
            deg = max((a + b for (a, b), v in zip(mons, row) if v != 0), default=-1)
            if deg < 0 or deg >= self.d:
                continue
            for da, db in ((1, 0), (0, 1)):
                out = [0] * len(mons)
                for (a, b), v in zip(mons, row):
                    if v != 0:
                        out[position(a + da, b + db)] = v
                shifted.append(out)
        if shifted and not (
            RationalMatrix._wrap(shifted, self.basis.den, len(mons)) @ nf
        ).is_zero():
            raise NotAnIdeal("truncation is not closed under multiplication")

    @cached_property
    def _kept(self) -> dict:
        """What is read once of this basis, by two writers.
        `adhm_from_ideal` keeps the canonical datum it proves ("adhm") and
        its staircase ("std"); `correspondence.nested_to_rep` keeps the
        left part it embeds for this big cycle at each chart and n
        ((nu, n)), only once the gate and the nesting check passed.  The
        gate reads "adhm" alone, so no other entry passes for a proof."""
        return {}

    def standard_monomials(self) -> list[tuple[int, int]]:
        """Divisor-closed staircase spanning the quotient, ascending order."""
        piv = _pivot_rows(self.basis)
        return [m for j, m in enumerate(monomials_upto(self.d)) if j not in piv]

    def normal_forms(self) -> RationalMatrix:
        """Normal form of each monomial of degree <= d in the standard basis.

        One row per monomial of monomials_upto(d), one column per standard
        monomial: a standard monomial's row is its unit vector, and a pivot
        monomial's row is minus its basis row at the standard columns.
        """
        return self._reduced()[1]

    def _reduced(self) -> tuple[list[int], RationalMatrix]:
        """(the standard monomials' columns, normal_forms()), off one read
        of the basis pivots."""
        piv = _pivot_rows(self.basis)
        den = self.basis.den
        std = [j for j in range(self.basis.cols) if j not in piv]
        rows = [
            [-piv[j][s] for s in std] if j in piv else [den if s == j else 0 for s in std]
            for j in range(self.basis.cols)
        ]
        return std, RationalMatrix._wrap(rows, den, len(std))

    @staticmethod
    def from_normal_forms(std, nf: RationalMatrix, d: int) -> "ZeroCycleIdeal":
        """The inverse of normal_forms(), given the staircase std: the basis
        row of each monomial f outside std is f minus its normal form, the
        rows listed by f descending."""
        nmon = count_upto(d)
        if nf.rows != nmon or nf.cols != len(std):
            raise ShapeMismatch("normal forms need one row per monomial, one column per standard one")
        cols = [position(a, b) for a, b in std]
        standard = set(cols)
        rows = []
        for f in range(nmon - 1, -1, -1):
            if f not in standard:
                row = [0] * nmon
                row[f] = nf.den
                for k, x in zip(cols, nf.num[f]):
                    row[k] = -x
                rows.append(row)
        return ZeroCycleIdeal(c=len(std), d=d, basis=RationalMatrix._wrap(rows, nf.den, nmon))

    def to_json(self) -> dict:
        return {"c": self.c, "d": self.d, "basis": self.basis.to_json()}

    @staticmethod
    def from_json(obj) -> "ZeroCycleIdeal":
        """The declared width, which sizes an entry-less basis, and the gate's
        c <= count_upto(d - 1) are checked before the basis is built."""
        c, d = json_count(json_field(obj, "c")), json_count(json_field(obj, "d"))
        basis = json_field(obj, "basis")
        if json_count(json_field(basis, "cols")) != _width(d):
            raise ShapeMismatch("basis width must match the monomial count")
        if c > count_upto(d - 1):
            raise NotAnIdeal("degree bound too small to read off multiplication")
        return ZeroCycleIdeal.from_rows(RationalMatrix.from_json(basis), c=c, d=d)


@dataclass(frozen=True)
class NestedIdealPair:
    """A colength-c ideal inside a colength-c' one, tagged with the chart."""

    nu: NuPoint
    big: ZeroCycleIdeal
    small: ZeroCycleIdeal

    def __post_init__(self):
        if self.small.c >= self.big.c:
            raise ShapeMismatch("small cycle must be strictly shorter than the big one")

    def to_json(self) -> dict:
        return {
            "nu": self.nu.to_json(),
            "big": self.big.to_json(),
            "small": self.small.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "NestedIdealPair":
        return NestedIdealPair(
            nu=NuPoint.from_json(json_field(obj, "nu")),
            big=ZeroCycleIdeal.from_json(json_field(obj, "big")),
            small=ZeroCycleIdeal.from_json(json_field(obj, "small")),
        )


def contains(i: ZeroCycleIdeal, j: ZeroCycleIdeal) -> bool:
    """Whether i is contained in j: i's basis vanishes on the walk of
    adhm_from_ideal(j), as j is the annihilator of its datum's covector.
    Raises as `adhm_from_ideal` does for j.  Note the argument order:
    contains(big, small) is the nesting of a pair of cycles Z' subset Z.
    """
    a = adhm_from_ideal(j)
    return (i.basis @ monomial_rows(a.b1, a.b2, a.e, i.d)).is_zero()


def ideal_from_adhm(a: AdhmData) -> ZeroCycleIdeal:
    """Ideal of the cycle encoded by a costable datum: the kernel of
    f |-> e f(b1, b2) on polynomials of degree <= c, read off
    `chart.closure_scan` (`_ideal_of_scan`).  NotCostable otherwise."""
    scan = closure_scan(a.b1, a.b2, a.e)
    return _ideal_of_scan(scan.kept, scan.nf, a.c)


def _ideal_of_scan(kept, nf: RationalMatrix, c: int) -> ZeroCycleIdeal:
    """The ideal of a commuting datum whose walk to degree c scans to
    (kept, nf) (`chart.closure_scan`, `chart._Scan.restrict`), recorded as
    an ideal (`_keep_closed`); NotCostable unless c are kept."""
    if len(kept) != c:
        raise NotCostable("datum is not costable")
    return _keep_closed(ZeroCycleIdeal.from_normal_forms(kept, nf, c))


def _keep_closed(i: ZeroCycleIdeal) -> ZeroCycleIdeal:
    """i, recorded as closed under multiplication (`ZeroCycleIdeal._closed`),
    which changes no `==`, hash or JSON.  The one writer of that record, at
    the sites whose construction proves it:

    - `monomial_ideal`: lam is weakly decreasing, so a monomial of the
      ideal stays in it times x or y;
    - `_ideal_of_scan`: its rows are the f with e f(b1, b2) = 0 for a
      commuting pair, so e (x f)(b1, b2) = e f(b1, b2) b1 = 0, and likewise
      for y.

    `adhm_from_ideal` then builds the datum without its commutator
    (`chart._commuting`) or closure check."""
    object.__setattr__(i, "_closed", True)
    return i


def adhm_from_ideal(i: ZeroCycleIdeal) -> AdhmData:
    """Multiplication action on the standard-monomial basis, transposed.

    Row k of b1 (of b2) is the normal form of x (of y) times the k-th
    standard monomial.  Returns the datum in the canonical gauge: composing
    with ideal_from_adhm is the identity, and the other composite is
    canonical_form.

    This is the one gate that proves i an ideal's truncation.  NotAnIdeal
    where the staircase size is not c or d is too small to read the
    multiplication.  A recorded ideal (`_keep_closed`) is then trusted; any
    other i has its commutator formed by `AdhmData` (NotCommuting), then its
    closure checked (`ZeroCycleIdeal.validate`, NotAnIdeal).
    Together they prove that the basis spans I cap M_d, I the annihilator
    of the datum's covector, an ideal as b1, b2 commute.  Closure makes
    the staircase divisor-closed, so the walk is the unit vector at each
    standard monomial: I has colength c, and as many dimensions in M_d as
    the basis has rows.  A border row m - nf(m), m = x_i s for a standard
    s, lies in I: the walk at m is row s of b_i, nf(m).  Any other pivot
    is m = x_i q for a lower pivot q, and by closure x_i times the row of
    q is the row of m plus lower rows: by induction every row lies in I.
    The commutator alone does not suffice: y, x^2, xy, y^2 - x has the
    commuting datum of (x^2, y).

    The datum and its staircase are kept on i (`ZeroCycleIdeal._kept`)
    once the gate passes; errors are not kept.
    """
    kept = i._kept
    if "adhm" in kept:
        return kept["adhm"]
    cols, nf = i._reduced()
    mons = monomials_upto(i.d)
    std = [mons[j] for j in cols]
    c = len(std)
    if c != i.c:
        raise NotAnIdeal(f"staircase size {c} != recorded colength {i.c}")
    if any(a + b >= i.d for a, b in std) and c > 0:
        raise NotAnIdeal("degree bound too small to read off multiplication")
    b1 = nf.submatrix([position(a + 1, b) for a, b in std], range(c))
    b2 = nf.submatrix([position(a, b + 1) for a, b in std], range(c))
    e = RationalMatrix._wrap([[int(m == (0, 0)) for m in std]], 1, c)
    if i._closed:
        a = _commuting(c, b1, b2, e)
    else:
        a = AdhmData(c=c, b1=b1, b2=b2, e=e)
        i._closure(nf)
    kept["adhm"], kept["std"] = a, std
    return a


def canonical_form(a: AdhmData) -> AdhmData:
    """Gauge-canonical representative of a costable datum: gauge-equivalent
    data have one ideal, so the round trip through it sends them to one
    datum, with e the covector of the standard monomial 1."""
    return adhm_from_ideal(ideal_from_adhm(a))


def inclusion_matrix(big: ZeroCycleIdeal, small: ZeroCycleIdeal) -> RationalMatrix:
    """Inclusion of the small-cycle datum into the big-cycle datum, in the
    canonical gauges of adhm_from_ideal, for a nested pair big <= small.
    Raises as `adhm_from_ideal` does, big first, then BadPair when the
    ideals are not nested (`_inclusion`).
    """
    return _inclusion(big, adhm_from_ideal(big), adhm_from_ideal(small))


def _inclusion(ideal: ZeroCycleIdeal, big: AdhmData, small: AdhmData) -> RationalMatrix:
    """The inclusion of a nested pair, given the canonical data
    big = adhm_from_ideal(ideal) and small, with the pair's one nesting
    check: BadPair when the ideals are not nested.  The big staircase is
    the one that gate kept on ideal.

    incl, the small walk at the big standard monomials, is the linear map
    Q_big -> Q_small with m |-> m.  It is a module map,
    big.b_i incl = incl small.b_i, exactly when the ideals are nested:
    row m of the two sides are x_i m reduced mod big, then mod small, and
    x_i m mod small, which differ by an element of big; and a module map
    with 1 |-> 1 sends each f of big, zero in Q_big, to f in Q_small.
    That is sound as `adhm_from_ideal` proved both bases ideals', and it
    implies `chart.build_nested_adhm`'s checks: std(small) lies in
    std(big), and incl's rows there form an identity, so it has rank c';
    its row at 1 is small.e = big.e incl.  c' <= c is checked apart, for
    c = 0, where Q_big has no 1.
    """
    std = ideal._kept["std"]
    d = max(map(sum, std), default=0)
    incl = monomial_rows(small.b1, small.b2, small.e, d).submatrix([position(*m) for m in std], range(small.c))
    pairs = ((big.b1, small.b1), (big.b2, small.b2))
    if len(std) < small.c or any(bb @ incl != incl @ sb for bb, sb in pairs):
        raise BadPair("ideals are not nested")
    return incl


def partitions(k: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of k as descending tuples, largest first part first."""
    if k == 0:
        return [()]
    if max_part is None:
        max_part = k
    out = []
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions(k - first, first):
            out.append((first,) + rest)
    return out


def _partition_contains(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def monomial_ideal(lam: tuple[int, ...], d: int | None = None) -> ZeroCycleIdeal:
    """Ideal whose staircase is the Young diagram of the partition:
    x^a y^b lies in the ideal iff a >= lam[b] (rows beyond the diagram have
    width zero).  ShapeMismatch when lam is not a partition or d is too
    small for it.  The output is recorded as an ideal (`_keep_closed`)."""
    if any(not isinstance(p, int) or p < 1 for p in lam) or any(p < q for p, q in zip(lam, lam[1:])):
        raise ShapeMismatch(f"{lam} is not a partition: parts must be positive and weakly decreasing")
    c = sum(lam)
    if d is None:
        d = c
    mons = monomials_upto(d)
    std = [(a, b) for a, b in mons if b < len(lam) and a < lam[b]]
    if len(std) != c:
        raise ShapeMismatch(f"degree bound {d} is too small for the diagram {lam}")
    nf = RationalMatrix._wrap([[int(m == s) for s in std] for m in mons], 1, c)
    return _keep_closed(ZeroCycleIdeal.from_normal_forms(std, nf, d))


def enumerate_nested_monomial(cp: int, c: int, charts: int = 1, n: int = 1) -> list[NestedIdealPair]:
    """All torus-fixed nested pairs of colengths (cp, c).

    charts=1: both cycles at the origin of the chart [1, 0]; one pair per
    nested partition pair mu <= lam.  charts=2: cycles split between the two
    torus-fixed points of the base; pure splits keep their own chart label,
    genuinely mixed splits are read in the chart [1, 1], where both fixed
    fibers are visible (`_fixed_cycle_ideal`).  The pairs do not depend on
    the surface degree n: a cycle at the fixed points depends only on the
    local rings there.

    Order: chart-1 colength descending, then partitions in generation order;
    charts=1 is the chart-1 colength c block of charts=2.  ShapeMismatch
    unless 0 <= cp < c and charts is 1 or 2, then DomainError unless n >= 1.
    Pairs share their ideal objects: one monomial ideal per partition
    serves both pure charts and the blocks of the mixed cycles, and each
    mixed cycle is built once.
    """
    if not 0 <= cp < c:
        raise ShapeMismatch("need 0 <= cp < c")
    if charts not in (1, 2):
        raise ShapeMismatch("charts must be 1 or 2")
    if n < 1:
        raise DomainError("the surface index n must be a positive integer")
    # one ideal per partition and one per mixed cycle: a small cycle recurs
    # under many big ones, and a block in many mixed cycles
    mono = cache(monomial_ideal)
    ideal_at = cache(lambda part1, part2, nu: _fixed_cycle_ideal(part1, part2, nu, mono))
    out = []
    for c1 in range(c, -1 if charts == 2 else c - 1, -1):
        c2 = c - c1
        nu = CHART_FIRST if c2 == 0 else CHART_SECOND if c1 == 0 else CHART_MIXED
        for lam1 in partitions(c1):
            for lam2 in partitions(c2):
                big = ideal_at(lam1, lam2, nu)
                for cp1 in range(min(cp, c1), -1, -1):
                    cp2 = cp - cp1
                    if cp2 > c2:
                        continue
                    for mu1 in partitions(cp1):
                        if not _partition_contains(lam1, mu1):
                            continue
                        for mu2 in partitions(cp2):
                            if _partition_contains(lam2, mu2):
                                small = ideal_at(mu1, mu2, nu)
                                out.append(NestedIdealPair(nu=nu, big=big, small=small))
    return out


def _fixed_cycle_ideal(lam1, lam2, nu: NuPoint, mono) -> ZeroCycleIdeal:
    """Ideal, in the chart nu, of the torus-fixed cycle with staircase lam1
    at the origin of [1, 0] and lam2 at the origin of [0, 1], mono(lam)
    being monomial_ideal(lam).  In [1, 1] the first point is (-1, 0) and
    the second (1, 0): each nonempty block is the gate's datum of
    mono(lam) with b1 shifted by a = -1 and a = +1, and the blocks are
    joined by block_diag without a commutator (`chart._commuting`).

    The shift is the transport to [1, 1] (`chart.transform_chart`).  The
    datum (b1, b2, e) of the monomial ideal I at its home chart has
    nilpotent b1, and its transport is (b1', b2', e) with b1' - a =
    b1 U(b1) and b2' = b2 V(b1), U and V units of k[b1] (at home [1, 0],
    U = 2 (1 + b1)^-1 and V = (1 + b1)^n).  Every x^i y^j of I annihilates
    e times anything, as I is an ideal, so e (b1' - a)^i b2'^j =
    e b1^i b2^j U^i V^j = 0: (x - a)^i y^j lies in the transported ideal.
    Those generate the shifted block's ideal, I moved to (a, 0), and both
    have colength c, so they are equal.  The joined datum's covector is
    (e1, e2), so its ideal is the intersection of the two blocks' ideals.
    """
    if nu == CHART_FIRST:
        return mono(lam1)
    if nu == CHART_SECOND:
        return mono(lam2)
    parts = [(adhm_from_ideal(mono(lam)), a) for lam, a in ((lam1, -1), (lam2, 1)) if lam]
    joined = _commuting(
        sum(lam1) + sum(lam2),
        block_diag([t.b1 + RationalMatrix.identity(t.c).scale(a) for t, a in parts]),
        block_diag([t.b2 for t, _ in parts]),
        reduce(RationalMatrix.hstack, (t.e for t, _ in parts), RationalMatrix.zeros(1, 0)),
    )
    return ideal_from_adhm(joined)


def _trace(a: RationalMatrix, b: RationalMatrix) -> Fraction:
    """Tr(a @ b), without forming the product."""
    return Fraction(sum(sum(map(mul, ra, cb)) for ra, cb in zip(a.num, zip(*b.num))), a.den * b.den)


def _poly_at(p: list, m: RationalMatrix) -> RationalMatrix:
    """p(m) by Horner, for coefficients p lowest degree first."""
    out = RationalMatrix.zeros(m.rows, m.rows)
    for coef in reversed(p):
        out = out @ m + RationalMatrix.identity(m.rows).scale(coef)
    return out


def _nilpotent(m: RationalMatrix) -> bool:
    for _ in range(m.rows.bit_length()):  # m^(2^k) with 2^k > rows
        m = m @ m
    return m.is_zero()


def support(a: AdhmData) -> tuple:
    """The support of the cycle with its lengths, exactly: the rational
    univariate representation (t, f, g1, gx, gy) read off the traces of
    the datum (Rouillier, AAECC 9, 1999).

    The polynomials are Fraction coefficient lists, lowest degree first;
    f is monic and squarefree, and g1, gx, gy have deg f coefficients.
    Each root u of f is one point, (gx(u)/g1(u), gy(u)/g1(u)) with
    x + t y = u, of length g1(u)/f'(u).  A cycle of length c at the origin
    reads (0, [0, 1], [c], [0], [0]); the empty cycle (0, [1], [], [], []).

    For commuting b1, b2 and L = b1 + t b2, Tr(v(b1, b2) L^k) is the sum
    of m_p v(p) u_p^k over the points p, of length m_p, so the Hankel
    matrix of the Tr(L^k) has the rank r of the distinct u_p, its
    (r+1)x(r+1) kernel is f = prod (T - u_p), and g_v = sum m_p v(p)
    f/(T - u_p).  t = 0, 1, -1, 2, ... is kept when it separates the
    points, exactly when g1(L) b1 - gx(L) and g1(L) b2 - gy(L) are
    nilpotent; a pair of points rules out at most one t, so one of the
    first c(c-1)/2 + 1 is kept.

    A datum that is not costable (`chart.closure_scan`) has no cycle and
    raises NotCostable.
    """
    c = a.c
    if len(closure_scan(a.b1, a.b2, a.e).kept) < c:
        raise NotCostable("datum is not costable, so it has no cycle")
    one = RationalMatrix.identity(c)
    for k in range(c * (c - 1) // 2 + 1):
        t = (-1) ** (k + 1) * ((k + 1) // 2)
        lt = a.b1 + a.b2.scale(t)
        powers = list(accumulate([lt] * (2 * c), matmul, initial=one))
        s1, sx, sy = ([_trace(v, p) for p in powers] for v in (one, a.b1, a.b2))
        hankel = lambda m: RationalMatrix([[s1[i + j] for j in range(m)] for i in range(m)])
        r = rank(hankel(c))
        # the first r columns are independent, so the kernel's free slot is r
        f = [row[0] for row in kernel_basis(hankel(r + 1)).data]
        g1, gx, gy = ([sum(map(mul, f[i + 1 :], s)) for i in range(r)] for s in (s1, sx, sy))
        g1_lt = _poly_at(g1, lt)
        if _nilpotent(g1_lt @ a.b1 - _poly_at(gx, lt)) and _nilpotent(g1_lt @ a.b2 - _poly_at(gy, lt)):
            return t, f, g1, gx, gy
