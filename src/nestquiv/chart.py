"""Affine charts of the surface and the ADHM dictionary.

The base P^1 is covered by charts labelled by points nu = [nu1 : nu2]; the
chart at nu removes the fiber over nu together with the section at infinity,
leaving a copy of C^2.  A cycle inside that chart is encoded by an ADHM
datum (b1, b2, e): commuting endomorphisms of k^c and a costable covector.

`chart_embed` produces the quiver representation whose cycle is the given
datum in the chart at nu, gauge-normalized so that the pencil combination
A_nu is the identity; `chart_blocks` reads any representation whose
pencil is regular at nu, for `chart_extract` (with e = J) and the monad:

    b1 = A_nu^{-1} D_nu,   b2 = C_nu A_nu,   I_nu.

The direction of the b2 product matters: C_nu A_nu is the one that
transforms by conjugation under gauge, with e transforming as e g^{-1}.
The pencil arrows of a commuting pair (`_pencil_arrows`) are polynomials
in b1, and the binomial theorem gives C_nu = A_nu^{n-1} b2 = b2, which is
why extract(embed(a, nu), nu) = a at every rational chart.

`monomial_rows` is the one walk over monomials, the rows e . b1^a b2^b in
the frozen monomial order, and `closure_scan` the one reader of a
datum's covector closure: the number of rows it keeps is costability,
and its normal forms (`_Scan`) are the ideal that `ideals` reads.

Three shortcuts skip a check, each naming where its premise is proved:
`_commuting` builds a datum without its commutator, `_nested` a nested
datum without `build_nested_adhm`'s checks, and `_Scan.restrict` reads
the small ideal of a nested pair off the big scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .errors import (
    IrregularPencil,
    NotCommuting,
    NotIntertwining,
    NotInjective,
    RelationsViolated,
    ShapeMismatch,
    Singular,
    SingularAnu,
)
from .monomials import count_upto, monomials_upto
from .quiver import HirzRep, _keep_relations
from .ratmat import (
    RationalMatrix, _free_rows, _json_shaped, _reduce, _rref, invert, json_count, json_field, json_rat,
    kernel_basis, lincomb, rank, rat, rat_str,
)


@dataclass(frozen=True, eq=False)
class NuPoint:
    """Point of P^1 as a chart label, normalized so the first nonzero
    coordinate is 1.  `_num` is the primitive integer pair (u1, u2) with
    (nu1, nu2) = (u1, u2) / `_den`, the key of `==` and `hash`; rho is
    nu1^2 + nu2^2."""

    nu1: Fraction
    nu2: Fraction

    def __post_init__(self):
        n1, n2 = rat(self.nu1), rat(self.nu2)
        u1, u2 = n1.numerator * n2.denominator, n2.numerator * n1.denominator
        g = gcd(u1, u2)
        if g == 0:
            raise ShapeMismatch("nu must be a point of P^1")
        if (u1 or u2) < 0:
            g = -g
        u1, u2 = u1 // g, u2 // g
        lead = u1 or u2
        for name, value in (
            ("nu1", Fraction(u1, lead)),
            ("nu2", Fraction(u2, lead)),
            ("rho", Fraction(u1 * u1 + u2 * u2, lead * lead)),
            ("_num", (u1, u2)),
            ("_den", lead),
        ):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, NuPoint):
            return NotImplemented
        return self._num == other._num

    def __hash__(self):
        return hash(self._num)

    def to_json(self) -> list[str]:
        return [rat_str(self.nu1), rat_str(self.nu2)]

    @staticmethod
    def from_json(obj) -> "NuPoint":
        if not isinstance(obj, list) or len(obj) != 2:
            raise ShapeMismatch(f"nu must be a list of two rationals, got {obj!r}")
        return NuPoint(json_rat(obj[0]), json_rat(obj[1]))


# The charts of the torus-fixed points: the fiber over [1,0], the fiber
# over [0,1], and the chart [1,1] where both are visible.
CHART_FIRST = NuPoint(Fraction(1), Fraction(0))
CHART_SECOND = NuPoint(Fraction(0), Fraction(1))
CHART_MIXED = NuPoint(Fraction(1), Fraction(1))


@dataclass(frozen=True)
class AdhmData:
    """Commuting pair plus covector.

    The constructor checks the shapes (ShapeMismatch), then the commutator
    (NotCommuting); only `_commuting` skips the commutator."""

    c: int
    b1: RationalMatrix
    b2: RationalMatrix
    e: RationalMatrix

    def __post_init__(self):
        _check_shapes(self)
        if not (self.b1 @ self.b2 - self.b2 @ self.b1).is_zero():
            raise NotCommuting("[b1, b2] != 0")

    def to_json(self) -> dict:
        return {
            "c": self.c,
            "b1": self.b1.to_json(),
            "b2": self.b2.to_json(),
            "e": self.e.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "AdhmData":
        """Each matrix's declared shape is checked against c before the
        matrix is built."""
        c = json_count(json_field(obj, "c"))
        return AdhmData(
            c=c,
            b1=_json_shaped(obj, "b1", c, c),
            b2=_json_shaped(obj, "b2", c, c),
            e=_json_shaped(obj, "e", 1, c),
        )


def _check_shapes(a: AdhmData) -> None:
    for name, m in (("b1", a.b1), ("b2", a.b2)):
        if m.rows != a.c or m.cols != a.c:
            raise ShapeMismatch(f"{name} must be {a.c}x{a.c}")
    if a.e.rows != 1 or a.e.cols != a.c:
        raise ShapeMismatch("e must be a 1xc row")


def _commuting(c: int, b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix) -> AdhmData:
    """AdhmData(c, b1, b2, e) with its shapes checked but [b1, b2] not
    formed, at the three sites whose construction proves the pair commutes:

    - `chart_extract` of x whose relations hold with every I_q zero: its
      commutator A_nu^-1 (D_nu C_nu A_nu - A_nu C_nu D_nu) is rho A_nu^-1
      times the one residual for n = 1, and -I_nu J for n >= 2;
    - `ideals.adhm_from_ideal` of an ideal recorded as built as one
      (`ideals._keep_closed`): multiplications by x and by y commute;
    - `ideals._fixed_cycle_ideal`: block_diag of commuting pairs commutes
      block by block, and a shift a I + b1 commutes with b2 whenever b1
      does."""
    a = object.__new__(AdhmData)
    for name, value in (("c", c), ("b1", b1), ("b2", b2), ("e", e)):
        object.__setattr__(a, name, value)
    _check_shapes(a)
    return a


@dataclass(frozen=True)
class NestedAdhmData:
    """A costable datum, a sub-datum, the inclusion that intertwines them,
    and the induced quotient datum (quot, qb1, qb2)."""

    small: AdhmData
    big: AdhmData
    incl: RationalMatrix
    quot: RationalMatrix
    qb1: RationalMatrix
    qb2: RationalMatrix


def pencil(a1: RationalMatrix, a2: RationalMatrix, nu: NuPoint) -> RationalMatrix:
    """The pencil combination A_nu = nu2 A1 + nu1 A2."""
    (u1, u2), g = nu._num, nu._den
    return lincomb((u2, u1), (a1, a2), a1.rows, a1.cols, g)


def _binomial_weights(k: int, nu: NuPoint) -> list[int]:
    """The weights binom(k, j) nu1^{k-j} nu2^j for j = 0 .. k as integer
    numerators over g^k: with nu = (u1, u2) / g, binom(k, j) u1^{k-j} u2^j."""
    u1, u2 = nu._num
    return [comb(k, j) * u1 ** (k - j) * u2**j for j in range(k + 1)]


def pencil_combos(x: HirzRep, nu: NuPoint):
    """The four nu-combinations (A_nu, D_nu, C_nu, I_nu).

    A_nu = nu2 A1 + nu1 A2,  D_nu = nu1 A1 - nu2 A2,
    C_nu = sum_q binom(n-1, q-1) nu1^{n-q} nu2^{q-1} C_q,
    I_nu = (nu1^2+nu2^2) sum_q binom(n-2, q-1) nu1^{n-q-1} nu2^{q-1} I_q
    (a zero column for n = 1, where there is no I_q), each one `lincomb`
    over the integer weights of nu (`_binomial_weights`).
    """
    (u1, u2), g = nu._num, nu._den
    n = x.n
    a_nu = pencil(x.A1, x.A2, nu)
    d_nu = lincomb((u1, -u2), (x.A1, x.A2), x.c1, x.c0, g)
    c_nu = lincomb(_binomial_weights(n - 1, nu), x.C, x.c0, x.c1, g ** (n - 1))
    r = u1 * u1 + u2 * u2
    i_nu = lincomb([r * w for w in _binomial_weights(n - 2, nu)], x.I, x.c0, 1, g**n)
    return a_nu, d_nu, c_nu, i_nu


def _regular_order(c: int):
    """The frozen pencil order [1,0], [1,1], ..., [1,c], one label at a time."""
    yield CHART_FIRST
    for k in range(1, c + 1):
        yield NuPoint(1, k)


def regular_sample(c: int) -> list[NuPoint]:
    """The frozen pencil sample [1,0], [1,1], ..., [1,c] of find_regular_nu,
    as a list (`_regular_order`)."""
    return list(_regular_order(c))


def first_regular(pencils, candidates) -> NuPoint | None:
    """The first candidate at which every square pencil (A1, A2) in
    pencils has nu2 A1 + nu1 A2 of full rank, None when there is none."""
    for nu in candidates:
        if all(rank(pencil(a1, a2, nu)) == a1.rows for a1, a2 in pencils):
            return nu
    return None


def find_regular_nu(a1: RationalMatrix, a2: RationalMatrix) -> NuPoint:
    """First nu in the frozen sample with nu2 A1 + nu1 A2 invertible.

    det(nu2 A1 + nu1 A2) is a homogeneous form of degree c on P^1, so if all
    c + 1 sample points are roots the pencil is singular everywhere.
    """
    if a1.rows != a1.cols or a2.rows != a2.cols or a1.rows != a2.rows:
        raise ShapeMismatch("pencil needs two square matrices of equal size")
    nu = first_regular([(a1, a2)], _regular_order(a1.rows))
    if nu is None:
        raise IrregularPencil(f"all {a1.rows + 1} sampled charts are singular")
    return nu


def _conversion_chart(a1: RationalMatrix, a2: RationalMatrix, chart: NuPoint) -> NuPoint:
    """The first regular chart of the conversions' order [1,0], [0,1],
    [1,1], ..., [1,c], given chart, the first regular point of
    regular_sample(c): [1,0] when chart is, else [0,1] when the pencil is
    regular there, else chart."""
    if chart == CHART_FIRST:
        return chart
    return first_regular([(a1, a2)], [CHART_SECOND]) or chart


def _pencil_arrows(b1: RationalMatrix, b2: RationalMatrix, nu: NuPoint, n: int):
    """The arrows (A1, A2, (C1..Cn)) of the pair (b1, b2) in the chart at
    nu: A_nu = id, D_nu = b1 and the pencil powers C_q = A1^{q-1} A2^{n-q} b2,
    C_1 = A2^{n-1} b2 with no identity factor."""
    c = b1.rows
    ident = RationalMatrix.identity(c)
    # nu_i / rho = u_i g / (u1^2 + u2^2) for nu = (u1, u2) / g
    (u1, u2), g = nu._num, nu._den
    w1, w2, r = u1 * g, u2 * g, u1 * u1 + u2 * u2
    a1 = lincomb((w2, w1), (ident, b1), c, c, r)
    a2 = lincomb((w1, -w2), (ident, b1), c, c, r)
    heads, tails = [a1], [b2]  # A1^k for k = 1 .. n-1 and A2^k b2 for k = 0 .. n-1
    for _ in range(n - 1):
        tails.append(a2 @ tails[-1])
    for _ in range(n - 2):
        heads.append(heads[-1] @ a1)
    return a1, a2, (tails[n - 1], *(heads[k - 1] @ tails[n - 1 - k] for k in range(1, n)))


def chart_embed(a: AdhmData, nu: NuPoint, n: int) -> HirzRep:
    """Representation of the cycle (b1, b2, e) placed in the chart at nu:
    the pencil arrows of (b1, b2) (`_pencil_arrows`), I_q = 0 and J = e,
    recorded as satisfying its relations (`quiver._keep_relations`)."""
    a1, a2, cs = _pencil_arrows(a.b1, a.b2, nu, n)
    i_cols = tuple(RationalMatrix.zeros(a.c, 1) for _ in range(n - 1))
    return _keep_relations(HirzRep(n=n, c0=a.c, c1=a.c, A1=a1, A2=a2, C=cs, I=i_cols, J=a.e), ())


def chart_blocks(x: HirzRep, nu: NuPoint):
    """The blocks (b1, b2, I_nu) of x in the chart at nu: ShapeMismatch
    unless c0 = c1, then SingularAnu unless A_nu is invertible.  The
    relations are not assumed.  Where A_nu is exactly the identity, as in
    the chart of an embedding, the blocks are (D_nu, C_nu, I_nu)."""
    if x.c0 != x.c1:
        raise ShapeMismatch("reading a chart needs c0 = c1")
    a_nu, d_nu, c_nu, i_nu = pencil_combos(x, nu)
    if a_nu.is_identity():
        return d_nu, c_nu, i_nu
    try:
        a_inv = invert(a_nu)
    except Singular:
        raise SingularAnu(f"A_nu singular at nu = {nu.to_json()}") from None
    return a_inv @ d_nu, c_nu @ a_nu, i_nu


def chart_extract(x: HirzRep, nu: NuPoint) -> AdhmData:
    """The ADHM datum of x in the chart at nu, with e = J.

    Errors in order: those of `chart_blocks`, then RelationsViolated unless
    the pair commutes.  It reads x's relation verdict (computed on first
    read and kept on x): where the relations hold with every I_q zero the
    pair is trusted (`_commuting`); for n = 1 a nonzero verdict raises with
    no commutator formed, as the commutator is rho A_nu^-1 times the one
    residual; elsewhere the commutator is formed.
    """
    b1, b2, _ = chart_blocks(x, nu)
    bad = x._nonzero_residuals
    if bad == () and all(iq.is_zero() for iq in x.I):
        return _commuting(x.c0, b1, b2, x.J)
    if bad and x.n == 1:
        raise RelationsViolated("extracted pair does not commute")
    try:
        return AdhmData(c=x.c0, b1=b1, b2=b2, e=x.J)
    except NotCommuting:
        raise RelationsViolated("extracted pair does not commute") from None


def transform_chart(a: AdhmData, from_nu: NuPoint, to_nu: NuPoint, n: int) -> AdhmData:
    """Express a chart datum in another chart of the same surface:
    embed, then extract.  SingularAnu when the cycle meets the fiber removed
    by to_nu."""
    return chart_extract(chart_embed(a, from_nu, n), to_nu)


def _walk(b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix, d: int):
    """The rows of monomial_rows(b1, b2, e, d), one at a time, each as its
    integer numerators over its denominator, brought to lowest terms, so
    that entries grow with the normal forms, not with the powers of the
    denominators."""
    steps = [(list(zip(*mat.num)), mat.den) for mat in (b1, b2)]  # columns, denominator
    rows: dict = {}
    for m in monomials_upto(d):
        a, b = m
        if m == (0, 0):
            row, den = list(e.num[0]), e.den
        else:
            prev, den = rows[(a - 1, b)] if a else rows[(0, b - 1)]
            cols, step = steps[0] if a else steps[1]
            row, den = [sum(map(mul, prev, col)) for col in cols], den * step
            g = gcd(den, *row) if den > 1 else 1
            if g > 1:
                row, den = [x // g for x in row], den // g
        rows[m] = row, den
        yield row, den


def _stack(rows, cols: int) -> RationalMatrix:
    """The matrix of rows given as (integer numerators, denominator),
    brought to their common denominator."""
    common = lcm(*(den for _, den in rows))
    return RationalMatrix._wrap([[x * (common // den) for x in row] for row, den in rows], common, cols)


def monomial_rows(
    b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix, d: int
) -> RationalMatrix:
    """The rows e . b1^a b2^b for (a, b) in monomials_upto(d), in that order.

    Each row extends an earlier one by one factor (`_walk`): (a, b) is
    (a - 1, b) times b1, and (0, b) is (0, b - 1) times b2.  For a commuting
    pair the row of m is e . m(b1, b2), so a polynomial f with coefficient
    vector v evaluates to e . f(b1, b2) = v @ monomial_rows(b1, b2, e, deg f).
    """
    return _stack(list(_walk(b1, b2, e, d)), e.cols)


def _span_pass(rows, target: int) -> list[int]:
    """The indices of the integer rows that grow the span of the rows
    before them, in order, stopping at the target-th, so a lazy walk is
    drawn no further.  Each row, divided by its content, is reduced against
    a fraction-free echelon of the kept ones (`ratmat._reduce`)."""
    kept, basis = [], []  # indices kept; echelon of their rows
    for i, row in enumerate(rows):
        g = gcd(*row)
        left = _reduce(basis, [x // g for x in row]) if g else ()
        col = next((j for j, x in enumerate(left) if x), None)
        if col is not None:
            basis.append((col, left))
            kept.append(i)
            if len(kept) == target:
                break
    return kept


class _Scan:
    """A closure scan: the monomials kept (`kept`), the normal forms
    (`nf`), and as `gauge` the walk's rows at the kept monomials, K, None
    where K is the identity.  A scan that is not costable has only `kept`.
    The normal forms are built on their first read and kept: where K is the
    identity, the rest of the walk to degree c; otherwise the walk of the
    canonical datum (K b1 K^-1, K b2 K^-1, e K^-1)."""

    __slots__ = ("kept", "gauge", "_nf", "_rest")

    def __init__(self, kept, gauge, rest):
        self.kept, self.gauge, self._nf, self._rest = kept, gauge, None, rest

    @property
    def nf(self) -> RationalMatrix | None:
        rest = self._rest
        if rest is not None:
            b1, b2, rows, walk = rest
            c = b1.rows
            k = self.gauge
            if k is None:
                self._nf = _stack(rows + list(walk), c)
            else:
                inv = invert(k)
                unit = RationalMatrix._wrap([[int(j == 0) for j in range(c)]], 1, c)
                self._nf = monomial_rows(k @ b1 @ inv, k @ b2 @ inv, unit, c)
            self._rest = None
        return self._nf

    def restrict(self, k1: RationalMatrix, cp: int):
        """The scan (monomials kept, normal forms) of the walk times k1 to
        degree cp, for a costable scan and a c x cp matrix k1 of rank cp.

        The walk is nf K (K the identity where `gauge` is None), so that
        product is the first count_upto(cp) rows of nf times M = K k1.
        Row m of nf is the unit row at the j-th kept monomial where m is
        that monomial, and else combines the unit rows of kept monomials
        before m.  So the rows of the product that grow its span are among
        the rows of M, in order: the first independent rows of M, which
        are the pivots of the reduced echelon form of M^T (`ratmat._rref`).
        The kept monomials are the scan's at those pivots.  With K_s the rows
        of M there, the reduced form is K_s^-T M^T, so its rows, transposed,
        are M K_s^-1, and the normal forms, the product times K_s^-1, are
        nf's first rows times them."""
        m = k1 if self.gauge is None else self.gauge @ k1
        red, den, found = _rref([list(col) for col in zip(*m.num)], m.rows)
        head = self.nf.submatrix(range(count_upto(cp)), range(m.rows))
        return [self.kept[j] for j in found], head @ RationalMatrix._wrap(red, den, m.rows).transpose()


def closure_scan(b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix) -> _Scan:
    """Greedy scan of the covector closure up to total degree c: the
    monomials whose walk rows (`monomial_rows`) grow the span of the rows
    before them, kept by the lazy `_span_pass` up to the c-th, and the
    normal forms, row m of the walk in the kept rows K (`_Scan`).  The
    number kept is costability.  Where K is not the identity the normal
    forms are the walk of the canonical datum, as conjugation is
    multiplicative and e K^-1 is the unit covector (e is K's first row)."""
    c = b1.rows
    walk = _walk(b1, b2, e, c)
    rows = []  # the walk so far, each row with its denominator

    def drawn():
        for row in walk:
            rows.append(row)
            yield row[0]

    found = _span_pass(drawn(), c)
    mons = monomials_upto(c)
    kept = [mons[i] for i in found]
    if len(kept) < c:
        return _Scan(kept, None, None)
    gauge = [rows[i] for i in found]
    if all(row == [den * (i == j) for j in range(c)] for i, (row, den) in enumerate(gauge)):
        return _Scan(kept, None, (b1, b2, rows, walk))
    return _Scan(kept, _stack(gauge, c), (b1, b2, None, None))


def build_nested_adhm(small: AdhmData, big: AdhmData, incl: RationalMatrix) -> NestedAdhmData:
    """Assemble the nested datum from an intertwining inclusion.

    incl: k^{c'} -> k^c must be injective and satisfy
        big.b_i incl = incl small.b_i   and   big.e incl = small.e.
    The checks on incl imply what `_nested` assembles: rank c' gives
    c - c' rows, quot incl = 0 makes qb_i exist, and quot onto gives
    [qb1, qb2] = 0.
    """
    if incl.rows != big.c or incl.cols != small.c:
        raise ShapeMismatch("incl must be c x c'")
    if rank(incl) != small.c:
        raise NotInjective("incl has a kernel")
    for bb, sb in ((big.b1, small.b1), (big.b2, small.b2)):
        if not (bb @ incl - incl @ sb).is_zero():
            raise NotIntertwining("incl does not intertwine the b's")
    if not (big.e @ incl - small.e).is_zero():
        raise NotIntertwining("incl does not match the covectors")
    return _nested(small, big, incl)


def _nested(small: AdhmData, big: AdhmData, incl: RationalMatrix) -> NestedAdhmData:
    """build_nested_adhm with no check on incl, for
    `correspondence.nested_to_rep`, whose nesting check `ideals._inclusion`
    proves them.  quot is the transposed kernel basis of incl^T, the
    identity at its free columns, so the qb_i with qb_i quot = quot b_i are
    quot b_i at those columns."""
    k = kernel_basis(incl.transpose())
    quot = k.transpose()
    qb1, qb2 = ((quot @ b).submatrix(range(quot.rows), _free_rows(k)) for b in (big.b1, big.b2))
    return NestedAdhmData(small=small, big=big, incl=incl, quot=quot, qb1=qb1, qb2=qb2)
