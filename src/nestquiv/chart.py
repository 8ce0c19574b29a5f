"""Affine charts of the surface and the ADHM dictionary.

The base P^1 is covered by charts labelled by points nu = [nu1 : nu2]; the
chart at nu removes the fiber over nu together with the section at infinity,
leaving a copy of C^2.  A cycle inside that chart is encoded by an ADHM
datum (b1, b2, e): commuting endomorphisms of k^c and a costable covector.

`chart_embed` produces the quiver representation whose cycle is the given
datum in the chart at nu, gauge-normalized so that the pencil combination
A_nu is the identity; `chart_extract` reads the datum back from any
representation whose pencil is regular at nu:

    b1 = A_nu^{-1} D_nu,   b2 = C_nu A_nu,   e = J.

The direction of the b2 product matters: C_nu A_nu is the one that
transforms by conjugation under gauge, with e transforming as e g^{-1}.

The one walk over monomials is `monomial_rows`: the rows e . b1^a b2^b
for (a, b) in the frozen monomial order, each one factor beyond an
earlier row.  The covector closure (`closure_scan`) and the whole ideal
dictionary in `ideals` read their rows from it.

Rational charts need one normalization the unit-circle parametrization
hides: the sigma matrix carries a factor (nu1^2 + nu2^2)^{-(n-1)}, which is
exactly what makes extract(embed(a, nu), nu) = a an identity (binomial
identity: the nu-weighted sum of the sigma row polynomials telescopes to
(nu1^2 + nu2^2)^{n-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .errors import (
    IrregularPencil,
    NotCommuting,
    NotCostable,
    NotIntertwining,
    NotInjective,
    RelationsViolated,
    ShapeMismatch,
    Singular,
    SingularAnu,
)
from .monomials import monomials_upto
from .quiver import HirzRep
from .ratmat import RationalMatrix, _cleared, _over, invert, kernel_basis, rank, rat, rat_str, rref


@dataclass(frozen=True)
class NuPoint:
    """Point of P^1 as a chart label, normalized so the first nonzero
    coordinate is 1."""

    nu1: Fraction
    nu2: Fraction

    def __post_init__(self):
        n1, n2 = rat(self.nu1), rat(self.nu2)
        if n1 == 0 and n2 == 0:
            raise ShapeMismatch("nu must be a point of P^1")
        scale = n1 if n1 != 0 else n2
        object.__setattr__(self, "nu1", n1 / scale)
        object.__setattr__(self, "nu2", n2 / scale)

    @property
    def rho(self) -> Fraction:
        return self.nu1 * self.nu1 + self.nu2 * self.nu2

    def to_json(self) -> list[str]:
        return [rat_str(self.nu1), rat_str(self.nu2)]

    @staticmethod
    def from_json(obj) -> "NuPoint":
        if not isinstance(obj, list) or len(obj) != 2:
            raise ShapeMismatch(f"nu must be a list of two rationals, got {obj!r}")
        return NuPoint(rat(str(obj[0])), rat(str(obj[1])))


@dataclass(frozen=True)
class AdhmData:
    """Commuting pair plus covector; the commutator is checked eagerly."""

    c: int
    b1: RationalMatrix
    b2: RationalMatrix
    e: RationalMatrix

    def __post_init__(self):
        for name, m in (("b1", self.b1), ("b2", self.b2)):
            if m.rows != self.c or m.cols != self.c:
                raise ShapeMismatch(f"{name} must be {self.c}x{self.c}")
        if self.e.rows != 1 or self.e.cols != self.c:
            raise ShapeMismatch("e must be a 1xc row")
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
        return AdhmData(
            c=int(obj["c"]),
            b1=RationalMatrix.from_json(obj["b1"]),
            b2=RationalMatrix.from_json(obj["b2"]),
            e=RationalMatrix.from_json(obj["e"]),
        )


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
    return a1.scale(nu.nu2) + a2.scale(nu.nu1)


def pencil_combos(x: HirzRep, nu: NuPoint):
    """The four nu-combinations (A_nu, D_nu, C_nu, I_nu).

    A_nu = nu2 A1 + nu1 A2,  D_nu = nu1 A1 - nu2 A2,
    C_nu = sum_q binom(n-1, q-1) nu1^{n-q} nu2^{q-1} C_q  (C_1 for n = 1),
    I_nu = (nu1^2+nu2^2) sum_q binom(n-2, q-1) nu1^{n-q-1} nu2^{q-1} I_q
    (zero column for n = 1).
    """
    n1, n2, n = nu.nu1, nu.nu2, x.n
    a_nu = pencil(x.A1, x.A2, nu)
    d_nu = x.A1.scale(n1) - x.A2.scale(n2)
    if n == 1:
        c_nu = x.C[0]
        i_nu = RationalMatrix.zeros(x.c0, 1)
    else:
        c_nu = RationalMatrix.zeros(x.c0, x.c1)
        for q in range(1, n + 1):
            c_nu = c_nu + x.C[q - 1].scale(comb(n - 1, q - 1) * n1 ** (n - q) * n2 ** (q - 1))
        i_nu = RationalMatrix.zeros(x.c0, 1)
        for q in range(1, n):
            i_nu = i_nu + x.I[q - 1].scale(comb(n - 2, q - 1) * n1 ** (n - q - 1) * n2 ** (q - 1))
        i_nu = i_nu.scale(nu.rho)
    return a_nu, d_nu, c_nu, i_nu


def regular_sample(c: int) -> list[NuPoint]:
    """The frozen pencil sample [1,0], [1,1], ..., [1,c]."""
    return [NuPoint(Fraction(1), Fraction(k)) for k in range(c + 1)]


def find_regular_nu(a1: RationalMatrix, a2: RationalMatrix) -> NuPoint:
    """First nu in the frozen sample with nu2 A1 + nu1 A2 invertible.

    det(nu2 A1 + nu1 A2) is a homogeneous form of degree c on P^1, so if all
    c + 1 sample points are roots the pencil is singular everywhere.
    """
    if a1.rows != a1.cols or a2.rows != a2.cols or a1.rows != a2.rows:
        raise ShapeMismatch("pencil needs two square matrices of equal size")
    c = a1.rows
    for nu in regular_sample(c):
        if rank(pencil(a1, a2, nu)) == c:
            return nu
    raise IrregularPencil(f"all {c + 1} sampled charts are singular")


def sigma_matrix(nu: NuPoint, n: int) -> RationalMatrix:
    """n x n change-of-section-basis matrix for the chart at nu.

    Row p (0-based) holds the coefficients of
        (nu2 z1 + nu1 z2)^p (nu1 z1 - nu2 z2)^{n-1-p} / (nu1^2+nu2^2)^{n-1}
    in the basis z1^{n-1-q} z2^q, q = 0 .. n-1.
    """
    if n < 1:
        raise ShapeMismatch("n must be >= 1")
    n1, n2 = nu.nu1, nu.nu2
    scale = Fraction(1) / nu.rho ** (n - 1)
    rows = []
    for p in range(n):
        # convolve the two binomial expansions; index = power of z2
        first = [comb(p, i) * n2 ** (p - i) * n1**i for i in range(p + 1)]
        m = n - 1 - p
        second = [comb(m, j) * n1 ** (m - j) * (-n2) ** j for j in range(m + 1)]
        coeffs = [Fraction(0)] * n
        for i, fi in enumerate(first):
            for j, sj in enumerate(second):
                coeffs[i + j] += fi * sj
        rows.append([x * scale for x in coeffs])
    return RationalMatrix(rows)


def chart_embed(a: AdhmData, nu: NuPoint, n: int) -> HirzRep:
    """Representation of the cycle (b1, b2, e) placed in the chart at nu.

    Gauge-normalized so that A_nu = id and D_nu = b1; the C-stack is the
    sigma-weighted stack of b1-powers times b2, I_q = 0, J = e.
    """
    rho = nu.rho
    ident = RationalMatrix.identity(a.c)
    a1 = (ident.scale(nu.nu2) + a.b1.scale(nu.nu1)).scale(Fraction(1) / rho)
    a2 = (ident.scale(nu.nu1) - a.b1.scale(nu.nu2)).scale(Fraction(1) / rho)
    sigma = sigma_matrix(nu, n)
    powers = [ident]
    for _ in range(n - 1):
        powers.append(powers[-1] @ a.b1)
    cs = []
    for p in range(n):
        acc = RationalMatrix.zeros(a.c, a.c)
        for q in range(n):
            if sigma[p, q] != 0:
                acc = acc + powers[q].scale(sigma[p, q])
        cs.append(acc @ a.b2)
    i_cols = tuple(RationalMatrix.zeros(a.c, 1) for _ in range(n - 1))
    return HirzRep(n=n, c0=a.c, c1=a.c, A1=a1, A2=a2, C=tuple(cs), I=i_cols, J=a.e)


def chart_extract(x: HirzRep, nu: NuPoint) -> AdhmData:
    """Read the ADHM datum of x in the chart at nu.

    Requires c0 = c1 and A_nu invertible.  The extracted pair commutes
    whenever the relations hold with I_nu J = 0; a nonzero commutator
    (equal to I_nu J when the relations hold) raises RelationsViolated.
    """
    if x.c0 != x.c1:
        raise ShapeMismatch("chart extraction needs c0 = c1")
    a_nu, d_nu, c_nu, _ = pencil_combos(x, nu)
    try:
        a_inv = invert(a_nu)
    except Singular:
        raise SingularAnu(f"A_nu singular at nu = {nu.to_json()}") from None
    try:
        return AdhmData(c=x.c0, b1=a_inv @ d_nu, b2=c_nu @ a_nu, e=x.J)
    except NotCommuting:
        raise RelationsViolated("extracted pair does not commute") from None


def transform_chart(a: AdhmData, from_nu: NuPoint, to_nu: NuPoint, n: int) -> AdhmData:
    """Express a chart datum in another chart of the same surface.

    The transition map of the surface is exactly embed-then-extract; raises
    SingularAnu when the cycle meets the fiber removed by to_nu.
    """
    return chart_extract(chart_embed(a, from_nu, n), to_nu)


def monomial_rows(
    b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix, d: int
) -> RationalMatrix:
    """The rows e . b1^a b2^b for (a, b) in monomials_upto(d), in that order.

    Each row extends an earlier one by one factor: (a, b) is (a - 1, b)
    times b1, and (0, b) is (0, b - 1) times b2.  For a commuting pair the
    row of m is e . m(b1, b2), so a polynomial f with coefficient vector v
    evaluates to e . f(b1, b2) = v @ monomial_rows(b1, b2, e, deg f).

    The walk runs on integers: b1 and b2 are each cleared to one common
    denominator, and every row carries its integer numerators with its
    own denominator until the Fraction rows are built at the end.
    """
    c = e.cols
    steps = []  # (integer columns, denominator) of b1 and of b2
    for mat in (b1, b2):
        nums, den = _cleared(x for row in mat.data for x in row)
        steps.append(([nums[j::c] for j in range(c)], den))
    rows: dict = {}
    for m in monomials_upto(d):
        a, b = m
        if m == (0, 0):
            rows[m] = _cleared(e.data[0])
            continue
        prev, den = rows[(a - 1, b)] if a else rows[(0, b - 1)]
        cols, step = steps[0] if a else steps[1]
        rows[m] = [sum(map(mul, prev, col)) for col in cols], den * step
    return RationalMatrix.from_rows(
        [[_over(x, den) for x in row] for row, den in rows.values()], cols=c
    )


def closure_scan(b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix):
    """Greedy scan of the covector closure.

    Keeps the rows of monomial_rows up to total degree c - 1 that grow the
    span of the rows before them: the pivot columns of its transpose's
    reduced echelon form.  Returns (monomials kept, kept rows as a
    matrix).  The closure of a costable datum of size c is complete within
    total degree c - 1.
    """
    c = b1.rows
    d = max(c - 1, 0)
    mons = monomials_upto(d)
    ev = monomial_rows(b1, b2, e, d)
    _, pivots = rref(ev.transpose())
    return [mons[p] for p in pivots], RationalMatrix.from_rows(
        [ev.data[p] for p in pivots], cols=c
    )


def closure_rank(b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix) -> int:
    kept, _ = closure_scan(b1, b2, e)
    return len(kept)


def canonical_form(a: AdhmData) -> AdhmData:
    """Gauge-canonical representative of a costable datum.

    The rows e . b1^alpha b2^beta picked greedily in monomial order form a
    basis; rewriting in that basis sends gauge-equivalent data to the same
    triple (the selected monomial set is gauge-invariant), with e becoming
    the first standard covector.
    """
    kept, t = closure_scan(a.b1, a.b2, a.e)
    if len(kept) < a.c:
        raise NotCostable(f"closure rank {len(kept)} < {a.c}")
    t_inv = invert(t)
    return AdhmData(c=a.c, b1=t @ a.b1 @ t_inv, b2=t @ a.b2 @ t_inv, e=a.e @ t_inv)


def build_nested_adhm(small: AdhmData, big: AdhmData, incl: RationalMatrix) -> NestedAdhmData:
    """Assemble the nested datum from an intertwining inclusion.

    incl: k^{c'} -> k^c must be injective and satisfy
        big.b_i incl = incl small.b_i   and   big.e incl = small.e.
    The quotient projection is the canonical one (identity on the free
    coordinates of incl's column space), and the induced qb_i are checked
    to commute and to intertwine quot.
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
    quot = kernel_basis(incl.transpose()).transpose()
    s = big.c - small.c
    if quot.rows != s:
        raise NotInjective("cokernel has wrong dimension")
    # quot restricted to the free columns is the identity; use them as a section
    free = []
    for i in range(quot.rows):
        for j in range(quot.cols):
            if quot[i, j] == 1 and all(quot[k, j] == (1 if k == i else 0) for k in range(s)):
                free.append(j)
                break
    section = RationalMatrix.zeros(big.c, s) if s == 0 else RationalMatrix(
        [[Fraction(1) if j < len(free) and free[j] == i else Fraction(0) for j in range(s)] for i in range(big.c)]
    )
    qb = []
    for b in (big.b1, big.b2):
        q = quot @ b @ section
        if not (q @ quot - quot @ b).is_zero():
            raise NotIntertwining("quotient map is not well-defined")
        qb.append(q)
    if not (qb[0] @ qb[1] - qb[1] @ qb[0]).is_zero():
        raise NotCommuting("[qb1, qb2] != 0")
    return NestedAdhmData(small=small, big=big, incl=incl, quot=quot, qb1=qb[0], qb2=qb[1])
