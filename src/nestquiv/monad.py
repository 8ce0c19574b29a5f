"""Symbolic two-term monad attached to a representation in a chart.

Entries live in the bigraded coordinate ring with variables y1, y2 of
bidegree (0,1), s_e of bidegree (1,-n) and s_inf of bidegree (1,0).  With
the rotated coordinates

    y1_nu = nu1 y1 + nu2 y2,      y2_nu = -nu2 y1 + nu1 y2,

the complex is

    O(0,-1)^c  --alpha-->  O(1,-1)^c + O^c + O  --beta-->  O(1,0)^c

    alpha = [P; Q; R],        beta = [Q | -P | J^T s_inf],

    P = y2_nu^n s_e Id + b2^T s_inf,   Q = y1_nu Id + b1^T y2_nu,   R = -I_nu^T y2_nu,

with rational blocks b1 = A_nu^{-1} D_nu, b2 = C_nu A_nu, I_nu and J.  For
any data beta . alpha collapses to s_inf y2_nu (b2 b1 - b1 b2 - I_nu J)^T,
and s_inf y2_nu is a nonzero polynomial in every chart, so the rational
kernel `MonadComplex.composite` decides whether it vanishes.  The quiver
relations force this to vanish; the exact vanishing condition across all
charts is the smaller list of combinations returned by `complex_residuals`
(the relations imply it, not conversely).  Building the monad needs no
relations, only A_nu invertible, which is what makes it usable as a
detector for broken data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb

from .chart import NuPoint, chart_blocks
from .errors import ExcludedLocus, ShapeMismatch
from .quiver import HirzRep
from .ratmat import RationalMatrix, _common, rank, rat, rat_str

_VAR_NAMES = ("y1", "y2", "se", "sinf")


@dataclass(frozen=True)
class CoxPoly:
    """Polynomial in y1, y2, s_e, s_inf with rational coefficients.

    Terms are ((e1, e2, e3, e4), coefficient), sorted by exponent tuple,
    zero coefficients dropped.
    """

    terms: tuple

    @staticmethod
    def from_dict(d: dict) -> "CoxPoly":
        items = tuple((tuple(m), rat(v)) for m, v in sorted(d.items()) if v != 0)
        return CoxPoly(terms=items)

    @staticmethod
    def zero() -> "CoxPoly":
        return CoxPoly(terms=())

    @staticmethod
    def constant(v) -> "CoxPoly":
        return CoxPoly.from_dict({(0, 0, 0, 0): rat(v)})

    @staticmethod
    def variable(i: int) -> "CoxPoly":
        m = [0, 0, 0, 0]
        m[i] = 1
        return CoxPoly.from_dict({tuple(m): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CoxPoly") -> "CoxPoly":
        d = dict(self.terms)
        for m, v in other.terms:
            d[m] = d.get(m, Fraction(0)) + v
        return CoxPoly.from_dict(d)

    def __neg__(self) -> "CoxPoly":
        return CoxPoly(terms=tuple((m, -v) for m, v in self.terms))

    def __sub__(self, other: "CoxPoly") -> "CoxPoly":
        return self + (-other)

    def scale(self, v) -> "CoxPoly":
        v = rat(v)
        if v == 0:
            return CoxPoly.zero()
        return CoxPoly(terms=tuple((m, c * v) for m, c in self.terms))

    __rmul__ = scale  # v * p for a rational v

    def __mul__(self, other: "CoxPoly") -> "CoxPoly":
        return cox_mul(self, other)

    def __pow__(self, k: int) -> "CoxPoly":
        out = CoxPoly.constant(1)
        for _ in range(k):
            out = cox_mul(out, self)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = [rat_str(c)] if c != 1 or all(e == 0 for e in m) else []
            for name, e in zip(_VAR_NAMES, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self) -> list:
        return [{"exponents": list(m), "coeff": rat_str(c)} for m, c in self.terms]


def cox_mul(f: CoxPoly, g: CoxPoly) -> CoxPoly:
    d: dict = {}
    for m, a in f.terms:
        for q, b in g.terms:
            key = tuple(x + y for x, y in zip(m, q))
            d[key] = d.get(key, Fraction(0)) + a * b
    return CoxPoly.from_dict(d)


def _ratio(v) -> tuple[int, int]:
    """A coordinate v as integers (p, q), v = p / q in lowest terms: an int
    as (v, 1), any other value read by `rat`, for its value or its error."""
    if type(v) is int:
        return v, 1
    v = rat(v)
    return v.numerator, v.denominator


def _point(pt) -> tuple:
    """The coordinates (y1, y2, s_e, s_inf) of a point as integer pairs
    (`_ratio`); any other number of coordinates raises ShapeMismatch once
    they are read."""
    vals = tuple(map(_ratio, pt))
    if len(vals) != 4:
        raise ShapeMismatch(f"a point has the four coordinates y1, y2, s_e, s_inf, got {len(vals)}")
    return vals


Y1 = CoxPoly.variable(0)
Y2 = CoxPoly.variable(1)
SE = CoxPoly.variable(2)
SINF = CoxPoly.variable(3)


def _rotation(nu: NuPoint, y1, y2) -> tuple:
    """The rotated coordinates (y1_nu, y2_nu) of the chart nu."""
    return nu.nu1 * y1 + nu.nu2 * y2, nu.nu1 * y2 - nu.nu2 * y1


def _forms(nu: NuPoint, n: int, y1, y2, se, sinf) -> tuple:
    """The four forms (y1_nu, y2_nu, y2_nu^n s_e, s_inf) of the chart nu on
    the surface of index n, from the CoxPoly variables.  A fiber reads
    them in integers (`fiber_ranks`)."""
    y1n, y2n = _rotation(nu, y1, y2)
    return y1n, y2n, y2n**n * se, sinf


@dataclass(frozen=True)
class MonadComplex:
    """The monad in the chart nu as its blocks b1, b2, I_nu (c x 1), J (1 x c);
    its forms (y1_nu, y2_nu, y2_nu^n s_e, s_inf) as CoxPoly are read from nu
    and n, and alpha and beta as CoxPoly matrices, (2c+1) x c and
    c x (2c+1), are the derived `Amat` and `Bmat`, and the rational kernel
    of beta . alpha the derived `composite`."""

    n: int
    c: int
    nu: NuPoint
    b1: RationalMatrix
    b2: RationalMatrix
    i_nu: RationalMatrix
    J: RationalMatrix

    @cached_property
    def forms(self) -> tuple:
        return _forms(self.nu, self.n, Y1, Y2, SE, SINF)

    @cached_property
    def _alpha_beta(self) -> tuple:
        blocks = (self.b1.data, self.b2.data, self.i_nu.data, self.J.data)
        return tuple(tuple(map(tuple, rows)) for rows in _assemble(blocks, self.forms))

    @cached_property
    def _integer_blocks(self) -> tuple:
        """b1, b2, I_nu and J as integer rows over their common denominator,
        and that denominator: read once for all fibers."""
        return _common((self.b1, self.b2, self.i_nu, self.J))

    @cached_property
    def _q_full(self) -> dict:
        """Whether Q is invertible, per fiber base point (p1, q1, p2, q2)
        with (y1, y2) = (p1/q1, p2/q2): filled by `fiber_ranks`."""
        return {}

    Amat = property(lambda self: self._alpha_beta[0])
    Bmat = property(lambda self: self._alpha_beta[1])

    @cached_property
    def composite(self) -> RationalMatrix:
        """The rational kernel b2 b1 - b1 b2 - I_nu J of beta . alpha, which
        is s_inf y2_nu times its transpose: zero exactly when the composite
        is, since s_inf y2_nu is a nonzero polynomial in every chart."""
        return self.b2 @ self.b1 - self.b1 @ self.b2 - self.i_nu @ self.J

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "nu": self.nu.to_json(),
            "Amat": [[p.to_json() for p in row] for row in self.Amat],
            "Bmat": [[p.to_json() for p in row] for row in self.Bmat],
        }


def _shifted(block, diag, off) -> list:
    """diag Id + block^T off as row lists, for a square block as row lists:
    P from (b2, y2_nu^n s_e, s_inf) and Q from (b1, y1_nu, y2_nu)."""
    c = len(block)
    out = [[block[j][i] * off for j in range(c)] for i in range(c)]
    for i in range(c):
        out[i][i] = out[i][i] + diag
    return out


def _assemble(blocks, forms):
    """alpha = [P; Q; R] and beta = [Q | -P | J^T s_inf] as row lists, from
    the blocks (b1, b2, I_nu, J) as row lists and the values of the four
    forms: CoxPoly or scalars at one point."""
    y1n, y2n, lead, sinf = forms
    b1, b2, i_nu, j_row = blocks
    c = len(b1)
    p, q = _shifted(b2, lead, sinf), _shifted(b1, y1n, y2n)
    r = [-i_nu[j][0] * y2n for j in range(c)]
    beta = [q[i] + [-v for v in p[i]] + [j_row[0][i] * sinf] for i in range(c)]
    return p + q + [r], beta


def build_monad(x: HirzRep, nu: NuPoint) -> MonadComplex:
    """Monad of x in the chart at nu: the blocks of chart_blocks.  Needs
    c0 = c1 and A_nu invertible; the relations are NOT assumed
    (check_complex is the relation test)."""
    b1, b2, i_nu = chart_blocks(x, nu)
    return MonadComplex(n=x.n, c=x.c0, nu=nu, b1=b1, b2=b2, i_nu=i_nu, J=x.J)


def check_complex(m: MonadComplex):
    """beta . alpha as a c x c CoxPoly matrix, s_inf y2_nu times the
    transpose of b2 b1 - b1 b2 - I_nu J; all-zero iff the chart's
    combination C_nu D_nu - A_nu^{-1} D_nu C_nu A_nu - I_nu J vanishes
    (`MonadComplex.composite`)."""
    k = m.composite
    form = cox_mul(SINF, _rotation(m.nu, Y1, Y2)[1])
    return [[form.scale(k[j, i]) for j in range(m.c)] for i in range(m.c)]


def complex_residuals(x: HirzRep) -> list[RationalMatrix]:
    """The n combinations whose vanishing makes the composite zero in every
    chart at once.

    Multiplying the composite kernel by A_nu clears the inverse and leaves a
    polynomial family in nu whose coefficients are, for q = 1 .. n,

        binom(n-1, q-1) (A2 C_q A1 - A1 C_q A2)
            - binom(n-2, q-1) A2 I_q J - binom(n-2, q-2) A1 I_{q-1} J,

    with the I terms dropped where the index leaves 1 .. n-1.  The quiver
    relations imply these vanish, but not conversely: data whose relation
    defects T_q = C_q A1 - C_{q+1} A2 - I_q J and S_q = A1 C_q - A2 C_{q+1}
    satisfy the intertwinings A_i T_q = S_q A_i still build an honest
    complex, so no chart can see them.
    """
    if x.c0 != x.c1:
        raise ShapeMismatch("complex residuals need c0 = c1")
    out = []
    for q in range(1, x.n + 1):
        cq = x.C[q - 1]
        m = (x.A2 @ cq @ x.A1 - x.A1 @ cq @ x.A2).scale(Fraction(comb(x.n - 1, q - 1)))
        if q <= x.n - 1:
            m = m - (x.A2 @ x.I[q - 1] @ x.J).scale(Fraction(comb(x.n - 2, q - 1)))
        if x.n >= 2 and q >= 2:
            m = m - (x.A1 @ x.I[q - 2] @ x.J).scale(Fraction(comb(x.n - 2, q - 2)))
        out.append(m)
    return out


def _full(rows) -> bool:
    """Whether a square block, as integer rows, is invertible."""
    return rank(RationalMatrix._wrap(rows, 1, len(rows))) == len(rows)


def fiber_ranks(m: MonadComplex, pt) -> tuple[int, int]:
    """Exact ranks of (alpha, beta) at a point (y1, y2, s_e, s_inf).

    Errors in order: those of `_point`, then ExcludedLocus for y1 = y2 = 0
    or s_e = s_inf = 0, which lie outside the surface.

    alpha = [P; Q; R] has c columns and holds the rows of Q, and
    beta = [Q | -P | J^T s_inf] has c rows and holds the columns of Q, so
    an invertible Q gives exactly (c, c); so does an invertible P.  Q is
    read first, then P, and alpha and beta are ranked only where both are
    singular.  A block whose off term vanishes is a multiple of the identity
    and is not ranked: Q = y1_nu Id where y2_nu = 0, full since y1_nu != 0
    there, and P = y2_nu^n s_e Id where s_inf = 0, full exactly where that
    is nonzero.  Q depends on the base point (y1, y2) only, so its verdict
    is kept on m per base point (`MonadComplex._q_full`).

    Everything is read in integers: with nu = (u1, u2) / g and each
    coordinate p / q, (y1_nu, y2_nu) are integers over D = g q1 q2, and
    (y2_nu^n s_e, s_inf) integers over D^n q_e q_inf.  Once the identity
    terms carry the blocks' denominator d, Q and R are scaled by one nonzero
    integer and P and the J column of beta by another: a scaling of row
    blocks of alpha and of column blocks of beta, which keeps every rank.
    """
    blocks, d = m._integer_blocks
    c = m.c
    (u1, u2), g = m.nu._num, m.nu._den
    (p1, q1), (p2, q2), (pe, qe), (pi, qi) = _point(pt)
    if p1 == 0 and p2 == 0:
        raise ExcludedLocus("y1 = y2 = 0 is not on the surface")
    if pe == 0 and pi == 0:
        raise ExcludedLocus("s_e = s_inf = 0 is not on the surface")
    y1n = u1 * p1 * q2 + u2 * p2 * q1
    y2n = u1 * p2 * q1 - u2 * p1 * q2
    base = (p1, q1, p2, q2)
    q_full = m._q_full.get(base)
    if q_full is None:
        q_full = m._q_full[base] = y2n == 0 or _full(_shifted(blocks[0], d * y1n, y2n))
    if q_full:
        return c, c
    lead, sinf = y2n**m.n * pe * qi, pi * (g * q1 * q2) ** m.n * qe
    p_full = lead != 0 if sinf == 0 else _full(_shifted(blocks[1], d * lead, sinf))
    if p_full:
        return c, c
    alpha, beta = _assemble(blocks, (d * y1n, y2n, d * lead, sinf))
    return rank(RationalMatrix._wrap(alpha, 1, c)), rank(RationalMatrix._wrap(beta, 1, 2 * c + 1))
