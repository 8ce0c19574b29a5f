"""Representations of the length-n surface quiver and its framed enhancement.

A `HirzRep` is a representation of the quiver with two vertices of dimensions
(c0, c1), arrows A1, A2: V0 -> V1, return arrows C1..Cn: V1 -> V0, framing
row J: V0 -> W = k, and (for n >= 2) framing columns I1..I_{n-1}: W -> V0.
An `EnhRep` glues a c-dimensional left copy to a (c - c')-dimensional right
copy through surjections F1, F2; the right copy has no framing, so no I_q J.

Relation residuals are returned as matrices, in a frozen documented order,
so "all relations hold" is exactly "every residual is zero".  Both classes
are immutable, so the relation verdict `_nonzero_residuals` is computed on
first read and kept, unless a construction recorded it (`_keep_relations`).

Sign convention, frozen package-wide: the mixed relation reads

    C_q A1 - C_{q+1} A2 - I_q J = 0        (q = 1 .. n-1)

This is the sign under which the monad built in `monad` composes to zero;
see test_monad for the locked check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ShapeMismatch, Singular
from .ratmat import RationalMatrix, _json_shaped, invert, json_count, json_field


def _expect_shape(m: RationalMatrix, rows: int, cols: int, name: str):
    if m.rows != rows or m.cols != cols:
        raise ShapeMismatch(f"{name} must be {rows}x{cols}, got {m.rows}x{m.cols}")


@dataclass(frozen=True)
class HirzRep:
    """Representation datum (A1, A2, C1..Cn, I1..I_{n-1}, J).

    I is the empty list for n = 1.  J has shape 1 x c0, each I_q is c0 x 1.
    """

    n: int
    c0: int
    c1: int
    A1: RationalMatrix
    A2: RationalMatrix
    C: tuple[RationalMatrix, ...]
    I: tuple[RationalMatrix, ...]
    J: RationalMatrix

    def __post_init__(self):
        if self.n < 1:
            raise ShapeMismatch("n must be >= 1")
        object.__setattr__(self, "C", tuple(self.C))
        object.__setattr__(self, "I", tuple(self.I))
        _expect_shape(self.A1, self.c1, self.c0, "A1")
        _expect_shape(self.A2, self.c1, self.c0, "A2")
        if len(self.C) != self.n:
            raise ShapeMismatch(f"need {self.n} C-matrices, got {len(self.C)}")
        for t, Ct in enumerate(self.C, start=1):
            _expect_shape(Ct, self.c0, self.c1, f"C{t}")
        if len(self.I) != max(self.n - 1, 0):
            raise ShapeMismatch(f"need {self.n - 1} I-matrices, got {len(self.I)}")
        for q, Iq in enumerate(self.I, start=1):
            _expect_shape(Iq, self.c0, 1, f"I{q}")
        _expect_shape(self.J, 1, self.c0, "J")

    @cached_property
    def _nonzero_residuals(self) -> tuple[int, ...]:
        """The relation verdict: the indices of the nonzero hirz_residuals."""
        return tuple(i for i, r in enumerate(hirz_residuals(self)) if not r.is_zero())

    @cached_property
    def _kept(self) -> dict:
        """The readings `stability` keeps on this object: the verdict, the
        conversions' chart and each chart reading."""
        return {}

    def to_json(self) -> dict:
        out = {"n": self.n, "c0": self.c0, "c1": self.c1}
        out["A1"] = self.A1.to_json()
        out["A2"] = self.A2.to_json()
        for t, Ct in enumerate(self.C, start=1):
            out[f"C{t}"] = Ct.to_json()
        for q, Iq in enumerate(self.I, start=1):
            out[f"I{q}"] = Iq.to_json()
        out["J"] = self.J.to_json()
        return out

    @staticmethod
    def from_json(obj: dict) -> "HirzRep":
        """Each matrix's declared shape is checked against the counts
        before the matrix is built; c0 = 0 < c1, where no entry bounds c1,
        is refused."""
        n, c0, c1 = (json_count(json_field(obj, k)) for k in ("n", "c0", "c1"))
        if c0 == 0 < c1:
            raise ShapeMismatch(f"c0 = 0 needs c1 = 0, got c1 = {c1}")
        return HirzRep(
            n=n,
            c0=c0,
            c1=c1,
            A1=_json_shaped(obj, "A1", c1, c0),
            A2=_json_shaped(obj, "A2", c1, c0),
            C=tuple(_json_shaped(obj, f"C{t}", c0, c1) for t in range(1, n + 1)),
            I=tuple(_json_shaped(obj, f"I{q}", c0, 1) for q in range(1, n)),
            J=_json_shaped(obj, "J", 1, c0),
        )


def _right_dim(c: int, cp: int) -> int:
    """The right part's dimension c - c', for 0 <= c' < c."""
    if not 0 <= cp < c:
        raise ShapeMismatch(f"need 0 <= cp < c, got cp={cp}, c={c}")
    return c - cp


@dataclass(frozen=True)
class EnhRep:
    """Enhanced representation: left HirzRep of size c plus a right copy of
    size c - c' and the connecting surjection data F1, F2."""

    left: HirzRep
    cp: int
    Ap1: RationalMatrix
    Ap2: RationalMatrix
    Cp: tuple[RationalMatrix, ...]
    F1: RationalMatrix
    F2: RationalMatrix

    def __post_init__(self):
        object.__setattr__(self, "Cp", tuple(self.Cp))
        c = self.left.c0
        if self.left.c1 != c:
            raise ShapeMismatch("enhanced left part needs c0 = c1")
        s = _right_dim(c, self.cp)
        _expect_shape(self.Ap1, s, s, "Ap1")
        _expect_shape(self.Ap2, s, s, "Ap2")
        if len(self.Cp) != self.left.n:
            raise ShapeMismatch("wrong number of Cp matrices")
        for t, Ct in enumerate(self.Cp, start=1):
            _expect_shape(Ct, s, s, f"Cp{t}")
        _expect_shape(self.F1, s, c, "F1")
        _expect_shape(self.F2, s, c, "F2")

    @property
    def n(self) -> int:
        return self.left.n

    @property
    def c(self) -> int:
        return self.left.c0

    @cached_property
    def _nonzero_residuals(self) -> tuple[int, ...]:
        """The relation verdict: the left part's (kept on `left`), then the
        indices of the right part's nonzero enh_residuals."""
        left = self.left._nonzero_residuals
        k = 1 if self.n == 1 else 2 * (self.n - 1)
        return left + tuple(k + i for i, r in enumerate(_right_residuals(self)) if not r.is_zero())

    @cached_property
    def _kept(self) -> dict:
        """The readings kept on this object: the answer to (C1)
        (`stability.is_theta_stable`) and the small ideal per chart
        (`correspondence._small_ideal`).  The left part's are on `left`."""
        return {}

    def to_json(self) -> dict:
        """The left part's JSON with "c" for "c0"/"c1", then the right part."""
        out = self.left.to_json()
        del out["c0"], out["c1"]
        out.update(c=self.c, cp=self.cp, Ap1=self.Ap1.to_json(), Ap2=self.Ap2.to_json())
        for t, Ct in enumerate(self.Cp, start=1):
            out[f"Cp{t}"] = Ct.to_json()
        out.update(F1=self.F1.to_json(), F2=self.F2.to_json())
        return out

    @staticmethod
    def from_json(obj: dict) -> "EnhRep":
        """Like HirzRep.from_json, each declared shape is checked first."""
        c = json_count(json_field(obj, "c"))
        left = HirzRep.from_json({**obj, "c0": c, "c1": c})
        cp = json_count(json_field(obj, "cp"))
        s = _right_dim(c, cp)
        return EnhRep(
            left=left,
            cp=cp,
            Ap1=_json_shaped(obj, "Ap1", s, s),
            Ap2=_json_shaped(obj, "Ap2", s, s),
            Cp=tuple(_json_shaped(obj, f"Cp{t}", s, s) for t in range(1, left.n + 1)),
            F1=_json_shaped(obj, "F1", s, c),
            F2=_json_shaped(obj, "F2", s, c),
        )


@dataclass(frozen=True)
class GaugeElement:
    """(g1, g2, g3, g4), each invertible; the inverses inv1..inv4 are
    computed eagerly, which checks invertibility."""

    g1: RationalMatrix
    g2: RationalMatrix
    g3: RationalMatrix | None = None
    g4: RationalMatrix | None = None
    inv1: RationalMatrix = field(init=False, repr=False, compare=False)
    inv2: RationalMatrix = field(init=False, repr=False, compare=False)
    inv3: RationalMatrix | None = field(init=False, repr=False, compare=False)
    inv4: RationalMatrix | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for k, g in enumerate((self.g1, self.g2, self.g3, self.g4), start=1):
            try:
                object.__setattr__(self, f"inv{k}", None if g is None else invert(g))
            except Singular:
                raise Singular("gauge element must be invertible") from None


def _pencil_residuals(A1: RationalMatrix, A2: RationalMatrix, C) -> list[RationalMatrix]:
    """Residuals of the unframed relations, in the frozen order.

    n = 1:  [A1 C1 A2 - A2 C1 A1].
    n >= 2: first the n-1 residuals A1 C_q - A2 C_{q+1}, then the n-1
    residuals C_q A1 - C_{q+1} A2, both for q = 1 .. n-1.
    """
    if len(C) == 1:
        return [A1 @ C[0] @ A2 - A2 @ C[0] @ A1]
    pairs = list(zip(C, C[1:]))
    return [A1 @ cq - A2 @ cr for cq, cr in pairs] + [cq @ A1 - cr @ A2 for cq, cr in pairs]


def hirz_residuals(x: HirzRep) -> list[RationalMatrix]:
    """Relation residuals of the plain quiver, in the frozen order: those of
    `_pencil_residuals`, with I_q J subtracted from the n-1 residuals
    C_q A1 - C_{q+1} A2 of the second family (n >= 2)."""
    out = _pencil_residuals(x.A1, x.A2, x.C)
    for q, iq in enumerate(x.I, start=x.n - 1):
        out[q] = out[q] - iq @ x.J
    return out


def enh_residuals(x: EnhRep) -> list[RationalMatrix]:
    """Residuals of every enhanced relation, in the frozen order.

    The left-part residuals come first and equal hirz_residuals(x.left)
    entry by entry; then the unframed right copy's, `_pencil_residuals`
    of (Ap1, Ap2, Cp): the left formulas without I_q J; then
        F1 I_q (q = 1..n-1; none for n = 1),
        F2 A_p - Ap_p F1 (p = 1, 2),
        F1 C_t - Cp_t F2 (t = 1..n).
    """
    return hirz_residuals(x.left) + _right_residuals(x)


def _right_residuals(x: EnhRep) -> list[RationalMatrix]:
    """The enh_residuals after the left part's, in the frozen order."""
    l = x.left
    out = _pencil_residuals(x.Ap1, x.Ap2, x.Cp)
    out += [x.F1 @ iq for iq in l.I]
    out.append(x.F2 @ l.A1 - x.Ap1 @ x.F1)
    out.append(x.F2 @ l.A2 - x.Ap2 @ x.F1)
    out += [x.F1 @ ct - cpt @ x.F2 for ct, cpt in zip(l.C, x.Cp)]
    return out


def _require_enhanced(x, reader: str) -> None:
    """ShapeMismatch, naming reader, unless x is an EnhRep."""
    if not isinstance(x, EnhRep):
        raise ShapeMismatch(f"{reader} needs an EnhRep, got {type(x).__name__}")


def _keep_relations(x: HirzRep | EnhRep, bad: tuple[int, ...] | None):
    """x, with bad kept as its relation verdict `_nonzero_residuals`; None
    keeps nothing.  The one writer of a verdict x did not compute, at the
    sites whose construction proves it:

    - `chart.chart_embed` records (): its arrows are polynomials in a
      commuting pair, so each unframed relation is an identity of
      polynomials, and every I_q is zero;
    - `correspondence.nested_to_rep` records () on a left part so embedded
      and a right part of the quotient pair's pencil arrows: quot b_i =
      qb_i quot with quot onto carries each identity to the quotient, and
      gives [qb1, qb2] = 0.  It rests on the nesting check
      `ideals._inclusion`;
    - `act` carries the verdict kept on x to g.x: each residual moves by
      conjugation, R -> g_i R g_j^-1, so keeps its index and whether it is
      zero."""
    if bad is not None:
        x.__dict__["_nonzero_residuals"] = bad
    return x


def act(g: GaugeElement, x: HirzRep | EnhRep):
    """Base-change action.  On the left part (g1 on V0, g2 on V1):
    A -> g2 A g1^-1, C -> g1 C g2^-1, I -> g1 I, J -> J g1^-1; on the right
    part (g3, g4) likewise, and F1 -> g3 F1 g1^-1, F2 -> g4 F2 g2^-1.
    ShapeMismatch where g does not fit x.  A relation verdict kept on x is
    kept on g.x (`_keep_relations`).
    """
    if isinstance(x, HirzRep):
        if g.g1.rows != x.c0 or g.g2.rows != x.c1:
            raise ShapeMismatch("gauge sizes do not match representation")
        y = HirzRep(
            n=x.n,
            c0=x.c0,
            c1=x.c1,
            A1=g.g2 @ x.A1 @ g.inv1,
            A2=g.g2 @ x.A2 @ g.inv1,
            C=tuple(g.g1 @ Ct @ g.inv2 for Ct in x.C),
            I=tuple(g.g1 @ Iq for Iq in x.I),
            J=x.J @ g.inv1,
        )
    else:
        if g.g3 is None or g.g4 is None:
            raise ShapeMismatch("enhanced action needs all four gauge blocks")
        if g.g3.rows != x.c - x.cp or g.g4.rows != x.c - x.cp:
            raise ShapeMismatch("gauge sizes do not match representation")
        y = EnhRep(
            left=act(g, x.left),
            cp=x.cp,
            Ap1=g.g4 @ x.Ap1 @ g.inv3,
            Ap2=g.g4 @ x.Ap2 @ g.inv3,
            Cp=tuple(g.g3 @ Ct @ g.inv4 for Ct in x.Cp),
            F1=g.g3 @ x.F1 @ g.inv1,
            F2=g.g4 @ x.F2 @ g.inv2,
        )
    return _keep_relations(y, x.__dict__.get("_nonzero_residuals"))
