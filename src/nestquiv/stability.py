"""Stability: parameter cones, costability, the two-condition criterion,
kernel subrepresentations, and a brute-force oracle for torus-fixed data.

The criterion implemented by `is_theta_stable` is the chart-level one:
inside the parameter cone, an enhanced representation is stable iff

    (C1) F1 and F2 are surjective, and
    (C2) the left part is stable for the base cone,

and (C2) in turn reduces to: all I_q vanish (n >= 2), some sampled chart is
regular, and the extracted ADHM datum is costable (`is_gamma_stable`).
The cone checks compare cross-multiplied integers.  Costability is the
count of `_chart_reading`, the one reader of a chart, in the chart that
`_read_left` chooses.  The oracle re-derives verdicts directly from the
subrepresentation inequalities and is used by the test suite to
cross-check the chain on torus-fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .chart import AdhmData, NuPoint, _conversion_chart, chart_extract, closure_scan, find_regular_nu
from .errors import (
    ConeViolation,
    IrregularPencil,
    NotFixedForm,
    NotWellDefined,
    ShapeMismatch,
)
from .quiver import EnhRep, HirzRep, _require_enhanced
from .ratmat import RationalMatrix, _free_rows, kernel_basis, rank, rat


@dataclass(frozen=True)
class EnhThetaParam:
    """Enhanced-cone parameter (theta1, theta2, theta3, theta4)."""

    theta1: Fraction
    theta2: Fraction
    theta3: Fraction
    theta4: Fraction

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3", "theta4"):
            object.__setattr__(self, name, rat(getattr(self, name)))


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    witness: str | None = None
    nu: NuPoint | None = None

    def to_json(self) -> dict:
        return {
            "verdict": "stable" if self.stable else "unstable",
            "witness": self.witness,
            "nu": self.nu.to_json() if self.nu is not None else None,
        }


def _in_base_cone(t0: Fraction, t1: Fraction, c: int) -> bool:
    """t0 > 0 and -t0 < t1 < -(c-1)/c t0, cross-multiplied: with
    t_i = p_i / q_i over positive q_i, p0 > 0 and
    -p0 q1 < p1 q0 and c p1 q0 < -(c-1) p0 q1."""
    p0, q0, p1, q1 = t0.numerator, t0.denominator, t1.numerator, t1.denominator
    return p0 > 0 and -p0 * q1 < p1 * q0 and c * p1 * q0 < -(c - 1) * p0 * q1


def in_enh_cone(p: EnhThetaParam, c: int, cp: int) -> bool:
    """Strict membership in the enhanced cone for colengths c > cp >= 0:
    (theta1, theta2) in the base cone, theta3, theta4 < 0 and
    theta1 + theta2 + (theta3 + theta4)(c - cp) > 0, each compared in
    cross-multiplied integers."""
    if not 0 <= cp < c:
        raise ShapeMismatch("need 0 <= cp < c")
    if not _in_base_cone(p.theta1, p.theta2, c):
        return False
    (p1, q1), (p2, q2), (p3, q3), (p4, q4) = (
        (t.numerator, t.denominator) for t in (p.theta1, p.theta2, p.theta3, p.theta4)
    )
    if not (p3 < 0 and p4 < 0):
        return False
    return (p1 * q2 + p2 * q1) * q3 * q4 + (p3 * q4 + p4 * q3) * q1 * q2 * (c - cp) > 0


def default_theta(c: int, cp: int) -> EnhThetaParam:
    """A parameter in the interior of the enhanced cone, for 0 <= cp < c
    (ShapeMismatch otherwise).

    theta2 is the midpoint of the base interval; theta3 = theta4 =
    -1/(8c(c-cp)) keeps the sum condition at 1/(4c) > 0.
    """
    if not 0 <= cp < c:
        raise ShapeMismatch("need 0 <= cp < c")
    p = EnhThetaParam(
        Fraction(1),
        Fraction(-(2 * c - 1), 2 * c),
        Fraction(-1, 8 * c * (c - cp)),
        Fraction(-1, 8 * c * (c - cp)),
    )
    if not in_enh_cone(p, c, cp):
        raise ConeViolation("default parameter left the cone; file a bug")
    return p


def _closure_witness(r: int, c: int) -> str | None:
    """The witness that a covector closure of rank r in k^c is not full,
    None when it is."""
    return None if r == c else f"costability closure rank {r} < {c}"


def is_costable(b1: RationalMatrix, b2: RationalMatrix, e: RationalMatrix) -> StabilityVerdict:
    """Costability: the covector closure span{e b1^a b2^b} has full rank,
    the number of monomials `chart.closure_scan` keeps.  The inputs are read
    as an `AdhmData`: ShapeMismatch unless b1, b2 are c x c and e is 1 x c,
    then NotCommuting unless [b1, b2] = 0."""
    a = AdhmData(c=b1.rows, b1=b1, b2=b2, e=e)
    witness = _closure_witness(len(closure_scan(a.b1, a.b2, a.e).kept), a.c)
    return StabilityVerdict(stable=witness is None, witness=witness)


def _chart_reading(x: HirzRep, nu: NuPoint):
    """The closure scan of x's datum in the chart at nu, kept on x per
    chart (`quiver.HirzRep._kept`); nothing is kept when `chart.chart_extract`
    raises.  The one reader of a chart: its count is costability, its normal
    forms are the big ideal, and it restricts to the small one
    (`chart._Scan.restrict`).
    """
    scan = x._kept.get(nu)
    if scan is None:
        a = chart_extract(x, nu)
        scan = x._kept[nu] = closure_scan(a.b1, a.b2, a.e)
    return scan


def _pair_chart(x: HirzRep, chart: NuPoint) -> NuPoint:
    """The conversions' chart of x (`chart._conversion_chart`), given
    chart, the first regular chart of its pencil; kept on x
    (`quiver.HirzRep._kept`)."""
    kept = x._kept
    at = kept.get("conversion")
    if at is None:
        at = kept["conversion"] = _conversion_chart(x.A1, x.A2, chart)
    return at


def is_gamma_stable(x: HirzRep) -> StabilityVerdict:
    """Base-cone stability of a plain representation with c0 = c1
    (ShapeMismatch otherwise), reporting the first regular chart.

    The checks in verdict order: nonzero I (n >= 2), pencil regularity
    (`find_regular_nu`), then costability of the datum (`_read_left`;
    `chart.chart_extract` raises RelationsViolated unless it commutes).
    The verdict is kept on x (`quiver.HirzRep._kept`); errors are not kept.
    """
    if x.c0 != x.c1:
        raise ShapeMismatch("stability needs c0 = c1")
    verdict = x._kept.get("left")
    if verdict is None:
        verdict = x._kept["left"] = _read_left(x)
    return verdict


def _read_left(x: HirzRep) -> StabilityVerdict:
    """`is_gamma_stable`'s reading of x, which reports the first regular
    chart nu.  Costability is counted in the conversions' chart
    (`_pair_chart`) where x's relations hold, its verdict
    `quiver.HirzRep._nonzero_residuals` computed on first read, so a
    conversion, which reads that chart, reads one chart; elsewhere at nu.

    The count is the same in both.  Once every I_q is zero and the
    relations hold, the gauge g2 = A_nu^-1 makes A_nu the identity, so
    A1 = (nu2 + nu1 b1) / rho and A2 = (nu1 - nu2 b1) / rho lie in k[b1],
    and the relations C_q A1 = C_(q+1) A2 give C_q = b2 A1^(q-1) A2^(n-q):
    x is the embedding of its datum at nu (`chart.chart_embed`).  Read in
    another regular chart mu, `chart.chart_blocks` gives A_mu = P(b1) and
    D_mu = Q(b1) for P = mu2 A1 + mu1 A2 and Q = mu1 A1 - mu2 A2, linear
    in b1, so b1' = P(b1)^-1 Q(b1), a Moebius function of b1, and, as the
    weights of C_mu are the binomial ones of P^(n-1),
    b2' = C_mu A_mu = b2 P(b1)^n; e = J in both.  P(b1) is invertible,
    so its inverse is a polynomial in b1: b1', b2' generate the algebra
    b1, b2 do, and the closures of J under the two are one space."""
    if any(not iq.is_zero() for iq in x.I):
        return StabilityVerdict(stable=False, witness="nonzero I")
    try:
        nu = find_regular_nu(x.A1, x.A2)
    except IrregularPencil:
        return StabilityVerdict(stable=False, witness="irregular pencil")
    at = _pair_chart(x, nu) if x._nonzero_residuals == () else nu
    witness = _closure_witness(len(_chart_reading(x, at).kept), x.c0)
    return StabilityVerdict(stable=witness is None, witness=witness, nu=nu)


def is_theta_stable(x: EnhRep, p: EnhThetaParam) -> StabilityVerdict:
    """Two-condition stability test inside the enhanced cone.

    Errors in order: ShapeMismatch unless x is an EnhRep, then ConeViolation
    outside the cone.  The verdict: (C1), the first of F1, F2 that is not
    surjective, then (C2), the left part's verdict (`is_gamma_stable`), its
    witness prefixed.  The answer to (C1) is kept on x
    (`quiver.EnhRep._kept`)."""
    _require_enhanced(x, "is_theta_stable")
    if not in_enh_cone(p, x.c, x.cp):
        raise ConeViolation("parameter outside the enhanced cone")
    kept = x._kept
    if "C1" not in kept:
        s = x.c - x.cp
        kept["C1"] = next((name for name, f in (("F1", x.F1), ("F2", x.F2)) if rank(f) != s), None)
    if kept["C1"] is not None:
        return StabilityVerdict(stable=False, witness=f"(C1) {kept['C1']}")
    verdict = is_gamma_stable(x.left)
    if not verdict.stable:
        verdict = replace(verdict, witness=f"(C2) {verdict.witness}")
    return verdict


def kernel_subrep(x: EnhRep) -> HirzRep:
    """Restriction of the left part to (ker F1, ker F2), the tests' oracle
    for the small ideal of `correspondence._small_ideal`.

    Well-defined because A_i(ker F1) <= ker F2, C_t(ker F2) <= ker F1 and
    Im I_q <= ker F1 whenever the intertwining relations hold; violations
    raise NotWellDefined, and any x that is not an EnhRep ShapeMismatch.
    Bases are the canonical kernel bases, so the output is deterministic.
    A kernel basis K is the identity at its free rows, so the only X with
    K X = M is M at those rows: each arrow is read there and checked by one
    product.
    """
    _require_enhanced(x, "kernel_subrep")
    k1 = kernel_basis(x.F1)
    k2 = kernel_basis(x.F2)
    free1, free2 = _free_rows(k1), _free_rows(k2)
    l = x.left

    def read(k: RationalMatrix, free: list[int], m: RationalMatrix, message: str):
        out = m.submatrix(free, range(m.cols))
        if k @ out != m:
            raise NotWellDefined(message)
        return out

    a1 = read(k2, free2, l.A1 @ k1, "A1 does not preserve the kernels")
    a2 = read(k2, free2, l.A2 @ k1, "A2 does not preserve the kernels")
    cs = tuple(
        read(k1, free1, ct @ k2, f"C{t} does not preserve the kernels")
        for t, ct in enumerate(l.C, start=1)
    )
    iqs = tuple(
        read(k1, free1, iq, f"I{q} does not land in ker F1") for q, iq in enumerate(l.I, start=1)
    )
    return HirzRep(
        n=l.n,
        c0=k1.cols,
        c1=k2.cols,
        A1=a1,
        A2=a2,
        C=cs,
        I=iqs,
        J=l.J @ k1,
    )


# -- brute-force oracle on torus-fixed data ---------------------------


def _check_fixed_form(mats) -> None:
    for m in mats:
        for j in range(m.cols):
            nz = sum(1 for i in range(m.rows) if m.num[i][j])
            if nz > 1:
                raise NotFixedForm("some column has more than one nonzero entry")


def _image_masks(mats, cols: int) -> list[int]:
    """For each coordinate subspace src of k^cols (a bitmask), the
    coordinates that the images of src under the maps mats touch: the
    union of the supports of their columns in src.  The maps send src
    into a coordinate subspace dst exactly when image[src] & ~dst == 0."""
    column = [0] * cols
    for m in mats:
        for i in range(m.rows):
            for j, v in enumerate(m.num[i]):
                if v:
                    column[j] |= 1 << i
    image = [0] * (1 << cols)
    for src in range(1, 1 << cols):
        low = src & -src
        image[src] = image[src ^ low] | column[low.bit_length() - 1]
    return image


def _support_mask(col: RationalMatrix) -> int:
    mask = 0
    for i in range(col.rows):
        if any(col.num[i]):
            mask |= 1 << i
    return mask


def _popcount(x: int) -> int:
    return bin(x).count("1")


def oracle_semistable_fixed(x: HirzRep | EnhRep, p: EnhThetaParam | None = None) -> bool:
    """Stability by direct enumeration of coordinate subrepresentations.

    Only sound for torus-fixed data (every column of every matrix has at
    most one nonzero entry): there the basis vectors carry distinct torus
    weights, so destabilizing subrepresentations can be taken to be
    spans of coordinate vectors.  Raises NotFixedForm otherwise.

    For an EnhRep the two framed-subrepresentation families are checked
    against the weighted dimension inequalities at parameter p (strictly,
    i.e. the stable verdict); for a HirzRep the parameter-free dimension
    comparisons are used.
    """
    if isinstance(x, EnhRep):
        if p is None:
            raise ShapeMismatch("enhanced oracle needs a parameter")
        return _oracle_enh(x, p)
    return _oracle_hirz(x)


def _oracle_hirz(x: HirzRep) -> bool:
    l = x
    _check_fixed_form([l.A1, l.A2, *l.C, *l.I, l.J])
    c0, c1 = l.c0, l.c1
    i_mask = 0
    for iq in l.I:
        i_mask |= _support_mask(iq)
    up, down, frame = _image_masks((l.A1, l.A2), c0), _image_masks(l.C, c1), _image_masks((l.J,), c0)
    for s0 in range(1 << c0):
        for s1 in range(1 << c1):
            if up[s0] & ~s1 or down[s1] & ~s0:
                continue
            d0, d1 = _popcount(s0), _popcount(s1)
            if not frame[s0]:
                # framing component zero: need dim S0 < dim S1 unless S = 0
                if (s0 or s1) and not d0 < d1:
                    return False
            if i_mask & ~s0 == 0:
                # framing component full: need dim S0 <= dim S1
                if not d0 <= d1:
                    return False
    return True


def _oracle_enh(x: EnhRep, p: EnhThetaParam) -> bool:
    """The subspaces are walked vertex by vertex, each one constrained by
    the arrows into it from those already chosen (`_image_masks`)."""
    l = x.left
    _check_fixed_form([l.A1, l.A2, *l.C, *l.I, l.J, x.Ap1, x.Ap2, *x.Cp, x.F1, x.F2])
    c = x.c
    s = c - x.cp
    i_mask = 0
    for iq in l.I:
        i_mask |= _support_mask(iq)
    total = (
        p.theta1 * c + p.theta2 * c + p.theta3 * s + p.theta4 * s
    )
    full = ((1 << c) - 1, (1 << c) - 1, (1 << s) - 1, (1 << s) - 1)
    up, down, frame = _image_masks((l.A1, l.A2), c), _image_masks(l.C, c), _image_masks((l.J,), c)
    f1, f2 = _image_masks((x.F1,), c), _image_masks((x.F2,), c)
    right_up, right_down = _image_masks((x.Ap1, x.Ap2), s), _image_masks(x.Cp, s)
    for s1 in range(1 << c):
        for s2 in range(1 << c):
            if up[s1] & ~s2 or down[s2] & ~s1:
                continue
            for s3 in range(1 << s):
                if f1[s1] & ~s3:
                    continue
                for s4 in range(1 << s):
                    if f2[s2] & ~s4 or right_up[s3] & ~s4 or right_down[s4] & ~s3:
                        continue
                    tup = (s1, s2, s3, s4)
                    weight = (
                        p.theta1 * _popcount(s1)
                        + p.theta2 * _popcount(s2)
                        + p.theta3 * _popcount(s3)
                        + p.theta4 * _popcount(s4)
                    )
                    if not frame[s1]:
                        if tup != (0, 0, 0, 0) and not weight < 0:
                            return False
                    if i_mask & ~s1 == 0:
                        if tup != full and not weight < total:
                            return False
    return True
