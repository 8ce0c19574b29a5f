"""Conversions between stable enhanced representations and nested cycles.

The bridge runs through a chart: restrict the representation to a patch
where the pencil A_nu is invertible, extract commuting ADHM data for the
dimension-c part and for the kernel subrepresentation cut out by F1, F2,
and read off the two ideals.  The reverse direction rebuilds the canonical
gauge of both cycles and splices them along the inclusion of quotients.

Both directions are deterministic: charts are tried in the fixed order
[1,0], [0,1], [1,1], [1,2], ... and the first regular one wins, so a
converted representation always reports its cycle in the earliest chart
that sees it.  Conversions need 0 < c' < c; length-zero small cycles have
no enhancement to speak of and are rejected with DomainError.
"""

from __future__ import annotations

from .chart import (
    AdhmData,
    NuPoint,
    build_nested_adhm,
    chart_embed,
    chart_extract,
    conversion_sample,
    first_regular,
)
from .errors import DomainError, NotStable, RelationsViolated, ShapeMismatch
from .ideals import NestedIdealPair, _inclusion, adhm_from_ideal, ideal_from_adhm
from .quiver import EnhRep, HirzRep, enh_residuals
from .ratmat import RationalMatrix
from .stability import EnhThetaParam, is_theta_stable, kernel_subrep


def _pair_at(x: EnhRep, kern: HirzRep, nu: NuPoint) -> NestedIdealPair:
    """The pair read at nu.  It is nested without a check: kern is the
    restriction to the kernel bases, so b k1 = k1 b' and e k1 = e' in any
    chart, the kernel's monomial_rows are the left walk times k1, and
    big.basis annihilates that walk."""
    big = ideal_from_adhm(chart_extract(x.left, nu))
    small = ideal_from_adhm(chart_extract(kern, nu))
    return NestedIdealPair(nu=nu, big=big, small=small)


def _require_stable_representations(p: EnhThetaParam, *reps: EnhRep) -> None:
    """NotStable for the first unstable input, then RelationsViolated,
    naming the nonzero enh_residuals, for the first that violates them."""
    for z in reps:
        verdict = is_theta_stable(z, p)
        if not verdict.stable:
            raise NotStable(f"representation is not stable: {verdict.witness}")
    for z in reps:
        bad = [i for i, r in enumerate(enh_residuals(z)) if not r.is_zero()]
        if bad:
            raise RelationsViolated(f"representation violates the relations: nonzero residuals {bad}")


def rep_to_nested(x: EnhRep, p: EnhThetaParam, nu: NuPoint | None = None) -> NestedIdealPair:
    """Nested pair of cycles cut out by a Theta-stable representation.

    The big cycle comes from the dimension-c part, the small one from the
    kernel subrepresentation of (F1, F2).  Raises NotStable, then
    RelationsViolated for data that are not quiver representations.  When
    nu is not given, the chart is the first of [1,0], [0,1], [1,1], ...,
    [1,c] that is regular for both; the scan cannot exhaust, as it holds
    regular_sample(c), where the stable verdict found a regular chart.
    Only the left pencil P is tested: the kernel's P' has k2 P' = P k1
    (kernel bases k1, k2), so it is regular with P.
    """
    if x.cp == 0:
        raise DomainError("c' = 0 has no nested structure; use the chart dictionary directly")
    _require_stable_representations(p, x)
    kern = kernel_subrep(x)
    if nu is None:
        nu = first_regular([(x.left.A1, x.left.A2)], conversion_sample(x.c))
    return _pair_at(x, kern, nu)


def nested_to_rep(pair: NestedIdealPair, n: int) -> EnhRep:
    """Theta-stable representation presenting a nested pair on the n-th surface.

    Both cycles are put in the canonical costable gauge, the inclusion is
    the transpose of the reduction onto the small standard monomials, and
    the quotient datum supplies the dimension-c' arrows.  The output uses
    the pair's own chart, so converting back with rep_to_nested returns
    the pair verbatim whenever its chart is the first regular candidate
    (always true for pairs this package produces).  The relations hold with
    no check: C_q = A1^(q-1) A2^(n-q) b2 and quot b_i = qb_i quot.
    """
    if n < 1:
        raise DomainError("the surface index n must be a positive integer")
    c, cp = pair.big.c, pair.small.c
    if cp < 1:
        raise DomainError("conversion needs 0 < c' < c")
    big = adhm_from_ideal(pair.big)
    small = adhm_from_ideal(pair.small)
    incl = _inclusion(pair.big, small)
    nested = build_nested_adhm(small, big, incl)
    left = chart_embed(big, pair.nu, n)
    zero_e = RationalMatrix.zeros(1, c - cp)
    quot_rep = chart_embed(AdhmData(c - cp, nested.qb1, nested.qb2, zero_e), pair.nu, n)
    return EnhRep(
        left=left,
        cp=cp,
        Ap1=quot_rep.A1,
        Ap2=quot_rep.A2,
        Cp=quot_rep.C,
        F1=nested.quot,
        F2=nested.quot,
    )


def same_orbit(x: EnhRep, y: EnhRep, p: EnhThetaParam) -> bool:
    """Whether two stable representations lie on one orbit of the gauge group.

    Stable orbits are separated by their nested cycles, so the test
    extracts both pairs in a chart regular for the two pencils at once and
    compares the ideals entrywise.  Raises NotStable, then
    RelationsViolated, if either input fails.  The common chart exists:
    the 2c + 3 candidates outnumber the at most 2c roots of the two
    pencil determinants, nonzero forms of degree c as both are stable.
    """
    if x.left.n != y.left.n:
        raise ShapeMismatch("representations live on different surfaces")
    if x.left.c1 != y.left.c1 or x.cp != y.cp:
        return False
    _require_stable_representations(p, x, y)
    kx, ky = kernel_subrep(x), kernel_subrep(y)
    nu = first_regular([(z.left.A1, z.left.A2) for z in (x, y)], conversion_sample(2 * x.c + 1))
    px, py = _pair_at(x, kx, nu), _pair_at(y, ky, nu)
    return px.big == py.big and px.small == py.small
