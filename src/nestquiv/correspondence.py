"""Conversions between stable enhanced representations and nested cycles.

`rep_to_nested` reads a stable representation through a chart, with
none given the one its verdict counted costability in
(`stability._read_left`): the big ideal is the closure scan of the left
part's ADHM datum there (`stability._chart_reading`), and the small
ideal that of the kernel subrepresentation cut out by F1, F2
(`_small_ideal`).  `nested_to_rep`
rebuilds the canonical gauge of both cycles (`ideals.adhm_from_ideal`)
and splices them along the inclusion of quotients.  `same_orbit`
compares the pairs `rep_to_nested` reads.

Both directions are deterministic: charts are tried in the fixed order
[1,0], [0,1], [1,1], [1,2], ... and the first regular one wins, so a
converted representation always reports its cycle in the earliest chart
that sees it.  Conversions need 0 < c' < c; length-zero small cycles have
no enhancement to speak of and are rejected with DomainError.
"""

from __future__ import annotations

from .chart import NuPoint, _nested, _pencil_arrows, chart_embed
from .errors import DomainError, NotStable, RelationsViolated, ShapeMismatch
from .ideals import NestedIdealPair, ZeroCycleIdeal, _ideal_of_scan, _inclusion, adhm_from_ideal
from .quiver import EnhRep, _keep_relations, _require_enhanced
from .ratmat import kernel_basis
from .stability import EnhThetaParam, _chart_reading, _pair_chart, is_theta_stable


def _stable_chart(x: EnhRep, p: EnhThetaParam) -> NuPoint:
    """The chart of x's stability verdict (`is_theta_stable`), the first
    regular one; NotStable unless x is stable."""
    verdict = is_theta_stable(x, p)
    if not verdict.stable:
        raise NotStable(f"representation is not stable: {verdict.witness}")
    return verdict.nu


def _require_relations(x: EnhRep) -> None:
    """RelationsViolated, naming the nonzero enh_residuals, if x has any
    (`EnhRep._nonzero_residuals`, kept on x)."""
    bad = x._nonzero_residuals
    if bad:
        raise RelationsViolated(f"representation violates the relations: nonzero residuals {list(bad)}")


def _small_ideal(x: EnhRep, nu: NuPoint) -> ZeroCycleIdeal:
    """The small ideal of x in the chart nu, kept on x per chart
    (`quiver.EnhRep._kept`).

    x's relations, checked first, make the kernel subrepresentation
    (`stability.kernel_subrep`) well defined, with bases k1 of ker F1 and k2
    of ker F2: its pencil P' is regular where P is (k2 P' = P k1), its
    datum commutes ([b1', b2'] lies in [b1, b2] k1 = 0), and its walk to
    degree c' is the left walk times k1, of rank c'.  So its ideal is the
    restriction of the left part's scan (`chart._Scan.restrict`), recorded
    as an ideal (`ideals._ideal_of_scan`).
    """
    small = x._kept.get(nu)
    if small is None:
        scan = _chart_reading(x.left, nu)
        small = x._kept[nu] = _ideal_of_scan(*scan.restrict(kernel_basis(x.F1), x.cp), x.cp)
    return small


def rep_to_nested(x: EnhRep, p: EnhThetaParam, nu: NuPoint | None = None) -> NestedIdealPair:
    """Nested pair of cycles cut out by a Theta-stable representation.

    Errors in order: ShapeMismatch unless x is an EnhRep, DomainError for
    c' = 0, those of `is_theta_stable`, NotStable, RelationsViolated, then
    SingularAnu for a given nu where the left pencil is singular.  The chart
    is nu if given, else the first of [1,0], [0,1], [1,1], ..., [1,c] where
    the left pencil is regular (`stability._pair_chart`).  The big ideal is
    the left part's closure scan there (`stability._chart_reading`), the
    small one its restriction (`_small_ideal`), so the pair is nested.  The
    verdict, the chart readings and the small ideal are kept on x
    (`quiver.HirzRep._kept`, `quiver.EnhRep._kept`).
    """
    _require_enhanced(x, "rep_to_nested")
    if x.cp == 0:
        raise DomainError("c' = 0 has no nested structure; use the chart dictionary directly")
    chart = _stable_chart(x, p)
    _require_relations(x)
    at = nu or _pair_chart(x.left, chart)
    scan = _chart_reading(x.left, at)
    return NestedIdealPair(nu=at, big=_ideal_of_scan(scan.kept, scan.nf, x.c), small=_small_ideal(x, at))


def nested_to_rep(pair: NestedIdealPair, n: int) -> EnhRep:
    """Theta-stable representation presenting a nested pair on the n-th surface.

    Errors in order: DomainError unless n >= 1 and c' >= 1; NotCommuting or
    NotAnIdeal for a basis that is not an ideal's, big first
    (`ideals.adhm_from_ideal`); then BadPair unless the pair is nested
    (`ideals._inclusion`).  Both cycles are put in the canonical costable
    gauge, and the unframed right copy is the pencil arrows of the quotient
    pair.  The output uses the pair's own chart, so `rep_to_nested` returns
    the pair verbatim whenever that chart is the first regular candidate
    (always true for pairs this package produces).  It is recorded as
    satisfying its relations (`quiver._keep_relations`).

    The left part, the big datum embedded at the pair's chart, depends on
    the big ideal, chart and n alone, so it is kept on the big ideal under
    (nu, n) (`ideals.ZeroCycleIdeal._kept`), written once the nesting check
    has passed, and reused: pairs that share a big ideal object share one
    left part, and the readings kept on it (`quiver.HirzRep._kept`).
    """
    if n < 1:
        raise DomainError("the surface index n must be a positive integer")
    cp = pair.small.c
    if cp < 1:
        raise DomainError("conversion needs 0 < c' < c")
    big = adhm_from_ideal(pair.big)
    small = adhm_from_ideal(pair.small)
    nested = _nested(small, big, _inclusion(pair.big, big, small))
    kept = pair.big._kept
    left = kept.get((pair.nu, n))
    if left is None:
        left = kept[pair.nu, n] = chart_embed(big, pair.nu, n)
    ap1, ap2, cps = _pencil_arrows(nested.qb1, nested.qb2, pair.nu, n)
    rep = EnhRep(left=left, cp=cp, Ap1=ap1, Ap2=ap2, Cp=cps, F1=nested.quot, F2=nested.quot)
    return _keep_relations(rep, ())


def same_orbit(x: EnhRep, y: EnhRep, p: EnhThetaParam) -> bool:
    """Whether two stable representations lie on one orbit of the gauge group.

    ShapeMismatch unless both inputs are EnhReps on one surface; False for
    different c or c', before any stability check; then the errors of
    `is_theta_stable` and NotStable, x before y, then RelationsViolated.
    `rep_to_nested` is one to one on stable orbits, so the answer is whether
    it reads the same pair off both, with the empty small cycle at c' = 0.
    The gauge group scales a pencil's determinant by a nonzero constant, so
    the verdict's chart and the conversions' chart are the same along an
    orbit, and inputs where either differs are on different orbits;
    otherwise the closure scans and the small ideals at the conversions'
    chart are compared.  Readings are kept as in `rep_to_nested`.
    """
    _require_enhanced(x, "same_orbit")
    _require_enhanced(y, "same_orbit")
    if x.left.n != y.left.n:
        raise ShapeMismatch("representations live on different surfaces")
    if x.left.c1 != y.left.c1 or x.cp != y.cp:
        return False
    chart_x = _stable_chart(x, p)
    chart_y = _stable_chart(y, p)
    _require_relations(x)
    _require_relations(y)
    if chart_x != chart_y:
        return False
    at = _pair_chart(x.left, chart_x)
    if at != _pair_chart(y.left, chart_y):
        return False
    sx, sy = _chart_reading(x.left, at), _chart_reading(y.left, at)
    if sx.kept != sy.kept or sx.nf != sy.nf:
        return False
    return _small_ideal(x, at) == _small_ideal(y, at)
