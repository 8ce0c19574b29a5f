"""Conversions between stable enhanced representations and nested cycles.

The bridge runs through a chart: restrict the representation to a patch
where the pencil A_nu is invertible, extract the commuting ADHM datum of
the dimension-c part and read off the big ideal.  Every chart is read
through `stability._chart_reading`, one extraction and one closure scan,
and the conversions read the big ideal off that same reader.  A
conversion reads x's left relations before its verdict, so the verdict
counts costability in the conversions' chart (`stability._read_left`)
wherever they hold, and the conversion reads the left part in one
chart.  Only the conversions read a scan's normal forms, which are built
on that read (`chart._Scan`): the verdict counts the kept rows, and
`same_orbit` compares at the conversions' chart, so a chart that only a
verdict reads is never read in full.  The small cycle is the kernel
subrepresentation cut out by F1, F2, the left part restricted to the
kernel bases; its walk is the left walk times the kernel basis k1 of
F1, so the small ideal is read off the same closure scan with one
elimination of the c rows of K k1, the scan's kept rows times k1
(`chart._Scan.restrict`), with no second walk of the left datum, no
inversion and no kernel subrepresentation built.
What depends only on the representation is kept on it and read once
across calls: the verdict, the conversions' chart and each chart
reading (on the left part), the relation verdict, the answer to (C1)
and the small ideal at each chart, so `rep_to_nested(x, p)` then
`same_orbit(x, y, p)` reads x once and ranks no pencil again.  The
reverse direction rebuilds the canonical gauge of both cycles
(`adhm_from_ideal`, the gate that proves each basis an ideal's) and
splices them along the inclusion of quotients, checking nesting once
for every pair (`ideals._inclusion`); its output keeps the relation
verdict its construction proves, as do its gauge images (`act`), so
their residuals are never formed.

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
    regular one.  NotStable unless x is stable.  It computes the left
    part's relation verdict first, without raising on it
    (`_require_relations` does), so a left part whose relations hold has
    its costability counted in the conversions' chart
    (`stability._read_left`); the right part's residuals, which the
    verdict does not read, wait for `_require_relations`."""
    x.left._nonzero_residuals
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
    """The small ideal of x, read off its left datum's closure scan in the
    chart nu (`_chart_reading`), and kept on x per chart (`EnhRep._kept`).

    The kernel subrepresentation is the left part restricted to the kernel
    bases k1 of F1 and k2 of F2, so in any chart b_i k1 = k1 b_i' and
    e k1 = e': its walk to degree c' is the left walk times k1, which the
    scan restricts to (`chart._Scan.restrict`: one reduced echelon form of
    (K k1)^T, K the left walk's kept rows), with no second walk of the
    left datum and no inversion.  It reads the scan's normal forms (built
    then, if no conversion has read them at nu).  Its datum needs no check.  The
    relations, checked first, make the restriction well defined;
    k2 P' = P k1 makes its pencil P' invertible where P is; [b1', b2']
    lies in [b1, b2] k1 = 0; and the left walk has rank c with k1
    injective, so the product has rank c'.  The scan of a commuting
    datum's walk is an ideal (`ideals._ideal_of_scan`).
    """
    small = x._kept.get(nu)
    if small is None:
        scan = _chart_reading(x.left, nu)
        small = x._kept[nu] = _ideal_of_scan(*scan.restrict(kernel_basis(x.F1), x.cp), x.cp)
    return small


def rep_to_nested(x: EnhRep, p: EnhThetaParam, nu: NuPoint | None = None) -> NestedIdealPair:
    """Nested pair of cycles cut out by a Theta-stable representation.

    The big cycle comes from the dimension-c part, the small one from the
    kernel subrepresentation of (F1, F2), read off the same left datum
    (_small_ideal).  Raises NotStable, then RelationsViolated for data
    that are not quiver representations.  When nu is not given, the chart
    is the first of [1,0], [0,1], [1,1], ..., [1,c] that is regular for
    both.  That order is regular_sample(c), where the stable verdict read
    the first regular chart, with [0,1] second: so the chart is [1,0] when
    the verdict's is, else [0,1] when the left pencil is regular there,
    else the verdict's (`stability._pair_chart`).  The big ideal is the
    closure scan of the chart reading there (`_chart_reading`, kept on
    x.left).  Where the left relations hold, the verdict counts
    costability in that chart too (`_stable_chart`), so with no nu given
    x is extracted and scanned there alone.  The verdict, the
    conversions' chart, the chart readings, the relation verdict and the
    small ideal are kept on x, so a later conversion or `same_orbit` of x
    does not read them again.  Only the left pencil P is tested: the
    kernel's P' has k2 P' = P k1 (kernel bases k1, k2), so it is regular
    with P.  The pair is nested without a check: big.basis annihilates
    the left walk, and the small walk is that walk times k1.  Both ideals
    are read off one closure scan: the big one is its lazy pass over the
    left walk, the small one one elimination of the c rows of K k1
    (`chart._Scan.restrict`).  Both are scans of a commuting datum's walk
    (`ideals._ideal_of_scan`), so both are recorded as ideals, and
    `adhm_from_ideal` of either forms no commutator.  Any x that is not
    an EnhRep raises ShapeMismatch.
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

    Both cycles are put in the canonical costable gauge, the inclusion is
    the transpose of the reduction onto the small standard monomials, and
    the unframed right copy is the pencil arrows of the quotient pair
    (qb1, qb2).  The output uses the pair's own chart, so converting back
    with rep_to_nested returns the pair verbatim whenever its chart is the
    first regular candidate (always true for pairs this package produces).
    The relations hold with no check, and the output keeps that verdict
    (`quiver._keep_relations`), so no later reader forms `enh_residuals`:
    C_q = A1^(q-1) A2^(n-q) b2, quot b_i = qb_i quot, and [qb1, qb2] quot =
    quot [b1, b2] = 0 with quot onto.  The verdict rests on the premises
    that the two data commute and that incl intertwines them.  Both are
    checked once, for every pair.  `adhm_from_ideal` proves each basis
    an ideal's: a recorded one (`monomial_ideal`, `ideal_from_adhm`,
    `rep_to_nested`) by its construction, any other by its commutator and
    closure, so one that is not an ideal raises NotCommuting or
    NotAnIdeal.  `ideals._inclusion` then reads incl and checks that it
    intertwines the data, BadPair if not, which proves the rest of
    `build_nested_adhm`'s checks, so the quotient is assembled with no
    further check (`chart._nested`).  Dropping any of these needs another
    proof first.
    """
    if n < 1:
        raise DomainError("the surface index n must be a positive integer")
    cp = pair.small.c
    if cp < 1:
        raise DomainError("conversion needs 0 < c' < c")
    big = adhm_from_ideal(pair.big)
    small = adhm_from_ideal(pair.small)
    nested = _nested(small, big, _inclusion(pair.big, big, small))
    left = chart_embed(big, pair.nu, n)
    ap1, ap2, cps = _pencil_arrows(nested.qb1, nested.qb2, pair.nu, n)
    rep = EnhRep(left=left, cp=cp, Ap1=ap1, Ap2=ap2, Cp=cps, F1=nested.quot, F2=nested.quot)
    return _keep_relations(rep, ())


def same_orbit(x: EnhRep, y: EnhRep, p: EnhThetaParam) -> bool:
    """Whether two stable representations lie on one orbit of the gauge group.

    Inputs on different surfaces raise ShapeMismatch; inputs with
    different c or c' return False before any stability check.  Stable
    orbits are separated by their nested cycles: `rep_to_nested` is one
    to one on stable orbits (the bijection of stable orbits with nested
    pairs), so two stable inputs are on one orbit exactly when it gives
    them the same pair, and the test compares the pairs it reads.  It
    reads x's verdict, then y's, then both inputs' relations.  Inputs
    whose verdicts read different charts are on different orbits: the
    gauge group moves a pencil's determinant only by a nonzero scalar, so
    the charts where it is regular, and the first of them, are the same
    along an orbit.  For the same reason the conversions' chart
    (`stability._pair_chart`: the verdict's chart, or [0,1] where the
    pencil is regular there) is the same along an orbit, and inputs whose
    conversion charts differ are on different orbits.  As in
    `rep_to_nested`, an input whose left relations hold is read in the
    conversions' chart alone.  In that chart the closure scans
    (`_chart_reading`) are the big ideals
    (`ZeroCycleIdeal.from_normal_forms` is one to one), and the small
    ideals are read off the same extractions only when the scans agree:
    the pairs `rep_to_nested` returns, compared part by part.  At c' = 0,
    where `rep_to_nested` raises DomainError, the same comparison runs
    with the empty small cycle.  Raises NotStable, then
    RelationsViolated, if either input fails, x before y, before that
    answer.  Each input's readings are kept on it, as in `rep_to_nested`:
    after `rep_to_nested(x, p)`, x's reading and small ideal at the
    pair's chart are not read again, and same_orbit(x, x, p) reads x
    once.  Any input that is not an EnhRep raises ShapeMismatch.
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
