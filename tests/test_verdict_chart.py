"""Costability is read in one chart per conversion.

The verdict of a representation whose relations hold counts
costability in the conversions' chart, where a conversion reads the pair
anyway, and not in the verdict's chart, the first regular one
(`stability._read_left`), whoever asks for it.  The premise: once every
I_q is zero and the relations hold, the data in any two regular charts
generate one algebra acting on e = J, so the covector closure has one
rank in every regular chart.  Here that count is compared chart by
chart; the verdict against `is_gamma_stable` and `is_theta_stable` of a
fresh JSON copy, which computes its relation verdict and so counts in
the same chart; the `NotStable` message of a non-costable input
against the copy's; and the verdict and readings of one input read
first by a verdict and first by a conversion.
"""

import random
from dataclasses import replace

from nestquiv import (
    AdhmData, EnhRep, HirzRep, NotStable, RationalMatrix, act, chart_embed, chart_extract, default_theta,
    enumerate_nested_monomial, find_regular_nu, is_gamma_stable, is_theta_stable, nested_to_rep, rank,
    rep_to_nested, same_orbit,
)
from nestquiv.chart import closure_scan, pencil
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, random_gauge, random_nested_pair

from conftest import conversion_sample

CHARTS = (CHART_FIRST, CHART_SECOND, CHART_MIXED)


def _poly(rng, m: RationalMatrix) -> RationalMatrix:
    """A random polynomial of degree at most 2 in m."""
    c = m.rows
    out = RationalMatrix.zeros(c, c)
    power = RationalMatrix.identity(c)
    for _ in range(3):
        out = out + power.scale(rng.randint(-2, 2))
        power = power @ m
    return out


def _commuting_data(rng, c: int):
    """Commuting data (b1, b2, e) of size c, polynomials in one matrix M:
    a dense M, mostly costable; an upper triangular M, costable only
    where e reaches the first coordinate; and a block diagonal M with e
    on one block, never costable."""
    kind = rng.randrange(3)
    rows = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(c)]
    e = [rng.randint(-1, 1) for _ in range(c)]
    if kind == 1:
        rows = [[v if j >= i else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)]
    elif kind == 2 and c > 1:
        cut = rng.randint(1, c - 1)
        rows = [[v if (i < cut) == (j < cut) else 0 for j, v in enumerate(row)] for i, row in enumerate(rows)]
        e = [v if j < cut else 0 for j, v in enumerate(e)]
    m = RationalMatrix(rows)
    return AdhmData(c=c, b1=_poly(rng, m), b2=_poly(rng, m), e=RationalMatrix([e]))


def _closure_count(x: HirzRep, at) -> int:
    a = chart_extract(x, at)
    return len(closure_scan(a.b1, a.b2, a.e).kept)


def _regular_charts(x: HirzRep) -> list:
    return [at for at in conversion_sample(x.c0) if rank(pencil(x.A1, x.A2, at)) == x.c0]


def _fresh(x):
    """A JSON copy of x: nothing kept, its relation verdict included."""
    return type(x).from_json(x.to_json())


def test_the_closure_count_is_the_same_in_every_regular_chart():
    rng = random.Random(341)
    counts = {"costable": 0, "not costable": 0}
    moved = 0
    for c in range(1, 6):
        for n in (1, 2, 3):
            for home in CHARTS:
                for _ in range(10):
                    a = _commuting_data(rng, c)
                    x = chart_embed(a, home, n)
                    charts = _regular_charts(x)
                    assert home in charts
                    want = len(closure_scan(a.b1, a.b2, a.e).kept)
                    assert {_closure_count(x, at) for at in charts} == {want}
                    counts["costable" if want == c else "not costable"] += 1
                    # the relations of x and of its copy hold, so both
                    # count at the pair's chart
                    verdict = is_gamma_stable(x)
                    copy = _fresh(x)
                    assert verdict == is_gamma_stable(copy)
                    assert verdict.nu == find_regular_nu(x.A1, x.A2)
                    assert list(copy._kept) == list(x._kept)
                    pair_chart = x._kept["conversion"]
                    assert pair_chart in x._kept
                    if pair_chart != verdict.nu:
                        assert verdict.nu not in x._kept
                        moved += 1
    assert counts["costable"] >= 150 and counts["not costable"] >= 150
    assert moved >= 30


def _nilpotent(m: RationalMatrix) -> bool:
    power = m
    for _ in range(m.rows):
        power = power @ m
    return power.is_zero()


def _with_covector(x: EnhRep, j: RationalMatrix) -> EnhRep:
    """x with J replaced, which no relation reads while every I_q is
    zero; the copy computes its relation verdict and keeps it."""
    y = replace(x, left=replace(x.left, J=j))
    assert y._nonzero_residuals == ()
    return y


def _enhanced_inputs(rng):
    """Converted pairs of random points and torus-fixed pairs in each
    chart, n = 1..3, plain and gauge-scrambled, with non-costable copies:
    J = 0, and, for a pair at the origin of its chart, J b1 there, whose
    closure misses J."""
    for n in (1, 2, 3):
        for c in (2, 3, 4):
            cp = rng.randint(1, c - 1)
            pairs = [random_nested_pair(rng, c, cp, chart) for chart in CHARTS]
            pairs += rng.sample(enumerate_nested_monomial(cp, c, charts=2, n=n), 3)
            for pair in pairs:
                x = nested_to_rep(pair, n)
                variants = [x, _with_covector(x, RationalMatrix.zeros(1, c))]
                b1 = chart_extract(x.left, pair.nu).b1
                if _nilpotent(b1):
                    variants.append(_with_covector(x, x.left.J @ b1))
                for z in variants:
                    yield z
                    yield act(random_gauge(rng, c, c - cp), z)


def test_a_conversion_keeps_the_verdict_a_fresh_copy_reads():
    rng = random.Random(342)
    seen = {"stable": 0, "not stable": 0, "moved": 0}
    for x in _enhanced_inputs(rng):
        p = default_theta(x.c, x.cp)
        want = is_theta_stable(_fresh(x), p)
        if want.stable:
            pair = rep_to_nested(x, p)
            assert pair == rep_to_nested(_fresh(x), p)
            assert same_orbit(x, _fresh(x), p)
            seen["stable"] += 1
        else:
            message = f"representation is not stable: {want.witness}"
            for z in (x, _fresh(x)):
                try:
                    rep_to_nested(z, p)
                except NotStable as exc:
                    assert str(exc) == message
                else:
                    raise AssertionError("a non-costable input converted")
            assert want.witness.startswith("(C2) costability closure rank ")
            seen["not stable"] += 1
        kept = is_theta_stable(x, p)
        assert (kept.stable, kept.witness, kept.nu) == (want.stable, want.witness, want.nu)
        if x.left._kept["conversion"] != want.nu:
            assert want.nu not in x.left._kept
            seen["moved"] += 1
    assert seen["stable"] >= 80 and seen["not stable"] >= 100 and seen["moved"] >= 60


def test_a_fresh_copy_reads_the_charts_its_recorded_original_reads():
    # no reader branches on what an earlier call kept: the verdict of a
    # JSON copy, which computes its relation verdict, leaves the readings
    # that the verdict of its original, whose verdict was recorded, leaves
    rng = random.Random(344)
    moved = 0
    for x in _enhanced_inputs(rng):
        p = default_theta(x.c, x.cp)
        copy = _fresh(x)
        verdict = is_theta_stable(x, p)
        assert is_theta_stable(copy, p) == verdict
        assert list(copy.left._kept) == list(x.left._kept)
        moved += x.left._kept["conversion"] != verdict.nu
    assert moved >= 30


def _readings(x: EnhRep) -> set:
    """The charts x's left part has been read in."""
    return {at for at in x.left._kept if at not in ("left", "conversion")}


def test_the_verdict_and_its_readings_do_not_depend_on_who_reads_first():
    # two copies of one input that keep its relation verdict, computed
    # here, one read first by is_theta_stable, the other first by rep_to_nested, then by
    # the other call: the same verdict and outcome, and the same charts
    # read after the first call and after both
    rng = random.Random(343)
    seen = {"stable": 0, "not stable": 0, "moved": 0}
    for x in _enhanced_inputs(rng):
        p = default_theta(x.c, x.cp)
        first, second = _fresh(x), _fresh(x)
        for z in (first, second):
            assert z._nonzero_residuals == ()
        verdict = is_theta_stable(first, p)
        try:
            pair = rep_to_nested(second, p)
        except NotStable as exc:
            pair = str(exc)
        assert _readings(first) == _readings(second)
        assert is_theta_stable(second, p) == verdict
        try:
            assert rep_to_nested(first, p) == pair
        except NotStable as exc:
            assert str(exc) == pair
        assert _readings(first) == _readings(second)
        seen["stable" if verdict.stable else "not stable"] += 1
        if verdict.nu not in _readings(first):
            seen["moved"] += 1
    assert seen["stable"] >= 80 and seen["not stable"] >= 100 and seen["moved"] >= 60
