"""The lazy closure scan against the whole-walk scan it replaced.

`chart.closure_scan` walks the covector closure in the frozen order, stops
at the c-th kept row and reads the normal forms off the canonical datum.
The oracle here is the scan it replaced (`conftest.oracle_scan`): the
reduced echelon form of the transposed walk to degree c, whose pivots are
the kept monomials and whose rows, transposed, are the normal forms.  The data include the
scan's worst case, supports on a line, where the staircase reaches
degree c - 1.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestquiv.chart
from nestquiv import (
    AdhmData,
    RationalMatrix,
    act,
    adhm_from_ideal,
    default_theta,
    nested_to_rep,
    rep_to_nested,
    same_orbit,
    support,
)
from nestquiv.chart import closure_scan, monomial_rows
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, ideal_of_points, random_gauge, random_points
from nestquiv.monomials import count_upto, monomials_upto
from nestquiv.ratmat import block_diag

from conftest import fat_point, line_pair, line_points, oracle_scan, random_fat_pair, support_points, union

CHARTS = (CHART_FIRST, CHART_SECOND, CHART_MIXED)


def scrambled(rng, a: AdhmData) -> AdhmData:
    g = random_gauge(rng, a.c)
    return AdhmData(c=a.c, b1=g.g1 @ a.b1 @ g.inv1, b2=g.g1 @ a.b2 @ g.inv1, e=a.e @ g.inv1)


def cycle(rng, kind: str, c: int) -> AdhmData:
    """The canonical datum of a cycle of length c of one kind."""
    if kind == "reduced":
        return adhm_from_ideal(ideal_of_points(random_points(rng, c)))
    if kind in ("one line", "two lines"):
        return adhm_from_ideal(ideal_of_points(line_points(rng, c, CHART_FIRST, 1 if kind == "one line" else 2)))
    if kind == "fat on a line":
        return adhm_from_ideal(random_fat_pair(rng, c, CHART_FIRST, lines=1).big)
    return adhm_from_ideal(random_fat_pair(rng, c).big)


@settings(max_examples=150)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["reduced", "fat", "one line", "two lines", "fat on a line"]),
    st.integers(min_value=2, max_value=7),
    st.booleans(),
)
def test_the_lazy_scan_is_the_whole_walk_scan(seed, kind, c, scramble):
    rng = random.Random(seed)
    a = cycle(rng, kind, c)
    if scramble:
        a = scrambled(rng, a)
    got = closure_scan(a.b1, a.b2, a.e)
    kept, nf = oracle_scan(monomial_rows(a.b1, a.b2, a.e, c), c)
    assert got.kept == kept and got.nf == nf and len(kept) == c
    assert (got.nf.num, got.nf.den) == (nf.num, nf.den)
    # the gauge is the walk's rows at the kept monomials, None where it is
    # the identity, as on a canonical datum
    walk = monomial_rows(a.b1, a.b2, a.e, c)
    gauge = walk.submatrix([monomials_upto(c).index(m) for m in kept], range(c))
    assert got.gauge == (None if gauge == RationalMatrix.identity(c) else gauge)
    if not scramble:
        assert got.gauge is None


@settings(max_examples=80)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["reduced", "fat", "one line"]),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["zero covector", "unreachable block", "scrambled unreachable block"]),
)
def test_a_scan_that_is_not_costable_keeps_what_the_whole_walk_keeps(seed, kind, c, how):
    # only the kept monomials of a datum that is not costable are read
    rng = random.Random(seed)
    a = cycle(rng, kind, c) if c > 1 else adhm_from_ideal(ideal_of_points(random_points(rng, 1)))
    if how == "zero covector":
        bad = AdhmData(c=a.c, b1=a.b1, b2=a.b2, e=RationalMatrix.zeros(1, a.c))
    else:
        one = RationalMatrix([[rng.randint(-3, 3)]])
        bad = AdhmData(
            c=a.c + 1,
            b1=block_diag([a.b1, one]),
            b2=block_diag([a.b2, one]),
            e=a.e.hstack(RationalMatrix.zeros(1, 1)),
        )
        if how == "scrambled unreachable block":
            bad = scrambled(rng, bad)
    got = closure_scan(bad.b1, bad.b2, bad.e)
    assert got.kept == oracle_scan(monomial_rows(bad.b1, bad.b2, bad.e, bad.c), bad.c)[0]
    assert len(got.kept) < bad.c and got.nf is None and got.gauge is None


def _walked(monkeypatch):
    """The rows each walk draws (`chart._walk`), keyed by the id of its b1."""
    drawn = {}
    walk = nestquiv.chart._walk

    def counting(b1, b2, e, d):
        drawn.setdefault(id(b1), 0)
        for row in walk(b1, b2, e, d):
            drawn[id(b1)] += 1
            yield row

    monkeypatch.setattr(nestquiv.chart, "_walk", counting)
    return drawn


@pytest.mark.parametrize("kind", ["reduced", "fat", "one line", "two lines", "fat on a line"])
def test_a_costable_scan_walks_the_datum_to_its_last_kept_row(monkeypatch, kind):
    # a scrambled datum is walked up to its c-th kept row, at most to its
    # last kept degree; the rest of the walk is the canonical datum's,
    # drawn only once the normal forms are read.  A datum whose kept rows
    # are the identity is its own normal forms, so reading them walks it
    # on to degree c and nothing else
    rng = random.Random(17)
    for c in (3, 5, 7):
        a = cycle(rng, kind, c)
        b = scrambled(rng, a)
        drawn = _walked(monkeypatch)
        scan = closure_scan(b.b1, b.b2, b.e)
        kept, _ = scan.kept, scan.nf
        last = monomials_upto(c).index(kept[-1])
        assert drawn.pop(id(b.b1)) == last + 1 <= count_upto(sum(kept[-1]))
        assert list(drawn.values()) == [count_upto(c)]
        drawn = _walked(monkeypatch)
        scan = closure_scan(a.b1, a.b2, a.e)
        assert drawn == {id(a.b1): monomials_upto(c).index(scan.kept[-1]) + 1}
        scan.nf
        assert drawn == {id(a.b1): count_upto(c)}


# -- supports on lines, and unions of fat points ----------------------


def _round_trip(pair, n, rng):
    """nested_to_rep, a gauge image, both read back and compared."""
    c, cp = pair.big.c, pair.small.c
    p = default_theta(c, cp)
    x = nested_to_rep(pair, n)
    y = act(random_gauge(rng, c, c - cp), x)
    assert rep_to_nested(y, p) == rep_to_nested(x, p) == pair
    assert same_orbit(x, y, p)


@pytest.mark.parametrize("chart", CHARTS, ids=lambda v: "[{},{}]".format(*v.to_json()))
@pytest.mark.parametrize("lines", [1, 2])
def test_conversions_of_points_on_lines(chart, lines):
    rng = random.Random(29 + lines)
    for c in (4, 6):
        for n in (1, 2, 3):
            _round_trip(line_pair(rng, c, chart, lines), n, rng)


@pytest.mark.parametrize("chart", CHARTS, ids=lambda v: "[{},{}]".format(*v.to_json()))
def test_conversions_of_fat_points_along_a_line(chart):
    rng = random.Random(41)
    for c in (3, 5):
        for n in (1, 2, 3):
            _round_trip(random_fat_pair(rng, c, chart, lines=1), n, rng)


@pytest.mark.parametrize("lines", [0, 1])
def test_support_reads_each_fat_point_with_its_length(lines):
    # each point of a scrambled union of fat points, with length |lam|
    rng = random.Random(53 + lines)
    for lams in [((2, 1), (1,)), ((3,), (1, 1)), ((2,), (1,), (1, 1))]:
        points = line_points(rng, len(lams), CHART_FIRST) if lines else random_points(rng, len(lams))
        a = scrambled(rng, union([fat_point(lam, *pt) for lam, pt in zip(lams, points)]))
        want = sorted((x, y, sum(lam)) for lam, (x, y) in zip(lams, points))
        assert sorted(support_points(support(a))) == want
