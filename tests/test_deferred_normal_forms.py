"""A verdict counts the closure; only a conversion reads its normal forms.

`chart.closure_scan` returns the lazy pass, the kept monomials and the
walk's kept rows K, and builds the normal forms on their first read.  A
verdict (`is_theta_stable`, `is_gamma_stable`, `is_costable`, `cli check`)
reads only the count, and `same_orbit` compares at the chart where
`rep_to_nested` reads, so its answer is the comparison of the pairs
`rep_to_nested` returns.  The differential test below draws that
comparison from three generators of nested pairs in the three charts.
"""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestquiv.chart
import nestquiv.stability
from nestquiv import (
    DomainError,
    EnhRep,
    RationalMatrix,
    act,
    default_theta,
    enh_residuals,
    is_costable,
    is_gamma_stable,
    is_theta_stable,
    nested_to_rep,
    rep_to_nested,
    same_orbit,
)
from nestquiv.cli import main
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, random_gauge, random_hirz_stable, random_nested_pair

from conftest import line_pair, random_fat_pair

CHARTS = (CHART_FIRST, CHART_SECOND, CHART_MIXED)
CHART_IDS = ["[1,0]", "[0,1]", "[1,1]"]


def fresh(x):
    """A copy of x with nothing kept: a new object and a new left part."""
    return replace(x, left=replace(x.left))


def scrambled(rng, c, cp, n, chart):
    pair = random_nested_pair(rng, c, cp, chart)
    rep = nested_to_rep(pair, n)
    return pair, rep, act(random_gauge(rng, c, c - cp), rep)


class Work:
    """Counts of the work a call does: inversions, walks of a datum
    (`chart.monomial_rows`, the canonical datum's), reads of a scan's
    normal forms (`chart._Scan.nf`), and the charts each left part is
    extracted and scanned at."""

    def __init__(self, monkeypatch):
        self.invert = self.walks = self.nf = 0
        self.extracted, self.scanned = [], []
        chart, stability = nestquiv.chart, nestquiv.stability
        invert, monomial_rows, nf = chart.invert, chart.monomial_rows, chart._Scan.nf
        extract, scan = stability.chart_extract, stability.closure_scan

        def inverting(m):
            self.invert += 1
            return invert(m)

        def walking(*args):
            self.walks += 1
            return monomial_rows(*args)

        def reading(s):
            self.nf += 1
            return nf.fget(s)

        def extracting(x, nu):
            self.extracted.append((id(x), nu))
            return extract(x, nu)

        def scanning(*args):
            self.scanned.append(len(self.extracted))
            return scan(*args)

        monkeypatch.setattr(chart, "invert", inverting)
        monkeypatch.setattr(chart, "monomial_rows", walking)
        monkeypatch.setattr(chart._Scan, "nf", property(reading))
        monkeypatch.setattr(stability, "chart_extract", extracting)
        monkeypatch.setattr(stability, "closure_scan", scanning)

    def counts(self):
        return {"invert": self.invert, "walks": self.walks, "nf": self.nf,
                "extracted": len(self.extracted), "scanned": len(self.scanned)}


# -- verdicts read only the count -------------------------------------


@pytest.mark.parametrize("chart", CHARTS, ids=CHART_IDS)
def test_a_verdict_inverts_only_a_nu_and_reads_no_normal_forms(monkeypatch, chart):
    rng = random.Random(7)
    pair, _, x = scrambled(rng, 4, 2, 2, chart)
    p = default_theta(4, 2)
    work = Work(monkeypatch)
    y = fresh(x)
    assert is_gamma_stable(y.left).stable
    assert work.counts() == {"invert": 1, "walks": 0, "nf": 0, "extracted": 1, "scanned": 1}
    work = Work(monkeypatch)
    assert is_theta_stable(x, p).stable
    assert work.counts() == {"invert": 1, "walks": 0, "nf": 0, "extracted": 1, "scanned": 1}
    # x keeps the relation verdict act carries, so its verdict counted at
    # the pair's chart, and a later conversion completes that reading: no
    # second extraction and no second lazy pass
    reading = x.left._kept[pair.nu]
    work = Work(monkeypatch)
    assert rep_to_nested(x, p) == pair
    assert x.left._kept[pair.nu] is reading
    assert work.nf >= 1
    assert work.extracted == [] and work.scanned == []


def test_cli_check_reads_only_the_count(monkeypatch, tmp_path, capsys):
    rng = random.Random(8)
    for n, chart in ((1, CHART_FIRST), (2, CHART_SECOND), (3, CHART_MIXED)):
        path = tmp_path / f"plain{n}.json"
        path.write_text(json.dumps(random_hirz_stable(rng, 4, n, chart).to_json()))
        work = Work(monkeypatch)
        assert main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["stability"]["verdict"] == "stable"
        assert work.counts() == {"invert": 1, "walks": 0, "nf": 0, "extracted": 1, "scanned": 1}


def test_is_costable_reads_only_the_count(monkeypatch):
    rng = random.Random(9)
    for chart in CHARTS:
        x = random_hirz_stable(rng, 5, 2, chart)
        nu = is_gamma_stable(x).nu
        a = nestquiv.chart.chart_extract(x, nu)
        work = Work(monkeypatch)
        assert is_costable(a.b1, a.b2, a.e).stable
        assert (work.invert, work.walks, work.nf) == (0, 0, 0)


# -- same_orbit compares the pairs rep_to_nested returns ---------------


def _draw_pair(rng, kind, c, chart, cp=None):
    """A nested pair of colength c in chart of one kind, with small
    colength cp where given: the fat and line kinds draw theirs at random,
    so up to 20 draws, then a `random_nested_pair`."""
    if kind == "nested":
        return random_nested_pair(rng, c, cp or rng.randint(1, c - 1), chart)
    for _ in range(20):
        pair = random_fat_pair(rng, c, chart) if kind == "fat" else line_pair(rng, c, chart, rng.randint(1, 2))
        if cp in (None, pair.small.c):
            return pair
    return random_nested_pair(rng, c, cp, chart)


KINDS = ["nested", "fat", "line"]


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.integers(min_value=2, max_value=5),
    st.sampled_from(CHARTS),
    st.sampled_from(CHARTS),
    st.integers(min_value=1, max_value=3),
)
def test_same_orbit_is_the_comparison_of_the_converted_pairs(seed, kind, other_kind, c, chart, other_chart, n):
    rng = random.Random(seed)
    pair = _draw_pair(rng, kind, c, chart)
    cp = pair.small.c
    other = _draw_pair(rng, other_kind, c, other_chart, cp)
    p = default_theta(c, cp)
    x = nested_to_rep(pair, n)
    y = act(random_gauge(rng, c, c - cp), x)
    z = act(random_gauge(rng, c, c - cp), nested_to_rep(other, n))
    for a, b in ((y, x), (x, y), (y, z), (z, y), (z, z)):
        got = same_orbit(fresh(a), fresh(b), p)
        assert got is (rep_to_nested(fresh(a), p) == rep_to_nested(fresh(b), p))
    assert same_orbit(fresh(y), fresh(x), p) is True


def test_same_orbit_is_false_across_conversion_charts(monkeypatch):
    # a [0,1] pair and a [1,1] pair whose verdicts both report [1,1] (a
    # [0,1] pair with a point on the fiber over [1,1] is read further on);
    # the first is converted at [0,1], the second at [1,1].  same_orbit
    # reads each input's relations before its verdict, so each verdict
    # counts at its input's pair chart, and the pair charts answer with no
    # other chart read and no normal forms built
    rng = random.Random(138)
    tried = 0
    for c in (3, 4, 5):
        for n in (1, 2, 3):
            cp = rng.randint(1, c - 1)
            p = default_theta(c, cp)
            _, _, x = scrambled(rng, c, cp, n, CHART_SECOND)
            _, _, y = scrambled(rng, c, cp, n, CHART_MIXED)
            if is_theta_stable(x, p).nu != CHART_MIXED:
                continue
            assert is_theta_stable(y, p).nu == CHART_MIXED
            assert (rep_to_nested(x, p).nu, rep_to_nested(y, p).nu) == (CHART_SECOND, CHART_MIXED)
            read_x, read_y = (x, CHART_SECOND), (y, CHART_MIXED)
            for (a, at), (b, bt) in ((read_x, read_y), (read_y, read_x)):
                a, b = fresh(a), fresh(b)
                work = Work(monkeypatch)
                assert same_orbit(a, b, p) is False
                assert work.extracted == [(id(a.left), at), (id(b.left), bt)]
                assert work.nf == 0
            tried += 1
    assert tried >= 6


# -- c' = 0 keeps its answers -------------------------------------------


def _without_small_cycle(x: EnhRep) -> EnhRep:
    """x with c' = 0: F1 = F2 = 1 and the right copy equal to the left's
    unframed arrows, so every relation still holds."""
    one = RationalMatrix.identity(x.c)
    l = x.left
    return EnhRep(left=l, cp=0, Ap1=l.A1, Ap2=l.A2, Cp=l.C, F1=one, F2=one)


@pytest.mark.parametrize("chart", CHARTS, ids=CHART_IDS)
def test_same_orbit_at_c_prime_zero_keeps_its_answers(chart):
    # rep_to_nested raises DomainError at c' = 0, where same_orbit still
    # compares the big cycles: True on x and its gauge images, False on
    # another cycle
    rng = random.Random(139)
    for n in (1, 2, 3):
        x = _without_small_cycle(nested_to_rep(random_nested_pair(rng, 4, 2, chart), n))
        z = _without_small_cycle(nested_to_rep(random_nested_pair(rng, 4, 2, chart), n))
        y = act(random_gauge(rng, 4, 4), x)
        p = default_theta(4, 0)
        assert all(r.is_zero() for r in enh_residuals(x))
        with pytest.raises(DomainError):
            rep_to_nested(x, p)
        assert same_orbit(x, x, p) is True
        assert same_orbit(fresh(x), fresh(y), p) is True
        assert same_orbit(fresh(y), fresh(x), p) is True
        assert same_orbit(fresh(x), fresh(z), p) is False
