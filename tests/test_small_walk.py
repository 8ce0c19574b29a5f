"""The conversions read the small cycle off the left walk.

The kernel subrepresentation of (F1, F2) is the left part restricted to the
kernel bases k1 of F1 and k2 of F2, so in any regular chart b_i k1 = k1 b_i'
and e k1 = e': the kernel datum's walk is the left walk times k1.
`rep_to_nested` and `same_orbit` read the small ideal from that product
and never build `kernel_subrep`, which stays as the oracle here.  They
read it off the big scan's kept rows, with one elimination of the c rows
of K k1 (`chart._Scan.restrict`); the whole-walk scan of the product
(`conftest.oracle_scan`) is the oracle for that.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestquiv
import nestquiv.chart
import nestquiv.correspondence
import nestquiv.stability
from nestquiv import act, default_theta, is_theta_stable, nested_to_rep, rep_to_nested, same_orbit
from nestquiv.chart import chart_extract, monomial_rows, pencil
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, random_gauge, random_nested_pair
from nestquiv.ratmat import kernel_basis, rank
from nestquiv.correspondence import _small_ideal
from nestquiv.stability import _chart_reading, kernel_subrep

from conftest import conversion_sample, line_pair, nu, oracle_scan, random_fat_pair

CHARTS = (CHART_FIRST, CHART_SECOND, CHART_MIXED)


def test_kernel_walk_is_the_left_walk_times_k1():
    rng = random.Random(151)
    tried = singular = 0
    for c in range(2, 7):
        for n in (1, 2, 3):
            for chart in (CHART_FIRST, CHART_SECOND, CHART_MIXED):
                cp = rng.randint(1, c - 1)
                pair = random_nested_pair(rng, c, cp, chart)
                x = act(random_gauge(rng, c, c - cp), nested_to_rep(pair, n))
                kern, k1 = kernel_subrep(x), kernel_basis(x.F1)
                for cand in conversion_sample(c):
                    if rank(pencil(x.left.A1, x.left.A2, cand)) < c:
                        singular += 1
                        continue
                    tried += 1
                    a, small = chart_extract(x.left, cand), chart_extract(kern, cand)
                    walk = monomial_rows(a.b1, a.b2, a.e, cp) @ k1
                    assert monomial_rows(small.b1, small.b2, small.e, cp) == walk
                    # costable with the left datum: no check on the small one
                    assert rank(walk) == cp
    assert tried and singular


@pytest.mark.parametrize(
    "call, chart, verdict_chart, inversions",
    [
        ("rep_to_nested", CHART_FIRST, nu(1, 0), 2),
        ("rep_to_nested", CHART_SECOND, nu(1, 1), 2),
        ("rep_to_nested", CHART_MIXED, nu(1, 1), 2),
        ("same_orbit", CHART_FIRST, nu(1, 0), 2),
    ],
    ids=["rep_to_nested-[1,0]", "rep_to_nested-[0,1]", "rep_to_nested-[1,1]", "same_orbit-[1,0]"],
)
def test_conversions_never_build_the_kernel(monkeypatch, call, chart, verdict_chart, inversions):
    # one inversion of A_nu per chart read: the fresh copy of x keeps no
    # relation verdict, so rep_to_nested computes it before the verdict,
    # which then counts at the pair's chart, and a [0,1] pair is read at
    # [0,1] alone; rep keeps the verdict nested_to_rep records, so
    # same_orbit reads it at the pair's chart alone too.  Each scan of a
    # scrambled datum whose normal forms are read also inverts its walk's
    # kept rows K; rep, read at its own chart, has K and A_nu the identity
    # and inverts neither.  Each small ideal is one elimination of
    # (K k1)^T and inverts nothing (`_Scan.restrict`)
    rng = random.Random(3)
    pair = random_nested_pair(rng, 4, 2, chart)
    rep = nested_to_rep(pair, 2)
    x = act(random_gauge(rng, 4, 2), rep)
    p = default_theta(4, 2)
    assert is_theta_stable(x, p).nu == verdict_chart
    # the verdict is kept on x: count on a fresh copy, read for the first time
    x = replace(x, left=replace(x.left))
    counts = {"kernel_subrep": 0, "invert": 0}

    def counting(module, name):
        orig = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return orig(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(nestquiv.chart, "invert")
    for module in (nestquiv, nestquiv.stability, nestquiv.correspondence):
        if hasattr(module, "kernel_subrep"):
            counting(module, "kernel_subrep")
    if call == "rep_to_nested":
        assert rep_to_nested(x, p) == pair
    else:
        assert same_orbit(x, rep, p)
    assert counts == {"kernel_subrep": 0, "invert": inversions}


# -- the small scan against the whole-walk scan ------------------------


def _converted(rng, kind, c, cp, chart, n, scramble):
    """nested_to_rep of a pair of one kind at (c, c') in the chart, gauge-
    scrambled or not, with its pair."""
    if kind == "nested":
        pair = random_nested_pair(rng, c, cp, chart)
    elif kind == "fat":
        pair = random_fat_pair(rng, c, chart, lines=rng.randint(0, 1), cp=cp)
    else:
        pair = line_pair(rng, c, chart, lines=rng.randint(1, 2), cp=cp)
    x = nested_to_rep(pair, n)
    return pair, act(random_gauge(rng, c, c - cp), x) if scramble else x


@settings(max_examples=150)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["nested", "fat", "line"]),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(["1", "c//2", "c-1"]),
    st.sampled_from(CHARTS),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
def test_the_small_scan_is_the_whole_walk_scan(seed, kind, c, which, chart, n, scramble):
    # one elimination of (K k1)^T keeps the monomials and reads the normal
    # forms, bit for bit, of the reduced echelon form of the whole
    # transposed small walk, monomial_rows(b1, b2, e, c') @ k1
    rng = random.Random(seed)
    cp = {"1": 1, "c//2": c // 2, "c-1": c - 1}[which]
    pair, x = _converted(rng, kind, c, cp, chart, n, scramble)
    a, scan = chart_extract(x.left, pair.nu), _chart_reading(x.left, pair.nu)
    k1 = kernel_basis(x.F1)
    kept, nf = oracle_scan(monomial_rows(a.b1, a.b2, a.e, cp) @ k1, cp)
    got_kept, got_nf = scan.restrict(k1, cp)
    assert got_kept == kept and len(kept) == cp
    assert (got_nf.num, got_nf.den) == (nf.num, nf.den)
    assert rep_to_nested(x, default_theta(c, cp)) == pair


@pytest.mark.parametrize("chart", CHARTS, ids=lambda v: "[{},{}]".format(*v.to_json()))
@pytest.mark.parametrize("scramble", [False, True], ids=["plain", "scrambled"])
def test_the_small_scan_reads_only_the_big_kept_rows(monkeypatch, chart, scramble):
    # once the big scan's normal forms are built, the small ideal is one
    # elimination of the c rows of K k1, as the c' x c matrix (K k1)^T: it
    # walks nothing, runs no row-at-a-time pass and inverts nothing
    rng = random.Random(61)
    for c in (4, 6, 8):
        for cp in (1, c // 2, c - 1):
            pair, x = _converted(rng, "nested", c, cp, chart, 2, scramble)
            _chart_reading(x.left, pair.nu).nf
            eliminations = []
            rref = nestquiv.chart._rref

            def counting(rows, ncols):
                eliminations.append((len(rows), ncols))
                return rref(rows, ncols)

            def walking(*args):
                raise AssertionError("the small scan walks a datum or inverts")

            monkeypatch.setattr(nestquiv.chart, "_rref", counting)
            for name in ("_walk", "_span_pass", "invert"):
                monkeypatch.setattr(nestquiv.chart, name, walking)
            for module in (nestquiv.chart, nestquiv.ideals):
                monkeypatch.setattr(module, "monomial_rows", walking)
            assert _small_ideal(x, pair.nu) == pair.small
            monkeypatch.undo()
            assert eliminations == [(cp, c)]
