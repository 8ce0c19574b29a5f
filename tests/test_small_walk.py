"""The conversions read the small cycle off the left walk.

The kernel subrepresentation of (F1, F2) is the left part restricted to the
kernel bases k1 of F1 and k2 of F2, so in any regular chart b_i k1 = k1 b_i'
and e k1 = e': the kernel datum's walk is the left walk times k1.
`rep_to_nested` and `same_orbit` read the small ideal from that product
and never build `kernel_subrep`, which stays as the oracle here.
"""

import random
from dataclasses import replace

import pytest

import nestquiv
import nestquiv.chart
import nestquiv.correspondence
import nestquiv.stability
from nestquiv import act, default_theta, is_theta_stable, nested_to_rep, rep_to_nested, same_orbit
from nestquiv.chart import chart_extract, monomial_rows, pencil
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, random_gauge, random_nested_pair
from nestquiv.ratmat import kernel_basis, rank
from nestquiv.stability import kernel_subrep

from conftest import conversion_sample, nu


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
        ("rep_to_nested", CHART_SECOND, nu(1, 1), 3),
        ("rep_to_nested", CHART_MIXED, nu(1, 1), 2),
        ("same_orbit", CHART_FIRST, nu(1, 0), 2),
    ],
    ids=["rep_to_nested-[1,0]", "rep_to_nested-[0,1]", "rep_to_nested-[1,1]", "same_orbit-[1,0]"],
)
def test_conversions_never_build_the_kernel(monkeypatch, call, chart, verdict_chart, inversions):
    # one inversion of A_nu per left part where the verdict reads the
    # pair's chart; [0,1] pairs read the verdict at [1,1], the pair at [0,1].
    # Each scan of a scrambled datum whose normal forms are read also
    # inverts its walk's kept rows K: only the pair's chart reads them, so
    # the [1,1] verdict of a [0,1] pair does not; rep, read at its own
    # chart, has K and A_nu the identity and inverts neither
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
