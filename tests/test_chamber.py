"""The enhanced cone against its chamber: inside the cone, the brute-force
oracle, which reads theta, agrees with `is_theta_stable`, which after the
cone check does not.

The pool is every torus-fixed nested pair with c <= 4 and n = 1..3, from
both chart settings (charts=1 is the [1,0] block of charts=2), presented
by `nested_to_rep`.  The oracle reads only fixed-form data, so the pairs
of the mixed chart [1,1], which raise NotFixedForm, are skipped.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestquiv import (
    EnhThetaParam, enumerate_nested_monomial, in_enh_cone, is_theta_stable, nested_to_rep,
    oracle_semistable_fixed,
)
from nestquiv.errors import NotFixedForm

EPS = Fraction(1, 10**6)


@lru_cache(maxsize=1)
def _fixed_form_reps():
    pairs = {}
    for n in (1, 2, 3):
        for c in range(2, 5):
            for cp in range(1, c):
                for charts in (1, 2):
                    for pair in enumerate_nested_monomial(cp, c, charts=charts, n=n):
                        pairs.setdefault((n, pair), None)
    reps = []
    for n, pair in pairs:
        x = nested_to_rep(pair, n)
        try:
            oracle_semistable_fixed(x.left)
        except NotFixedForm:
            continue
        reps.append(x)
    return reps


def _theta(c: int, cp: int, t0, u, v, w) -> EnhThetaParam:
    """The point of the enhanced cone of (c, cp) with theta1 = t0 > 0 and
    u, v, w in (0, 1): theta2 = -t0 + u t0 / c, so u -> 0 and u -> 1 are
    the base cone's two walls; theta3 + theta4 = -w (theta1 + theta2) /
    (c - cp), so w -> 1 is the sum wall; and theta3 : theta4 = v : 1 - v,
    so v -> 0 is theta3 = 0 and v -> 1 is theta4 = 0."""
    theta2 = -t0 + u * t0 / c
    both = -w * (t0 + theta2) / (c - cp)
    return EnhThetaParam(t0, theta2, v * both, (1 - v) * both)


def _open_unit():
    """A rational strictly between 0 and 1: within 1e-6 of either end, or
    anywhere."""
    near = st.sampled_from([EPS, 1 - EPS])
    inside = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda f: 0 < f < 1)
    return st.one_of(near, inside)


def test_the_pool_covers_both_chart_settings():
    reps = _fixed_form_reps()
    # the 87 fixed-form reps of charts=1 lie among the 174 of charts=2
    assert len(reps) == 174
    assert {x.c for x in reps} == {2, 3, 4} and {x.n for x in reps} == {1, 2, 3}


# each corner is within 1e-6 of the walls it names
@example(t0=Fraction(1), u=EPS, v=EPS, w=1 - EPS)  # theta2 = -theta1, theta3 = 0, the sum
@example(t0=EPS, u=1 - EPS, v=1 - EPS, w=1 - EPS)  # theta2 = -(c-1)/c theta1, theta4 = 0, the sum
@settings(max_examples=2)
@given(
    t0=st.one_of(st.just(EPS), st.fractions(min_value=0, max_value=10, max_denominator=1000).filter(bool)),
    u=_open_unit(),
    v=_open_unit(),
    w=_open_unit(),
)
def test_the_oracle_agrees_with_the_verdict_inside_the_cone(t0, u, v, w):
    disagreements = []
    for x in _fixed_form_reps():
        p = _theta(x.c, x.cp, t0, u, v, w)
        assert in_enh_cone(p, x.c, x.cp)
        if oracle_semistable_fixed(x, p) != is_theta_stable(x, p).stable:
            disagreements.append((x.n, x.c, x.cp, x.to_json()))
    assert not disagreements, disagreements[:2]


def _origin_reps():
    """The reps of every pair of charts=1, c <= 4, n = 1..3: both cycles
    at the origin of the chart [1,0], all of fixed form."""
    return [
        nested_to_rep(pair, n)
        for n in (1, 2, 3)
        for c in range(2, 5)
        for cp in range(1, c)
        for pair in enumerate_nested_monomial(cp, c, charts=1, n=n)
    ]


def test_the_oracle_flips_just_past_three_walls():
    # from the cone's centre in (u, v, w), step 1e-6 past one wall: u < 0
    # is past theta2 = -theta1, v > 1 past theta4 = 0, w > 1 past the sum
    # wall theta1 + theta2 + (theta3 + theta4)(c - c') = 0.  The first two
    # are walls for every rep, the sum one exactly where c - c' = 1
    half = Fraction(1, 2)
    steps = {
        "theta2 = -theta1": (-EPS, half, half),
        "theta4 = 0": (half, 1 + EPS, half),
        "sum": (half, half, 1 + EPS),
    }
    reps = _origin_reps()
    assert len(reps) == 87
    flipped = {wall: [] for wall in steps}
    for x in reps:
        assert oracle_semistable_fixed(x, _theta(x.c, x.cp, Fraction(1), half, half, half))
        for wall, (u, v, w) in steps.items():
            p = _theta(x.c, x.cp, Fraction(1), u, v, w)
            assert not in_enh_cone(p, x.c, x.cp)
            if not oracle_semistable_fixed(x, p):
                flipped[wall].append(x)
    assert flipped["theta2 = -theta1"] == flipped["theta4 = 0"] == reps
    assert flipped["sum"] == [x for x in reps if x.c - x.cp == 1]
    assert len(flipped["sum"]) == 39
