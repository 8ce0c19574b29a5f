import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nestquiv import (
    BadPair,
    DomainError,
    NestedIdealPair,
    NestquivError,
    NotAnIdeal,
    NotCommuting,
    NotStable,
    RationalMatrix,
    RelationsViolated,
    ShapeMismatch,
    SingularAnu,
    ZeroCycleIdeal,
    act,
    adhm_from_ideal,
    build_nested_adhm,
    contains,
    default_theta,
    enh_residuals,
    enumerate_nested_monomial,
    ideal_from_adhm,
    inclusion_matrix,
    monomial_ideal,
    nested_to_rep,
    rep_to_nested,
    same_orbit,
)
from nestquiv.chart import _nested, chart_extract, first_regular, pencil
from nestquiv.cli import main
from nestquiv.ideals import _inclusion
from nestquiv.corpus import (
    CHART_FIRST,
    CHART_MIXED,
    CHART_SECOND,
    ideal_of_points,
    random_gauge,
    random_nested_pair,
)

from nestquiv.ratmat import kernel_basis, rank
from nestquiv.stability import kernel_subrep

from conftest import (
    M, basis_product_inclusion, checked_nested_to_rep, conversion_sample, nu, perturbed_rep, random_fat_pair,
)


def hand_pair() -> NestedIdealPair:
    return NestedIdealPair(nu=nu(1, 0), big=monomial_ideal((2,)), small=monomial_ideal((1,)))


def test_nested_to_rep_frozen():
    x = nested_to_rep(hand_pair(), 1)
    assert x.left.A1 == M([[0, 1], [0, 0]])
    assert x.left.A2 == M([[1, 0], [0, 1]])
    assert x.left.C[0] == M([[0, 0], [0, 0]])
    assert x.left.J == M([[1, 0]])
    assert x.Ap1 == M([[0]]) and x.Ap2 == M([[1]])
    assert x.Cp[0] == M([[0]])
    assert x.F1 == M([[0, 1]]) and x.F2 == x.F1
    assert all(r.is_zero() for r in enh_residuals(x))


def test_round_trip_hand_pair():
    pair = hand_pair()
    for n in (1, 2, 3):
        x = nested_to_rep(pair, n)
        assert rep_to_nested(x, default_theta(2, 1)) == pair


def test_rep_to_nested_rejects_unsupported():
    x = nested_to_rep(hand_pair(), 1)
    with pytest.raises(DomainError):
        nested_to_rep(hand_pair(), 0)
    bad = type(x)(left=x.left, cp=0, Ap1=M([[0, 0], [0, 0]]), Ap2=M([[1, 0], [0, 1]]),
                  Cp=(M([[0, 0], [0, 0]]),), F1=M([[1, 0], [0, 1]]), F2=M([[1, 0], [0, 1]]))
    with pytest.raises(DomainError):
        rep_to_nested(bad, default_theta(2, 0))


def test_nested_to_rep_refuses_a_big_basis_that_is_not_an_ideal():
    # the relation verdict nested_to_rep records rests on adhm_from_ideal's
    # commutator check: y^2 - 1, xy, x^2 - 1, y - x has the staircase 1, x
    # but its multiplications by x and y do not commute
    rows = [[-1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [-1, 0, 0, 1, 0, 0], [0, -1, 1, 0, 0, 0]]
    big = ZeroCycleIdeal(c=2, d=2, basis=M(rows))
    with pytest.raises(NotAnIdeal):
        big.validate()
    pair = NestedIdealPair(nu=nu(1, 0), big=big, small=monomial_ideal((1,)))
    for n in (1, 2):
        with pytest.raises(NotCommuting):
            nested_to_rep(pair, n)


def test_rep_to_nested_rejects_unstable():
    x = nested_to_rep(hand_pair(), 1)
    unstable = type(x)(left=x.left, cp=1, Ap1=x.Ap1, Ap2=x.Ap2, Cp=x.Cp,
                       F1=M([[0, 0]]), F2=x.F2)
    with pytest.raises(NotStable):
        rep_to_nested(unstable, default_theta(2, 1))


def test_forced_chart():
    pair = hand_pair()
    x = nested_to_rep(pair, 1)
    p = default_theta(2, 1)
    moved = rep_to_nested(x, p, nu=nu(1, 1))
    assert moved.nu == nu(1, 1)
    assert moved != pair
    with pytest.raises(SingularAnu):
        # the [0,1] pencil of this rep is the nilpotent -b1
        rep_to_nested(nested_to_rep(
            NestedIdealPair(nu=nu(0, 1), big=pair.big, small=pair.small), 1
        ), p, nu=nu(1, 0))


def test_chart_scan_prefers_earliest_regular():
    rng = random.Random(21)
    p = default_theta(3, 1)
    for chart in (CHART_FIRST, CHART_SECOND, CHART_MIXED):
        pair = random_nested_pair(rng, 3, 1, chart)
        back = rep_to_nested(nested_to_rep(pair, 2), p)
        assert back.nu == chart
        assert back == pair


def test_same_orbit_positive_and_negative():
    rng = random.Random(22)
    p = default_theta(3, 2)
    pair = random_nested_pair(rng, 3, 2, CHART_FIRST)
    x = nested_to_rep(pair, 1)
    y = act(random_gauge(rng, 3, 1), x)
    assert same_orbit(x, y, p)
    other = random_nested_pair(rng, 3, 2, CHART_FIRST)
    assert other != pair
    z = nested_to_rep(other, 1)
    assert not same_orbit(x, z, p)


def test_same_orbit_shape_rules():
    p = default_theta(2, 1)
    x = nested_to_rep(hand_pair(), 1)
    y = nested_to_rep(hand_pair(), 2)
    with pytest.raises(ShapeMismatch):
        same_orbit(x, y, p)
    rng = random.Random(23)
    big3 = random_nested_pair(rng, 3, 1, CHART_FIRST)
    z = nested_to_rep(big3, 1)
    assert same_orbit(x, z, p) is False


def test_same_orbit_requires_stability():
    p = default_theta(2, 1)
    x = nested_to_rep(hand_pair(), 1)
    unstable = type(x)(left=x.left, cp=1, Ap1=x.Ap1, Ap2=x.Ap2, Cp=x.Cp,
                       F1=M([[0, 0]]), F2=x.F2)
    with pytest.raises(NotStable):
        same_orbit(x, unstable, p)


def test_kernel_cycle_is_the_small_one():
    # the small cycle of the pair is exactly the cycle of the kernel part
    rng = random.Random(24)
    pair = random_nested_pair(rng, 4, 2, CHART_FIRST)
    x = nested_to_rep(pair, 1)
    back = rep_to_nested(x, default_theta(4, 2))
    assert back.small == pair.small and back.big == pair.big


def test_kernel_pencil_is_regular_where_the_left_pencil_is():
    # k2 P' = P k1 for the kernel bases k1, k2, so the conversion scans
    # test only the left pencils
    assert conversion_sample(2) == [nu(1, 0), nu(0, 1), nu(1, 1), nu(1, 2)]
    rng = random.Random(25)
    tried = singular = 0
    for c in (2, 3, 4, 5):
        for n in (1, 2, 3):
            for chart in (CHART_FIRST, CHART_SECOND, CHART_MIXED):
                cp = rng.randint(1, c - 1)
                pair = random_nested_pair(rng, c, cp, chart)
                x = act(random_gauge(rng, c, c - cp), nested_to_rep(pair, n))
                kern = kernel_subrep(x)
                for cand in conversion_sample(2 * c + 1):
                    if rank(pencil(x.left.A1, x.left.A2, cand)) < c:
                        singular += 1
                        continue
                    tried += 1
                    assert rank(pencil(kern.A1, kern.A2, cand)) == cp
    assert tried and singular


def _violating_rep():
    """A valid representation and a stable copy whose left C2 breaks the
    relations but still maps ker F2 into ker F1; the [1,0] readings use
    only C1, so the copy reads as a pair unless the relations are checked."""
    rng = random.Random(3)
    pair = random_nested_pair(rng, 3, 1, CHART_FIRST)
    x = act(random_gauge(rng, 3, 2), nested_to_rep(pair, 2))
    cs = list(x.left.C)
    cs[1] = cs[1] + kernel_basis(x.F1) @ RationalMatrix([[1, 2, -1]])
    return x, replace(x, left=replace(x.left, C=tuple(cs)))


def test_conversions_reject_violated_relations():
    x, bad = _violating_rep()
    p = default_theta(3, 1)
    assert [i for i, r in enumerate(enh_residuals(bad)) if not r.is_zero()] == [0, 1]
    for convert in (lambda: rep_to_nested(bad, p), lambda: same_orbit(bad, x, p),
                    lambda: same_orbit(x, bad, p)):
        with pytest.raises(RelationsViolated, match=r"nonzero residuals \[0, 1\]"):
            convert()


def test_convert_rep_to_cycle_rejects_violated_relations(tmp_path, capsys):
    _, bad = _violating_rep()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    assert main(["check", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["nonzero_residuals"] == [0, 1]
    assert main(["convert", "rep-to-cycle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonzero residuals [0, 1]" in captured.err


# about one draw in eight keeps both readings: in the chart [1,0] they
# read only A1, A2 and C1, each left unperturbed with probability 1/2
@settings(max_examples=25, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=3),
)
def test_kernel_readings_are_nested(seed, c, n):
    # wherever both chart readings of a kernel-preserving datum succeed,
    # the big ideal lies in the small one, which _pair_at relies on unchecked
    x = perturbed_rep(random.Random(seed), c, n, preserving=True)
    kern = kernel_subrep(x)
    nu0 = first_regular([(x.left.A1, x.left.A2)], conversion_sample(c))
    assume(nu0 is not None)
    try:
        big = ideal_from_adhm(chart_extract(x.left, nu0))
        small = ideal_from_adhm(chart_extract(kern, nu0))
    except NestquivError:
        assume(False)
    assert contains(big, small)


# -- nesting, checked once -------------------------------------------


def _unrecorded(i: ZeroCycleIdeal) -> ZeroCycleIdeal:
    """An equal ideal that is not recorded as built as one."""
    return ZeroCycleIdeal(c=i.c, d=i.d, basis=i.basis)


def _assert_one_nesting_check_agrees(pair, n):
    # the one path (_inclusion, then _nested without checks) builds what
    # the checked construction does, the test-side oracle, for the pair and
    # for its unrecorded copy read back from JSON
    big, small = adhm_from_ideal(pair.big), adhm_from_ideal(pair.small)
    checked = build_nested_adhm(small, big, basis_product_inclusion(pair.big, small))
    assert _nested(small, big, _inclusion(pair.big, big, small)) == checked
    copy = NestedIdealPair.from_json(pair.to_json())
    assert not (copy.big._closed or copy.small._closed)
    assert inclusion_matrix(copy.big, copy.small) == inclusion_matrix(pair.big, pair.small) == checked.incl
    want = checked_nested_to_rep(pair, n).to_json()
    assert nested_to_rep(pair, n).to_json() == nested_to_rep(copy, n).to_json() == want


def test_recorded_pairs_that_are_not_nested_are_refused():
    # (x^3, y) does not lie in (x, y^2): y is in the first only
    big, small = monomial_ideal((3,)), monomial_ideal((1, 1))
    assert big._closed and small._closed and not contains(big, small)
    recorded = NestedIdealPair(nu=nu(1, 0), big=big, small=small)
    for pair in (
        recorded,
        NestedIdealPair(nu=nu(1, 0), big=_unrecorded(big), small=_unrecorded(small)),
        NestedIdealPair(nu=nu(1, 0), big=big, small=_unrecorded(small)),
        NestedIdealPair.from_json(recorded.to_json()),
    ):
        for n in (1, 2):
            with pytest.raises(BadPair, match="ideals are not nested"):
                nested_to_rep(pair, n)
            with pytest.raises(BadPair, match="ideals are not nested"):
                checked_nested_to_rep(pair, n)
        with pytest.raises(BadPair, match="ideals are not nested"):
            inclusion_matrix(pair.big, pair.small)
    with pytest.raises(BadPair, match="ideals are not nested"):
        _inclusion(big, adhm_from_ideal(big), adhm_from_ideal(small))


def test_one_nesting_check_on_enumerated_pairs():
    for n in (1, 2, 3):
        for c in range(2, 5):
            for cp in range(1, c):
                for pair in enumerate_nested_monomial(cp, c, charts=2, n=n):
                    _assert_one_nesting_check_agrees(pair, n)


@settings(max_examples=25)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([CHART_FIRST, CHART_SECOND, CHART_MIXED]),
    st.booleans(),
)
def test_one_nesting_check_on_scrambled_pairs(seed, c, n, chart, reduced):
    # pairs read back off gauge-scrambled representations, of reduced
    # cycles and of unions of fat points
    rng = random.Random(seed)
    pair = random_nested_pair(rng, c, rng.randint(1, c - 1), chart) if reduced else random_fat_pair(rng, c, chart)
    x = act(random_gauge(rng, c, c - pair.small.c), nested_to_rep(pair, n))
    back = rep_to_nested(x, default_theta(c, pair.small.c))
    assert back == pair and back.big._closed and back.small._closed
    _assert_one_nesting_check_agrees(back, n)
