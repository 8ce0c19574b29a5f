"""Where `AdhmData`'s commutator is trusted and where it is still formed.

`chart._commuting` builds a datum without forming [b1, b2] at three sites
whose construction proves the pair commutes; `trusted_commutators` checks
each such datum.  Everything else keeps the check: a representation
without a kept zero verdict or with a nonzero I_q, and an ideal not
recorded as built as one, whose closure `adhm_from_ideal` then checks
too, since border data can commute where the basis is not an ideal.
"""

import contextlib
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nestquiv.ideals
from nestquiv import (
    HirzRep,
    NestedIdealPair,
    NotAnIdeal,
    NotCommuting,
    RelationsViolated,
    ZeroCycleIdeal,
    act,
    adhm_from_ideal,
    chart_extract,
    default_theta,
    enumerate_nested_monomial,
    inclusion_matrix,
    monomial_ideal,
    nested_to_rep,
    partitions,
    rep_to_nested,
    same_orbit,
)
from nestquiv.chart import chart_blocks
from nestquiv.corpus import (
    CHART_FIRST, CHART_MIXED, CHART_SECOND, ideal_of_points, random_gauge, random_nested_pair, random_points,
)
from nestquiv.monomials import monomials_upto
from nestquiv.quiver import _keep_relations

from conftest import M, injected_family, nu, random_fat_pair, trusted_commutators

SITES = {"chart_extract", "adhm_from_ideal", "_fixed_cycle_ideal"}


def _round_trip(pair, n, rng):
    """nested_to_rep, a gauge image, both read back and compared."""
    c, cp = pair.big.c, pair.small.c
    p = default_theta(c, cp)
    x = nested_to_rep(pair, n)
    y = act(random_gauge(rng, c, c - cp), x)
    assert rep_to_nested(y, p) == rep_to_nested(x, p) == pair
    assert same_orbit(x, y, p)


def test_enumerated_pairs_commute_where_trusted():
    rng = random.Random(27)
    with trusted_commutators() as sites:
        for n in (1, 2, 3):
            for c in range(2, 5):
                for cp in range(1, c):
                    for pair in enumerate_nested_monomial(cp, c, charts=2, n=n):
                        _round_trip(pair, n, rng)
    assert set(sites) == SITES


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([CHART_FIRST, CHART_SECOND, CHART_MIXED]),
    st.booleans(),
)
def test_scrambled_pairs_commute_where_trusted(seed, c, n, chart, reduced):
    # reduced cycles in general position, and unions of fat points
    rng = random.Random(seed)
    with trusted_commutators() as sites:
        if reduced:
            pair = random_nested_pair(rng, c, rng.randint(1, c - 1), chart)
        else:
            pair = random_fat_pair(rng, c, chart)
        _round_trip(pair, n, rng)
    assert {"chart_extract", "adhm_from_ideal"} <= set(sites)


def test_commutator_of_a_chart_is_minus_i_nu_j():
    # chart_extract's argument: once the relations hold, [b1, b2] = -I_nu J
    rng = random.Random(5)
    for n in (2, 3):
        x = injected_family(n).left
        for y in [x] + [act(random_gauge(rng, 2), x) for _ in range(3)]:
            for at in (nu(1, 0), nu(1, 1), nu(1, 2), nu(3, -1)):
                b1, b2, i_nu = chart_blocks(y, at)
                assert b1 @ b2 - b2 @ b1 == (i_nu @ y.J).scale(-1)


def test_a_kept_zero_verdict_with_nonzero_framing_is_checked():
    for n in (2, 3):
        x = injected_family(n).left
        for y in (x, _keep_relations(HirzRep.from_json(x.to_json()), ())):
            assert y._nonzero_residuals == ()
            with trusted_commutators() as sites:
                with pytest.raises(RelationsViolated):
                    chart_extract(y, nu(1, 0))
            assert sites == []


# y^2 - 1, xy, x^2 - 1, y - x: the staircase 1, x, but its multiplications
# by x and y do not commute (as in test_correspondence)
NOT_AN_IDEAL = [[-1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [-1, 0, 0, 1, 0, 0], [0, -1, 1, 0, 0, 0]]


def test_replaced_and_json_read_ideals_are_checked():
    i = monomial_ideal((2, 1))
    a = adhm_from_ideal(i)
    copies = (
        replace(i),
        ZeroCycleIdeal(c=i.c, d=i.d, basis=i.basis),
        ZeroCycleIdeal.from_json(i.to_json()),
        ZeroCycleIdeal.from_rows(i.basis, i.c, i.d),
        ZeroCycleIdeal.from_normal_forms(i.standard_monomials(), i.normal_forms(), i.d),
    )
    for j in copies:
        # the record is not a field: equal, same hash, same JSON; each copy
        # is another object, with no datum kept, so its commutator is formed
        assert j == i and hash(j) == hash(i) and j.to_json() == i.to_json()
        with trusted_commutators() as sites:
            assert adhm_from_ideal(j) == a
            assert sites == []
            # a fresh recorded ideal skips it; i returns the datum kept on it
            assert adhm_from_ideal(monomial_ideal((2, 1))) == a
            assert sites == ["adhm_from_ideal"]
            assert adhm_from_ideal(i) is a
            assert sites == ["adhm_from_ideal"]


def test_a_replaced_basis_that_is_not_an_ideal_is_refused():
    good = monomial_ideal((2,))
    bad = replace(good, basis=M(NOT_AN_IDEAL))
    with pytest.raises(NotCommuting):
        adhm_from_ideal(bad)
    with pytest.raises(NotCommuting):
        adhm_from_ideal(ZeroCycleIdeal.from_normal_forms(bad.standard_monomials(), bad.normal_forms(), 2))
    with pytest.raises(NotAnIdeal):
        ZeroCycleIdeal.from_json(bad.to_json())


# Bases whose border data commute although they are not ideals: over
# 1, x, y, x^2, xy, y^2, the rows y, x^2, xy, y^2 - x carry the datum of
# (x^2, y), and x, y, x^2 - 5, xy, y^2 that of (x, y)
BORDER_COMMUTES_C2 = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, -1, 0, 0, 0, 1]]
BORDER_COMMUTES_C1 = [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [-5, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                      [0, 0, 0, 0, 0, 1]]


def _assert_refused(bad: ZeroCycleIdeal, pair: NestedIdealPair, errors) -> None:
    """adhm_from_ideal(bad), the pair's inclusion_matrix and its
    nested_to_rep (n = 1, 2) each raise one of errors."""
    with pytest.raises(errors):
        adhm_from_ideal(bad)
    with pytest.raises(errors):
        inclusion_matrix(pair.big, pair.small)
    for n in (1, 2):
        with pytest.raises(errors):
            nested_to_rep(pair, n)


def test_a_basis_whose_border_commutes_is_refused_unless_closed():
    big = ZeroCycleIdeal(c=2, d=2, basis=M(BORDER_COMMUTES_C2))
    with pytest.raises(NotAnIdeal):
        big.validate()
    _assert_refused(big, NestedIdealPair(nu=nu(1, 0), big=big, small=monomial_ideal((1,), d=1)), NotAnIdeal)
    # at c = 1 every datum commutes; refused as the small ideal of a pair
    small = ZeroCycleIdeal(c=1, d=2, basis=M(BORDER_COMMUTES_C1))
    _assert_refused(small, NestedIdealPair(nu=nu(1, 0), big=monomial_ideal((2,)), small=small), NotAnIdeal)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=5), st.booleans())
def test_a_perturbed_row_off_the_border_is_refused(seed, c, points):
    # a pivot row whose pivot is no x or y times a standard monomial,
    # perturbed at the standard columns below its pivot: the basis stays
    # in echelon form and its border datum, which commutes, is unchanged,
    # so only the closure check sees the row leave the ideal
    rng = random.Random(seed)
    if points:
        pts = random_points(rng, c)
        good, small = ideal_of_points(pts), ideal_of_points(pts[:1])
    else:
        good, small = monomial_ideal(rng.choice(partitions(c))), monomial_ideal((1,))
    mons = monomials_upto(good.d)
    std = [mons.index(m) for m in good.standard_monomials()]
    border = {mons.index((a + da, b + db)) for a, b in good.standard_monomials() for da, db in ((1, 0), (0, 1))}
    rows = [list(row) for row in good.basis.data]
    pivot = lambda row: max(j for j, v in enumerate(row) if v)
    row = rng.choice([row for row in rows if pivot(row) not in border])
    below = [j for j in std if j < pivot(row)]  # 1 is always there
    for j in below:
        row[j] += rng.randint(-2, 2)
    row[rng.choice(below)] += rng.choice([-3, 3])  # so that column moves, by 1 to 5
    bad = ZeroCycleIdeal(c=good.c, d=good.d, basis=M(rows))
    assert bad.standard_monomials() == good.standard_monomials()
    _assert_refused(bad, NestedIdealPair(nu=CHART_FIRST, big=bad, small=small), NotAnIdeal)


@pytest.mark.parametrize("rows", [None, NOT_AN_IDEAL, BORDER_COMMUTES_C2], ids=["ideal", "not commuting", "not closed"])
def test_the_gate_reads_an_unrecorded_basis_once(monkeypatch, rows):
    # adhm_from_ideal reads the pivots of an unrecorded basis once, for its
    # datum and its closure check alike; validate alone reads them once
    j = ZeroCycleIdeal(c=2, d=2, basis=monomial_ideal((2,)).basis if rows is None else M(rows))
    reads = []
    pivot_rows = nestquiv.ideals._pivot_rows
    monkeypatch.setattr(nestquiv.ideals, "_pivot_rows", lambda basis: reads.append(1) or pivot_rows(basis))
    for check in (adhm_from_ideal, ZeroCycleIdeal.validate):
        reads.clear()
        with contextlib.suppress(NotCommuting, NotAnIdeal):
            check(j)
        assert len(reads) == 1, check.__name__
