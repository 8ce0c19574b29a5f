"""Torus-fixed cycles from their staircases, and basis columns by formula.

`ideals._fixed_cycle_ideal` shifts each block of a mixed cycle to its
point of [1, 1] instead of transporting it there; `chart.transform_chart`,
the transport, is the oracle here.  `monomials.position` is checked
against the index in `monomials_upto(d)`, and
`ZeroCycleIdeal.from_normal_forms` against a list-search reference.
"""

import json
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestquiv import (
    ShapeMismatch, ZeroCycleIdeal, adhm_from_ideal, enumerate_nested_monomial, ideal_from_adhm, monomial_ideal,
    partitions, transform_chart,
)
from nestquiv.chart import CHART_FIRST, CHART_MIXED, CHART_SECOND, AdhmData
from nestquiv.ideals import _fixed_cycle_ideal
from nestquiv.monomials import count_upto, monomials_upto, position
from nestquiv.ratmat import RationalMatrix, block_diag

HOMES = ((CHART_FIRST, -1), (CHART_SECOND, 1))


def _shifted(lam, a: int) -> AdhmData:
    """The datum of lam's monomial ideal with b1 shifted by a."""
    t = adhm_from_ideal(monomial_ideal(lam))
    return AdhmData(c=t.c, b1=t.b1 + RationalMatrix.identity(t.c).scale(a), b2=t.b2, e=t.e)


def _join(data) -> AdhmData:
    return AdhmData(
        c=sum(t.c for t in data),
        b1=block_diag([t.b1 for t in data]),
        b2=block_diag([t.b2 for t in data]),
        e=reduce(RationalMatrix.hstack, (t.e for t in data), RationalMatrix.zeros(1, 0)),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_shifted_block_is_its_transport(n):
    for c in range(1, 6):
        for lam in partitions(c):
            for home, a in HOMES:
                moved = transform_chart(adhm_from_ideal(monomial_ideal(lam)), home, CHART_MIXED, n)
                assert ideal_from_adhm(moved) == ideal_from_adhm(_shifted(lam, a))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_mixed_cycle_is_the_join_of_transported_blocks(n):
    # every cycle of length 1 .. 5 split between the two fixed points, read
    # in [1, 1], against the join of its transported blocks; they include
    # every mixed ideal the enumerations up to c = 5 produce, and the rest
    # are the length-5 cycles at one point, which are never a small cycle
    built = {}
    for c in range(1, 6):
        for c1 in range(c + 1):
            for lam1 in partitions(c1):
                for lam2 in partitions(c - c1):
                    ideal = _fixed_cycle_ideal(lam1, lam2, CHART_MIXED, monomial_ideal)
                    moved = [
                        transform_chart(adhm_from_ideal(monomial_ideal(lam)), home, CHART_MIXED, n)
                        for lam, (home, _) in zip((lam1, lam2), HOMES)
                        if lam
                    ]
                    assert ideal == ideal_from_adhm(_join(moved))
                    built[json.dumps(ideal.to_json())] = lam1, lam2
    enumerated = {
        json.dumps(i.to_json())
        for c in range(2, 6)
        for cp in range(c)
        for pair in enumerate_nested_monomial(cp, c, charts=2, n=n)
        if pair.nu == CHART_MIXED
        for i in (pair.big, pair.small)
        if i.c
    }
    assert enumerated <= set(built)
    assert all(sum(lam1 + lam2) == 5 and not (lam1 and lam2) for lam1, lam2 in map(built.get, set(built) - enumerated))


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
def test_the_pairs_do_not_depend_on_n(c):
    for cp in range(c):
        first = [pair.to_json() for pair in enumerate_nested_monomial(cp, c, 2, 1)]
        for n in (2, 3):
            assert [pair.to_json() for pair in enumerate_nested_monomial(cp, c, 2, n)] == first


def test_position_is_the_index_in_the_frozen_order():
    for d in range(13):
        mons = monomials_upto(d)
        assert [position(a, b) for a, b in mons] == list(range(count_upto(d)))
        assert all(position(a, b) == mons.index((a, b)) for a, b in mons)


def _list_search(std, nf: RationalMatrix, d: int) -> ZeroCycleIdeal:
    """The reference `ZeroCycleIdeal.from_normal_forms`: a search of the
    monomial list for each standard column, and of the standard columns
    for each row."""
    mons = monomials_upto(d)
    if nf.rows != len(mons) or nf.cols != len(std):
        raise ShapeMismatch("normal forms need one row per monomial, one column per standard one")
    cols = [mons.index(m) for m in std]
    rows = []
    for f in reversed(range(len(mons))):
        if f not in cols:
            row = [0] * len(mons)
            row[f] = nf.den
            for k, x in zip(cols, nf.num[f]):
                row[k] = -x
            rows.append(row)
    return ZeroCycleIdeal(c=len(std), d=d, basis=RationalMatrix._wrap(rows, nf.den, len(mons)))


@st.composite
def _staircase_and_forms(draw):
    c = draw(st.integers(0, 6))
    lam = draw(st.sampled_from(partitions(c)))
    d = c + draw(st.integers(0, 2))
    std = [(a, b) for a, b in monomials_upto(d) if b < len(lam) and a < lam[b]]
    den = draw(st.integers(1, 12))
    entries = st.integers(-9, 9)
    num = [[draw(entries) for _ in std] for _ in range(count_upto(d))]
    return std, RationalMatrix._wrap(num, den, len(std)), d


@given(_staircase_and_forms())
def test_from_normal_forms_matches_the_list_search(case):
    std, nf, d = case
    assert ZeroCycleIdeal.from_normal_forms(std, nf, d) == _list_search(std, nf, d)


def test_from_normal_forms_refuses_a_shape_as_before():
    std = [(0, 0), (1, 0)]
    for nf in (RationalMatrix.zeros(count_upto(2), 3), RationalMatrix.zeros(count_upto(2) - 1, 2)):
        messages = []
        for build in (ZeroCycleIdeal.from_normal_forms, _list_search):
            with pytest.raises(ShapeMismatch) as info:
                build(std, nf, 2)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
