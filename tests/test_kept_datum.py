"""What depends only on an object is read once: a chart whose pencil is the
identity, the datum an ideal's gate proves, a partition's monomial ideal,
and a representation's conversion chart and (C1).

`chart_blocks` reads a representation at the chart it was embedded in,
where A_nu is exactly the identity, with no inversion; `adhm_from_ideal`
keeps the datum and staircase it proves on the ideal, and `_inclusion`
reads that staircase; `enumerate_nested_monomial` builds each partition's
monomial ideal once per call and transports nothing; the conversions'
chart is kept on the left part and the answer to (C1) on the
representation.
Each is compared here with the path it shortens.
"""

import random
from dataclasses import replace

import pytest

import nestquiv.chart
import nestquiv.ideals
import nestquiv.stability
from nestquiv import (
    ConeViolation, EnhThetaParam, NotAnIdeal, NotCommuting, ZeroCycleIdeal, act, adhm_from_ideal, chart_embed,
    default_theta, enumerate_nested_monomial, inclusion_matrix, is_theta_stable, monomial_ideal, nested_to_rep,
    partitions, pencil_combos, rep_to_nested, same_orbit,
)
from nestquiv.chart import chart_blocks
from nestquiv.corpus import ideal_of_points, random_gauge, random_nested_pair, random_points
from nestquiv.ratmat import RationalMatrix, invert

from conftest import M, nu

CHARTS = (nu(1, 0), nu(0, 1), nu(1, 1), nu(1, 2))


def _counting(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends its arguments to the
    returned list on each call."""
    calls = []
    orig = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# -- the identity pencil -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_identity_pencil_is_read_without_inversion(monkeypatch, n):
    rng = random.Random(n)
    # counted through chart's binding, so the oracle's own inversions are not
    inversions = _counting(monkeypatch, nestquiv.chart, "invert")
    data = [adhm_from_ideal(monomial_ideal(lam)) for c in (1, 2, 3) for lam in partitions(c)]
    data += [adhm_from_ideal(ideal_of_points(random_points(rng, c))) for c in (2, 3)]
    gauged = 0
    for at in CHARTS:
        for a in data:
            x = chart_embed(a, at, n)
            a_nu, d_nu, c_nu, i_nu = pencil_combos(x, at)
            assert a_nu == RationalMatrix.identity(a.c)
            inversions.clear()
            assert chart_blocks(x, at) == (invert(a_nu) @ d_nu, c_nu @ a_nu, i_nu) == (d_nu, c_nu, i_nu)
            assert inversions == []
            # a gauge image has another pencil, and takes the inversion path
            y = act(random_gauge(rng, a.c), x)
            a_nu, d_nu, c_nu, i_nu = pencil_combos(y, at)
            if a_nu == RationalMatrix.identity(a.c):
                continue
            gauged += 1
            inversions.clear()
            assert chart_blocks(y, at) == (invert(a_nu) @ d_nu, c_nu @ a_nu, i_nu)
            assert len(inversions) == 1
    assert gauged > len(data) * len(CHARTS) // 2


# -- the datum kept on an ideal ------------------------------------------


def _ideals():
    rng = random.Random(31)
    return [
        monomial_ideal((2, 1)),
        ideal_of_points(random_points(rng, 3)),
        random_nested_pair(rng, 4, 2, nu(1, 1)).big,
        ZeroCycleIdeal.from_json(monomial_ideal((3, 1)).to_json()),
    ]


def test_the_gate_keeps_its_datum_on_the_ideal(monkeypatch):
    reads = _counting(monkeypatch, ZeroCycleIdeal, "_reduced")
    closures = _counting(monkeypatch, ZeroCycleIdeal, "_closure")
    for i in _ideals():
        a = adhm_from_ideal(i)
        reads.clear()
        closures.clear()
        assert all(adhm_from_ideal(i) is a for _ in range(3))
        assert reads == closures == []
        # a copy is another object: no datum kept, so it is gated again,
        # with its closure checked, as it is recorded as no ideal
        for j in (replace(i), ZeroCycleIdeal.from_json(i.to_json()), ZeroCycleIdeal.from_rows(i.basis, i.c, i.d)):
            closures.clear()
            b = adhm_from_ideal(j)
            assert b == a and b is not a
            assert len(closures) == 1
            assert adhm_from_ideal(j) is b and len(closures) == 1


def test_the_inclusion_reads_the_kept_staircase(monkeypatch):
    rng = random.Random(7)
    pairs = [random_nested_pair(rng, 4, 2, chart) for chart in (nu(1, 0), nu(0, 1), nu(1, 1))]
    pairs += enumerate_nested_monomial(2, 4, charts=2, n=2)
    staircases = _counting(monkeypatch, ZeroCycleIdeal, "standard_monomials")
    for pair in pairs:
        assert inclusion_matrix(pair.big, pair.small).rows == pair.big.c
        assert nested_to_rep(pair, 2).F1.rows == pair.big.c - pair.small.c
    assert staircases == []
    # the staircase the gate kept is the basis's
    monkeypatch.undo()
    assert all(pair.big._kept["std"] == pair.big.standard_monomials() for pair in pairs)


# y^2 - 1, xy, x^2 - 1, y - x: multiplications by x and y that do not
# commute; y, x^2, xy, y^2 - x: the commuting border datum of (x^2, y),
# but not closed (as in test_commutators)
NOT_COMMUTING = [[-1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [-1, 0, 0, 1, 0, 0], [0, -1, 1, 0, 0, 0]]
NOT_CLOSED = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, -1, 0, 0, 0, 1]]


def test_a_basis_that_is_not_an_ideal_raises_on_every_call():
    for rows, error in ((NOT_COMMUTING, NotCommuting), (NOT_CLOSED, NotAnIdeal)):
        bad = ZeroCycleIdeal(c=2, d=2, basis=M(rows))
        for _ in range(3):
            with pytest.raises(error):
                adhm_from_ideal(bad)
        # a good ideal's gate passing leaves a replaced bad basis unproven
        good = monomial_ideal((2,))
        adhm_from_ideal(good)
        for _ in range(2):
            with pytest.raises(error):
                adhm_from_ideal(replace(good, basis=M(rows)))


def test_a_kept_left_part_alone_proves_nothing(monkeypatch):
    # nested_to_rep keeps its left part on the big ideal beside the datum;
    # an ideal that carries such an entry and no datum is gated as any
    # other: a basis that is not an ideal's raises on every call, and an
    # unrecorded one has its closure checked once
    left = chart_embed(adhm_from_ideal(monomial_ideal((2,))), nu(1, 0), 2)
    closures = _counting(monkeypatch, ZeroCycleIdeal, "_closure")
    for rows, error in ((NOT_COMMUTING, NotCommuting), (NOT_CLOSED, NotAnIdeal)):
        bad = ZeroCycleIdeal(c=2, d=2, basis=M(rows))
        bad._kept[nu(1, 0), 2] = left
        for _ in range(2):
            with pytest.raises(error):
                adhm_from_ideal(bad)
        assert list(bad._kept) == [(nu(1, 0), 2)]
    good = ZeroCycleIdeal.from_json(monomial_ideal((2,)).to_json())
    good._kept[nu(1, 0), 2] = left
    closures.clear()
    assert adhm_from_ideal(good) == adhm_from_ideal(monomial_ideal((2,)))
    assert len(closures) == 1 and list(good._kept) == [(nu(1, 0), 2), "adhm", "std"]


# -- torus-fixed cycles from their staircases ---------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_enumeration_builds_its_cycles_from_staircases(monkeypatch, n):
    # no chart transport: no embedding, extraction or A_nu inversion; one
    # monomial_ideal per distinct partition, and at most one inversion per
    # mixed cycle, its closure scan's gauge; the same pairs as with no cache
    chart_calls = [_counting(monkeypatch, nestquiv.chart, name)
                   for name in ("transform_chart", "chart_embed", "chart_extract", "chart_blocks")]
    inversions = _counting(monkeypatch, nestquiv.chart, "invert")
    built = _counting(monkeypatch, nestquiv.ideals, "monomial_ideal")
    for cp, c in ((0, 3), (1, 3), (2, 4), (3, 4), (2, 5)):
        inversions.clear()
        built.clear()
        pairs = enumerate_nested_monomial(cp, c, charts=2, n=n)
        assert chart_calls == [[], [], [], []]
        assert len(built) == len(set(built)) == len({lam for (lam,) in built}) > 0
        mixed = {id(i): i for pair in pairs if pair.nu == nu(1, 1) for i in (pair.big, pair.small) if i.c}
        assert 0 < len(inversions) <= len(mixed)
        with monkeypatch.context() as uncached:
            uncached.setattr(nestquiv.ideals, "cache", lambda f: f)
            built.clear()
            assert enumerate_nested_monomial(cp, c, charts=2, n=n) == pairs
            assert len(built) > len(set(built))


# -- what a conversion keeps on the representation ------------------------


@pytest.mark.parametrize("chart", [nu(1, 0), nu(0, 1), nu(1, 1)], ids=["[1,0]", "[0,1]", "[1,1]"])
def test_same_orbit_after_the_conversions_ranks_nothing(monkeypatch, chart):
    # the conversions' chart is kept on the left part and (C1) on the
    # representation, so same_orbit after rep_to_nested of both inputs
    # ranks no pencil and no F
    rng = random.Random(41)
    rep = nested_to_rep(random_nested_pair(rng, 4, 2, chart), 2)
    x, y = (act(random_gauge(rng, 4, 2), rep) for _ in range(2))
    p = default_theta(4, 2)
    for z in (x, y):
        rep_to_nested(z, p)
    ranks = [_counting(monkeypatch, module, "rank") for module in (nestquiv.chart, nestquiv.stability)]
    assert same_orbit(x, y, p) and same_orbit(y, x, p)
    assert ranks == [[], []]


def test_c1_is_kept_and_the_cone_is_checked_on_every_call(monkeypatch):
    x = nested_to_rep(random_nested_pair(random.Random(43), 4, 2, nu(1, 0)), 2)
    p, outside = default_theta(4, 2), EnhThetaParam(1, 0, 1, -1)
    ranks = _counting(monkeypatch, nestquiv.stability, "rank")
    for z, witness, first in ((x, None, 2), (replace(x, F2=RationalMatrix.zeros(2, 4)), "(C1) F2", 2),
                              (replace(x, F1=RationalMatrix.zeros(2, 4)), "(C1) F1", 1)):
        ranks.clear()
        assert is_theta_stable(z, p).witness == witness
        assert len(ranks) == first
        assert is_theta_stable(z, p).witness == witness and len(ranks) == first
        for _ in range(2):
            with pytest.raises(ConeViolation):
                is_theta_stable(z, outside)
