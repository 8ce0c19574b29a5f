"""Pairs that share a big cycle share its left part.

`nested_to_rep` keeps the left part it embeds on the big ideal, keyed by
(chart, n), so every reading that depends on the left part alone (the
verdict, the conversions' chart, the closure scan and its normal forms)
is made once per distinct big ideal, chart and n.  Each pair is compared
here with a fresh copy, new ideal objects that share nothing: the
readings, their messages and what is kept must not tell them apart.
"""

import gc
import random
import weakref
from dataclasses import replace

import pytest

import nestquiv.correspondence
import nestquiv.stability
from nestquiv import (
    BadPair, NestedIdealPair, NestquivError, act, default_theta, enumerate_nested_monomial, is_theta_stable,
    monomial_ideal, nested_to_rep, rep_to_nested, same_orbit,
)
from nestquiv.corpus import (
    CHART_FIRST, CHART_MIXED, CHART_SECOND, _anchors_for, ideal_of_points, random_gauge, random_nested_pair,
    random_points,
)

from conftest import nu


def _fresh(pair: NestedIdealPair) -> NestedIdealPair:
    """pair with new ideal objects, on which nothing is kept or recorded."""
    return replace(pair, big=replace(pair.big), small=replace(pair.small))


def _outcome(read):
    """read()'s value, or its error's class and message."""
    try:
        return read()
    except NestquivError as error:
        return type(error).__name__, str(error)


def _readings(x, p, other):
    """What a caller reads off x: the round trip, the verdict, a reading in
    a forced chart and the comparison with other, then the kept keys."""
    out = [
        _outcome(lambda: rep_to_nested(x, p).to_json()),
        _outcome(lambda: is_theta_stable(x, p)),
        _outcome(lambda: rep_to_nested(x, p, nu=nu(1, 2)).to_json()),
        _outcome(lambda: same_orbit(x, other, p)),
        _outcome(lambda: same_orbit(other, x, p)),
    ]
    return out, list(x.left._kept), list(x._kept)


def _run(pairs, n, scramble=None):
    """The readings of each pair's representation, compared with the one
    before it, and the big ideal's kept keys for the pair's own chart (a
    monomial ideal serves both pure charts of an enumeration); scramble(x)
    is read instead of x when given."""
    out, other = [], None
    for pair in pairs:
        x = nested_to_rep(pair, n)
        if scramble:
            x = scramble(x)
        p = default_theta(pair.big.c, pair.small.c)
        keys = [k for k in pair.big._kept if not isinstance(k, tuple) or k[0] == pair.nu]
        out.append((_readings(x, p, x if other is None else other), keys))
        other = x
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerated_pairs_read_as_fresh_copies(n):
    for c in range(2, 6):
        for cp in range(1, c):
            pairs = enumerate_nested_monomial(cp, c, charts=2, n=n)
            assert len({id(pair.big) for pair in pairs}) < len(pairs) or c == 2
            shared = _run(pairs, n)
            assert shared == _run([_fresh(pair) for pair in pairs], n)
            # a second pass reads every left part off the big ideals
            assert _run(pairs, n) == shared


def _sharing_pairs(rng, c, chart):
    """Three reduced pairs at the chart that share one big ideal object."""
    points = random_points(rng, c, _anchors_for(chart, rng))
    big = ideal_of_points(points)
    subsets = [sorted(rng.sample(range(c), cp)) for cp in (1, c - 1, rng.randrange(1, c))]
    return [NestedIdealPair(nu=chart, big=big, small=ideal_of_points([points[i] for i in s])) for s in subsets]


def _scrambler(seed):
    """A gauge image of each representation, drawn from seed."""
    gauges = random.Random(seed)
    return lambda x: act(random_gauge(gauges, x.c, x.c - x.cp), x)


@pytest.mark.parametrize("scrambled", [False, True], ids=["plain", "act"])
def test_random_pairs_read_as_fresh_copies(scrambled):
    # pairs sharing a big ideal, and one pair read twice, as a caller that
    # keeps its pairs does
    rng = random.Random(59)
    for c in (3, 4, 5):
        for chart in (CHART_FIRST, CHART_SECOND, CHART_MIXED):
            for n in (1, 2, 3):
                single = random_nested_pair(rng, c, rng.randrange(1, c), chart)
                pairs = [*_sharing_pairs(rng, c, chart), single, single]
                seed = rng.random()
                shared = _run(pairs, n, scrambled and _scrambler(seed))
                assert shared == _run([_fresh(pair) for pair in pairs], n, scrambled and _scrambler(seed))


def test_the_left_part_is_kept_per_chart_and_n():
    # one big ideal tagged with several charts, read at several n: each
    # (chart, n) has its own left part, the one a fresh copy embeds
    pair = random_nested_pair(random.Random(53), 4, 2, CHART_FIRST)
    keys = [(at, n) for at in (CHART_FIRST, CHART_SECOND, CHART_MIXED, nu(1, 2)) for n in (1, 2, 3)]
    for at, n in keys:
        tagged = replace(pair, nu=at)
        x = nested_to_rep(tagged, n)
        assert x == nested_to_rep(_fresh(tagged), n) and x.left.n == n
        assert nested_to_rep(tagged, n).left is x.left
    assert list(pair.big._kept) == ["adhm", "std", *keys]


def _counting(monkeypatch, owner, name) -> list:
    calls = []
    orig = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or orig(*args))
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_embedding_and_one_scan_per_distinct_left_part(monkeypatch, n):
    # counted through the conversions' and the verdict's bindings, so the
    # enumeration's own transports are not
    embeds = _counting(monkeypatch, nestquiv.correspondence, "chart_embed")
    scans = _counting(monkeypatch, nestquiv.stability, "closure_scan")
    for cp, c in ((1, 3), (2, 4), (1, 5), (3, 5)):
        pairs = enumerate_nested_monomial(cp, c, charts=2, n=n)
        embeds.clear()
        scans.clear()
        for pair in pairs:
            assert rep_to_nested(nested_to_rep(pair, n), default_theta(c, cp)) == pair
        lefts = {(id(pair.big), pair.nu) for pair in pairs}
        assert len(embeds) == len(scans) == len(lefts) < len(pairs)
        # a fresh copy shares nothing, so pays for each pair
        embeds.clear()
        scans.clear()
        for pair in map(_fresh, pairs):
            assert rep_to_nested(nested_to_rep(pair, n), default_theta(c, cp)) == pair
        assert len(embeds) == len(scans) == len(pairs)


def test_a_pair_that_is_not_nested_keeps_no_left_part():
    # (3) does not fit in (2, 2): both ideals pass the gate, the nesting
    # check fails, and the big ideal keeps what the gate proved alone
    big = monomial_ideal((2, 2))
    pair = NestedIdealPair(nu=CHART_FIRST, big=big, small=monomial_ideal((3,)))
    for _ in range(2):
        with pytest.raises(BadPair):
            nested_to_rep(pair, 2)
        assert list(big._kept) == ["adhm", "std"]
    x = nested_to_rep(replace(pair, small=monomial_ideal((2, 1))), 2)
    assert list(big._kept) == ["adhm", "std", (CHART_FIRST, 2)] and big._kept[CHART_FIRST, 2] is x.left


def test_the_kept_left_part_dies_with_its_ideal():
    pair = random_nested_pair(random.Random(61), 4, 2, CHART_MIXED)
    x = nested_to_rep(pair, 2)
    left, big = weakref.ref(x.left), weakref.ref(pair.big)
    assert nested_to_rep(pair, 2).left is x.left is pair.big._kept[CHART_MIXED, 2]
    del x
    gc.collect()
    assert left() is not None
    del pair
    gc.collect()
    assert big() is None and left() is None
