"""The conversions read each representation's left part once.

`rep_to_nested` and `same_orbit` take the stability verdict and the pair
from one chart reading.  The oracle below is the composition they
replace, built from the public pieces: `is_theta_stable` on every input,
then `enh_residuals`, then `kernel_subrep`, then `first_regular` over
`conversion_sample`, then `chart_extract` and `ideal_from_adhm`.  Every
input must give the same pair or bool, or the same exception class with
the same message.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nestquiv.chart
import nestquiv.ideals
import nestquiv.stability
from nestquiv import (
    DomainError,
    IrregularPencil,
    NestedIdealPair,
    NestquivError,
    NotStable,
    RationalMatrix,
    RelationsViolated,
    ShapeMismatch,
    SingularAnu,
    act,
    default_theta,
    enh_residuals,
    ideal_from_adhm,
    is_theta_stable,
    nested_to_rep,
    rep_to_nested,
    same_orbit,
)
from nestquiv.chart import chart_extract, find_regular_nu, first_regular, pencil
from nestquiv.chart import _conversion_chart
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, random_gauge, random_nested_pair
from nestquiv.ratmat import rank
from nestquiv.stability import kernel_subrep

from conftest import conversion_sample, injected_family

CHARTS = (CHART_FIRST, CHART_SECOND, CHART_MIXED)


# -- the oracle: the composition the conversions replace --------------


def _require_stable(p, *reps):
    for z in reps:
        verdict = is_theta_stable(z, p)
        if not verdict.stable:
            raise NotStable(f"representation is not stable: {verdict.witness}")
    for z in reps:
        bad = [i for i, r in enumerate(enh_residuals(z)) if not r.is_zero()]
        if bad:
            raise RelationsViolated(f"representation violates the relations: nonzero residuals {bad}")


def _pair(x, kern, nu):
    big = ideal_from_adhm(chart_extract(x.left, nu))
    small = ideal_from_adhm(chart_extract(kern, nu))
    return NestedIdealPair(nu=nu, big=big, small=small)


def oracle_rep_to_nested(x, p, nu=None):
    if x.cp == 0:
        raise DomainError("c' = 0 has no nested structure; use the chart dictionary directly")
    _require_stable(p, x)
    kern = kernel_subrep(x)
    if nu is None:
        nu = first_regular([(x.left.A1, x.left.A2)], conversion_sample(x.c))
    return _pair(x, kern, nu)


def oracle_same_orbit(x, y, p):
    if x.left.n != y.left.n:
        raise ShapeMismatch("representations live on different surfaces")
    if x.left.c1 != y.left.c1 or x.cp != y.cp:
        return False
    _require_stable(p, x, y)
    kx, ky = kernel_subrep(x), kernel_subrep(y)
    nu = first_regular([(z.left.A1, z.left.A2) for z in (x, y)], conversion_sample(2 * x.c + 1))
    px, py = _pair(x, kx, nu), _pair(y, ky, nu)
    return px.big == py.big and px.small == py.small


def outcome(f):
    """A pair as its JSON, a bool as itself, an error as (class, message)."""
    try:
        out = f()
    except NestquivError as exc:
        return type(exc), str(exc)
    return out.to_json() if isinstance(out, NestedIdealPair) else out


def assert_conversion_agrees(x, p, nu=None):
    got = outcome(lambda: rep_to_nested(x, p, nu=nu))
    assert got == outcome(lambda: oracle_rep_to_nested(x, p, nu=nu))
    return got


def assert_orbit_agrees(x, y, p):
    got = outcome(lambda: same_orbit(x, y, p))
    assert got == outcome(lambda: oracle_same_orbit(x, y, p))
    return got


# -- inputs ----------------------------------------------------------


def scrambled(rng, c, cp, n, chart):
    pair = random_nested_pair(rng, c, cp, chart)
    rep = nested_to_rep(pair, n)
    return pair, rep, act(random_gauge(rng, c, c - cp), rep)


def with_left(x, **fields):
    return replace(x, left=replace(x.left, **fields))


def zeros_like(m):
    return RationalMatrix.zeros(m.rows, m.cols)


def noncommuting(x):
    """x with one corner entry of C1 moved, so that the [1,0] reading,
    b2 = C1 A2, no longer commutes with a generic b1: its extraction raises
    RelationsViolated."""
    cs = list(x.left.C)
    corner = [[int(i == 0 and j == x.c - 1) for j in range(x.c)] for i in range(x.c)]
    cs[0] = cs[0] + RationalMatrix(corner)
    return with_left(x, C=tuple(cs))


def single_entry_mutants(rng, x, per_arrow=2):
    """Copies of x with one entry of one arrow moved by one."""
    l = x.left
    arrows = [("left", "A1", None), ("left", "A2", None), ("left", "J", None)]
    arrows += [("left", "C", t) for t in range(len(l.C))] + [("left", "I", q) for q in range(len(l.I))]
    arrows += [("enh", "Ap1", None), ("enh", "Ap2", None), ("enh", "F1", None), ("enh", "F2", None)]
    arrows += [("enh", "Cp", t) for t in range(len(x.Cp))]
    for side, name, index in arrows:
        owner = l if side == "left" else x
        for _ in range(per_arrow):
            m = getattr(owner, name) if index is None else getattr(owner, name)[index]
            rows = [list(r) for r in m.data]
            i, j = rng.randrange(m.rows), rng.randrange(m.cols)
            rows[i][j] += 1
            moved = RationalMatrix.from_rows(rows, cols=m.cols)
            if index is not None:
                moved = tuple(moved if k == index else v for k, v in enumerate(getattr(owner, name)))
            yield with_left(x, **{name: moved}) if side == "left" else replace(x, **{name: moved})


# -- rep_to_nested ---------------------------------------------------


def test_scrambled_pairs_convert_as_before():
    rng = random.Random(131)
    for c in range(2, 7):
        for chart in CHARTS:
            for n in (1, 2, 3):
                cp = rng.randint(1, c - 1)
                pair, rep, x = scrambled(rng, c, cp, n, chart)
                p = default_theta(c, cp)
                assert assert_conversion_agrees(x, p) == pair.to_json()
                assert assert_orbit_agrees(x, rep, p) is True
                other, _, z = scrambled(rng, c, cp, n, chart)
                assert assert_orbit_agrees(x, z, p) is (other == pair)


def test_unstable_inputs_raise_as_before():
    rng = random.Random(132)
    _, _, x = scrambled(rng, 4, 2, 2, CHART_MIXED)
    p = default_theta(4, 2)
    cases = {
        "(C1) F1": replace(x, F1=zeros_like(x.F1), F2=zeros_like(x.F2)),
        "(C2) costability closure rank 0 < 4": with_left(x, J=zeros_like(x.left.J)),
        "(C2) irregular pencil": with_left(x, A1=zeros_like(x.left.A1), A2=zeros_like(x.left.A2)),
    }
    for witness, bad in cases.items():
        assert assert_conversion_agrees(bad, p) == (NotStable, f"representation is not stable: {witness}")
    fam = injected_family(2)
    assert assert_conversion_agrees(fam, default_theta(2, 1)) == (
        NotStable, "representation is not stable: (C2) nonzero I"
    )
    # the pair is read only once the verdict is in: a reading that does
    # not commute raises RelationsViolated from the verdict's extraction
    kind, message = assert_conversion_agrees(noncommuting(x), p)
    assert kind is RelationsViolated and message == "extracted pair does not commute"


def test_single_entry_mutants_raise_as_before():
    rng = random.Random(133)
    kinds = set()
    for c, n, chart in ((3, 1, CHART_FIRST), (3, 2, CHART_SECOND), (4, 3, CHART_MIXED), (4, 2, CHART_FIRST)):
        cp = rng.randint(1, c - 1)
        _, rep, x = scrambled(rng, c, cp, n, chart)
        p = default_theta(c, cp)
        previous = x
        for bad in single_entry_mutants(rng, x):
            got = assert_conversion_agrees(bad, p)
            kinds.add(got[0] if isinstance(got, tuple) else "ok")
            assert_orbit_agrees(bad, rep, p)
            assert_orbit_agrees(rep, bad, p)
            # two broken inputs: whose error wins
            assert_orbit_agrees(previous, bad, p)
            previous = bad
    assert {NotStable, RelationsViolated} <= kinds


def test_forced_charts_convert_as_before():
    rng = random.Random(134)
    seen = set()
    for chart in CHARTS:
        for n in (1, 2):
            _, _, x = scrambled(rng, 4, 2, n, chart)
            p = default_theta(4, 2)
            for nu in conversion_sample(9):
                got = assert_conversion_agrees(x, p, nu=nu)
                seen.add(got[0] if isinstance(got, tuple) else "ok")
    assert seen == {"ok", SingularAnu}


# -- same_orbit ------------------------------------------------------


def test_same_orbit_errors_keep_their_order():
    rng = random.Random(135)
    _, rep, x = scrambled(rng, 4, 2, 2, CHART_FIRST)
    p = default_theta(4, 2)
    f1_zero = replace(x, F1=zeros_like(x.F1))
    j_zero = with_left(x, J=zeros_like(x.left.J))
    twisted = noncommuting(rep)
    cases = [
        (f1_zero, rep, (NotStable, "representation is not stable: (C1) F1")),
        (rep, j_zero, (NotStable, "representation is not stable: (C2) costability closure rank 0 < 4")),
        # both unstable: x's witness wins
        (f1_zero, j_zero, (NotStable, "representation is not stable: (C1) F1")),
        (j_zero, f1_zero, (NotStable, "representation is not stable: (C2) costability closure rank 0 < 4")),
        # x not costable, y's reading not commuting: NotStable of x first
        (j_zero, twisted, (NotStable, "representation is not stable: (C2) costability closure rank 0 < 4")),
        (twisted, j_zero, (RelationsViolated, "extracted pair does not commute")),
    ]
    for a, b, expected in cases:
        assert assert_orbit_agrees(a, b, p) == expected


def test_same_orbit_tells_apart_cycles_that_share_a_chart():
    rng = random.Random(136)
    tried = 0
    for c in (3, 4, 5):
        for n in (1, 2, 3):
            cp = rng.randint(1, c - 1)
            p = default_theta(c, cp)
            pair, _, x = scrambled(rng, c, cp, n, CHART_FIRST)
            other, _, y = scrambled(rng, c, cp, n, CHART_FIRST)
            assert pair != other
            assert is_theta_stable(x, p).nu == is_theta_stable(y, p).nu
            assert assert_orbit_agrees(x, y, p) is False
            tried += 1
    assert tried == 9


def test_same_orbit_is_false_across_stability_charts():
    # the first regular chart is a gauge invariant, so inputs whose
    # verdicts read different charts are never on one orbit
    rng = random.Random(137)
    for c in (3, 4, 5):
        for n in (1, 2):
            cp = rng.randint(1, c - 1)
            p = default_theta(c, cp)
            _, _, x = scrambled(rng, c, cp, n, CHART_FIRST)
            for chart in (CHART_SECOND, CHART_MIXED):
                _, _, y = scrambled(rng, c, cp, n, chart)
                assert is_theta_stable(x, p).nu != is_theta_stable(y, p).nu
                assert assert_orbit_agrees(x, y, p) is False
                assert assert_orbit_agrees(y, x, p) is False


# -- work done -------------------------------------------------------


@pytest.mark.parametrize(
    "call, chart, ranks, inversions",
    [("rep_to_nested", CHART_FIRST, 1, 2), ("rep_to_nested", CHART_MIXED, 3, 2), ("same_orbit", CHART_FIRST, 2, 2)],
    ids=["rep_to_nested-[1,0]", "rep_to_nested-[1,1]", "same_orbit-[1,0]"],
)
def test_each_left_part_is_read_once(monkeypatch, call, chart, ranks, inversions):
    # the composition above ranks 3, 6 and 6 pencils and inverts 3, 3
    # and 6 pencil combinations on these three calls
    rng = random.Random(3)
    pair = random_nested_pair(rng, 4, 2, chart)
    rep = nested_to_rep(pair, 2)
    x = act(random_gauge(rng, 4, 2), rep)
    p = default_theta(4, 2)
    counts = {"rank": 0, "invert": 0}

    def counting(name):
        orig = getattr(nestquiv.chart, name)

        def wrapper(*args):
            counts[name] += 1
            return orig(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(nestquiv.chart, name, counting(name))
    if call == "rep_to_nested":
        assert rep_to_nested(x, p) == pair
    else:
        assert same_orbit(x, rep, p)
    assert counts["rank"] <= ranks and counts["invert"] <= inversions


_WORK = {
    # (call, chart): pencil ranks, inversions, and closure scans: one scan
    # per chart read; ideal_from_adhm never scans again.  These inputs keep
    # a zero relation verdict, so every verdict, a verdict-only one too,
    # counts at the pair's chart: each call reads that chart alone, and
    # ranks the pencil at [0,1] (`chart._conversion_chart`) where its first
    # regular chart is not [1,0].  Each chart read inverts A_nu unless
    # A_nu is the identity, as it is for the unscrambled input read at its
    # own chart.  Reading a scan's normal forms inverts the walk's kept
    # rows K unless K is the identity, as it is there too.  Each small
    # ideal is one elimination of (K k1)^T and inverts nothing
    # (`_Scan.restrict`)
    ("is_theta_stable", CHART_FIRST): (1, 1, {"stability.closure_scan": 1}),
    ("is_theta_stable", CHART_SECOND): (3, 1, {"stability.closure_scan": 1}),
    ("is_theta_stable", CHART_MIXED): (3, 1, {"stability.closure_scan": 1}),
    ("rep_to_nested", CHART_FIRST): (1, 2, {"stability.closure_scan": 1}),
    ("rep_to_nested", CHART_SECOND): (3, 2, {"stability.closure_scan": 1}),
    ("rep_to_nested", CHART_MIXED): (3, 2, {"stability.closure_scan": 1}),
    ("same_orbit", CHART_FIRST): (2, 2, {"stability.closure_scan": 2}),
    ("same_orbit", CHART_SECOND): (6, 2, {"stability.closure_scan": 2}),
    ("same_orbit", CHART_MIXED): (6, 2, {"stability.closure_scan": 2}),
}


@pytest.mark.parametrize("call, chart", list(_WORK), ids=lambda v: v if isinstance(v, str) else "[{},{}]".format(*v.to_json()))
def test_each_reading_does_the_same_work(monkeypatch, call, chart):
    # exact counts on the inputs of test_each_left_part_is_read_once: each
    # chart a call reads is extracted and scanned once
    rng = random.Random(3)
    pair = random_nested_pair(rng, 4, 2, chart)
    rep = nested_to_rep(pair, 2)
    x = act(random_gauge(rng, 4, 2), rep)
    p = default_theta(4, 2)
    counts = dict.fromkeys(
        ["rank", "invert", "stability.closure_scan", "ideals.closure_scan"], 0
    )

    def counting(module, name, key):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(nestquiv.chart, "rank", "rank")
    counting(nestquiv.chart, "invert", "invert")
    counting(nestquiv.stability, "closure_scan", "stability.closure_scan")
    counting(nestquiv.ideals, "closure_scan", "ideals.closure_scan")
    if call == "is_theta_stable":
        assert is_theta_stable(x, p).stable
    elif call == "rep_to_nested":
        assert rep_to_nested(x, p) == pair
    else:
        assert same_orbit(x, rep, p)
    ranks, inversions, closures = _WORK[call, chart]
    closures = {key: closures.get(key, 0) for key in counts if key not in ("rank", "invert")}
    assert counts == {"rank": ranks, "invert": inversions, **closures}


# -- the derived conversion chart ------------------------------------


@st.composite
def pencils(draw):
    c = draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(min_value=-2, max_value=2)
    a1, a2 = ([draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(c)] for _ in range(2))
    # degenerate: 1 zeroes a row of A2 (singular at [1,0]), 2 a row of A1
    # (singular at [0,1]), 3 the same row of both (singular everywhere)
    kind = draw(st.integers(min_value=0, max_value=3))
    row = draw(st.integers(min_value=0, max_value=c - 1))
    if kind & 1:
        a2[row] = [0] * c
    if kind & 2:
        a1[row] = [0] * c
    return RationalMatrix(a1), RationalMatrix(a2)


@given(pencils())
def test_derived_conversion_chart_is_the_first_regular(pencil_pair):
    a1, a2 = pencil_pair
    c = a1.rows
    expected = first_regular([(a1, a2)], conversion_sample(c))
    try:
        chart = find_regular_nu(a1, a2)
    except IrregularPencil:
        assert expected is None
        return
    assert _conversion_chart(a1, a2, chart) == expected
    assert rank(pencil(a1, a2, expected)) == c
