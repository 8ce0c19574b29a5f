"""Each representation is read once, whichever call reads it first.

A representation is immutable, so its stability reading (kept on its left
part), its relation verdict and its small ideal at each chart are kept on
it.  Calling the verdicts and conversions in any order on one object must
give what each call gives on a fresh copy, which keeps nothing: the same
results, verdicts, witnesses and charts, and the same exception class with
the same message.  Errors are not kept, so an input that raises raises
again on every call.
"""

import random
from dataclasses import replace

import pytest

import nestquiv.chart
import nestquiv.correspondence
import nestquiv.quiver
import nestquiv.stability
from nestquiv import (
    EnhRep,
    NestedIdealPair,
    NestquivError,
    RationalMatrix,
    act,
    default_theta,
    is_gamma_stable,
    is_theta_stable,
    nested_to_rep,
    rep_to_nested,
    same_orbit,
)
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, random_gauge, random_nested_pair

from conftest import injected_family

CHARTS = (CHART_FIRST, CHART_SECOND, CHART_MIXED)

# Each call reads x, and y where it takes two inputs; the forced charts
# [1,0] and [1,1] are the verdict's chart for some inputs, another regular
# chart for others, and singular for the rest.
CALLS = {
    "is_gamma_stable": lambda x, y, p: is_gamma_stable(x.left),
    "is_theta_stable": lambda x, y, p: is_theta_stable(x, p),
    "rep_to_nested": lambda x, y, p: rep_to_nested(x, p),
    "rep_to_nested at [1,0]": lambda x, y, p: rep_to_nested(x, p, nu=CHART_FIRST),
    "rep_to_nested at [1,1]": lambda x, y, p: rep_to_nested(x, p, nu=CHART_MIXED),
    "same_orbit(x, y)": lambda x, y, p: same_orbit(x, y, p),
    "same_orbit(y, x)": lambda x, y, p: same_orbit(y, x, p),
    "same_orbit(x, x)": lambda x, y, p: same_orbit(x, x, p),
}


def fresh(x):
    """A copy of x with nothing kept: a new object and a new left part."""
    return replace(x, left=replace(x.left))


def outcome(f):
    """A pair as its JSON, a verdict or bool as itself, an error as
    (class, message)."""
    try:
        out = f()
    except NestquivError as exc:
        return type(exc), str(exc)
    return out.to_json() if isinstance(out, NestedIdealPair) else out


def orders(rng):
    names = list(CALLS)
    shuffled = names[:]
    rng.shuffle(shuffled)
    return [names, names[::-1], shuffled]


def assert_read_once(rng, x, y, p):
    """Every order of CALLS on one x and one y, twice over, agrees with
    each call on fresh copies; returns the outcomes."""
    expected = {name: outcome(lambda: call(fresh(x), fresh(y), p)) for name, call in CALLS.items()}
    for order in orders(rng):
        xs, ys = fresh(x), fresh(y)
        for name in order + order:
            assert outcome(lambda: CALLS[name](xs, ys, p)) == expected[name], name
    return expected


def scrambled(rng, c, cp, n, chart):
    pair = random_nested_pair(rng, c, cp, chart)
    rep = nested_to_rep(pair, n)
    return pair, rep, act(random_gauge(rng, c, c - cp), rep)


def with_left(x, **fields):
    return replace(x, left=replace(x.left, **fields))


def zeros_like(m):
    return RationalMatrix.zeros(m.rows, m.cols)


def moved(m):
    """m with its first entry moved by one."""
    rows = [list(r) for r in m.data]
    rows[0][0] += 1
    return RationalMatrix.from_rows(rows, cols=m.cols)


def test_scrambled_pairs_read_the_same_in_any_order():
    rng = random.Random(221)
    for chart in CHARTS:
        for n in (1, 2, 3):
            c = rng.randint(3, 5)
            cp = rng.randint(1, c - 1)
            p = default_theta(c, cp)
            pair, rep, x = scrambled(rng, c, cp, n, chart)
            got = assert_read_once(rng, x, rep, p)
            assert got["rep_to_nested"] == pair.to_json()
            assert got["same_orbit(x, y)"] is got["same_orbit(y, x)"] is got["same_orbit(x, x)"] is True
            other, _, z = scrambled(rng, c, cp, n, chart)
            assert assert_read_once(rng, x, z, p)["same_orbit(x, y)"] is (other == pair)


def _broken(rng):
    """(label, x, y, p) for inputs that fail: F-rank drops, nonzero I, an
    irregular pencil, relation-violating mutants, and a stable input whose
    forced chart [1,0] is singular."""
    _, rep, x = scrambled(rng, 4, 2, 2, CHART_FIRST)
    p = default_theta(4, 2)
    cs = list(x.left.C)
    cs[0] = moved(cs[0])
    yield "F1 rank", replace(x, F1=zeros_like(x.F1)), rep, p
    yield "F2 rank", replace(x, F2=zeros_like(x.F2)), rep, p
    yield "irregular pencil", with_left(x, A1=zeros_like(x.left.A1), A2=zeros_like(x.left.A2)), rep, p
    yield "not costable", with_left(x, J=zeros_like(x.left.J)), rep, p
    yield "C1 moved", with_left(x, C=tuple(cs)), rep, p
    yield "Ap1 moved", replace(x, Ap1=moved(x.Ap1)), rep, p
    yield "F2 moved", replace(x, F2=moved(x.F2)), rep, p
    for n in (2, 3):
        fam = injected_family(n)
        yield f"nonzero I, n = {n}", fam, fam, default_theta(2, 1)
    _, rep, x = scrambled(rng, 4, 2, 2, CHART_MIXED)
    yield "singular at [1,0]", x, rep, p


def test_failing_inputs_raise_again_on_every_call():
    rng = random.Random(222)
    raised = set()
    for label, x, y, p in _broken(rng):
        got = assert_read_once(rng, x, y, p)
        failures = {name: out for name, out in got.items() if isinstance(out, tuple)}
        assert failures, label
        # a second call on the object the first one failed on fails alike
        for name, out in failures.items():
            for _ in range(2):
                assert outcome(lambda: CALLS[name](x, y, p)) == out, (label, name)
        raised |= {kind.__name__ for kind, _ in failures.values()}
    assert raised == {"NotStable", "RelationsViolated", "SingularAnu"}


@pytest.mark.parametrize("chart", CHARTS, ids=lambda v: "[{},{}]".format(*v.to_json()))
def test_a_converted_input_is_not_read_again(monkeypatch, chart):
    # rep_to_nested(x) then same_orbit(x, rep): no input's relations are
    # read (rep keeps the verdict nested_to_rep records, and x the one act
    # carries), so x's verdict is counted at the pair's chart, and x's left
    # part is extracted and its closure read there alone, once; no (input,
    # chart) closure is read twice.  A JSON-read copy of x keeps nothing,
    # so its relations are read, once: its left part's residuals, kept on
    # the left part, and then the right part's; they are read before its
    # verdict, which then counts at the pair's chart too, so the copy is
    # read there alone.
    rng = random.Random(3)
    pair = random_nested_pair(rng, 4, 2, chart)
    rep = nested_to_rep(pair, 2)
    x = act(random_gauge(rng, 4, 2), rep)
    p = default_theta(4, 2)
    extracted, residuals, closures = [], [], []
    datums = {}  # id(datum.b1) -> (id(input), chart, datum), kept alive

    def recording(module, name, log, key):
        orig = getattr(module, name)

        def wrapper(*args):
            out = orig(*args)
            log.append(key(*args))
            if name == "chart_extract":
                datums[id(out.b1)] = (*log[-1], out)
            return out

        monkeypatch.setattr(module, name, wrapper)

    for module in (nestquiv.stability, nestquiv.correspondence):
        if hasattr(module, "chart_extract"):
            recording(module, "chart_extract", extracted, lambda z, nu: (id(z), nu))
    for module in (nestquiv.quiver, nestquiv.correspondence):
        for name in ("enh_residuals", "hirz_residuals", "_right_residuals"):
            if hasattr(module, name):
                recording(module, name, residuals, id)
    # every reader of a closure, counted by the input and chart of its datum
    for module in (nestquiv.stability, nestquiv.ideals, nestquiv.correspondence):
        for name in ("closure_scan", "closure_rank"):
            if hasattr(module, name):
                recording(module, name, closures, lambda b1, b2, e: datums[id(b1)][:2])
    assert rep_to_nested(x, p) == pair
    assert same_orbit(x, rep, p)
    assert [nu for z, nu in extracted if z == id(x.left)] == [pair.nu]
    assert residuals == []
    read = EnhRep.from_json(x.to_json())
    assert rep_to_nested(read, p) == pair
    assert same_orbit(read, rep, p)
    assert residuals == [id(read.left), id(read)]
    assert [nu for z, nu in extracted if z == id(read.left)] == [pair.nu]
    assert len(closures) == len(set(closures)), closures
    assert {nu for z, nu in closures if z == id(x.left)} == {pair.nu}
    assert {nu for z, nu in closures if z == id(read.left)} == {pair.nu}


@pytest.mark.parametrize("chart", CHARTS, ids=lambda v: "[{},{}]".format(*v.to_json()))
def test_same_orbit_after_both_conversions_reads_no_new_chart(monkeypatch, chart):
    # same_orbit compares at the chart rep_to_nested read, so once both
    # inputs are converted it extracts, scans and builds nothing new: their
    # readings and small ideals there are kept
    rng = random.Random(223)
    for other in (False, True):
        _, rep, x = scrambled(rng, 4, 2, 2, chart)
        y = scrambled(rng, 4, 2, 2, chart)[2] if other else act(random_gauge(rng, 4, 2), rep)
        p = default_theta(4, 2)
        for z in (x, y):
            rep_to_nested(z, p)
        calls = []

        def counting(module, name):
            orig = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return orig(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(nestquiv.stability, "chart_extract")
        counting(nestquiv.stability, "closure_scan")
        counting(nestquiv.chart, "invert")
        counting(nestquiv.chart, "_span_pass")
        assert same_orbit(x, y, p) is (not other)
        assert same_orbit(y, x, p) is (not other)
        assert calls == []
        monkeypatch.undo()
