"""The file commands read only what they report.

monad-check decides its composite on one rational matrix
(`MonadComplex.composite`) and reads its points in integers, ranking
neither fiber block where it is a multiple of the identity; check reads
the relations before the stability verdict, so a file whose relations
hold has its chart pair built without the commutator.  Each shortcut is
checked against the path it replaced: the composite against the CoxPoly
entries of `check_complex`, the integer point reader against the Fraction
evaluation of the CoxPoly monad, and the enhanced relation verdict against
`enh_residuals` in full.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import nestquiv
from nestquiv import (
    CoxPoly,
    IrregularPencil,
    NotStable,
    ShapeMismatch,
    SingularAnu,
    act,
    build_monad,
    chart_embed,
    check_complex,
    cox_mul,
    default_theta,
    enh_residuals,
    fiber_ranks,
    find_regular_nu,
    hirz_residuals,
    is_theta_stable,
    kernel_subrep,
    nested_to_rep,
    rank,
    rep_to_nested,
    same_orbit,
)
from nestquiv.cli import main
from nestquiv.corpus import (
    CHART_FIRST,
    CHART_MIXED,
    CHART_SECOND,
    ideal_of_points,
    random_gauge,
    random_hirz_stable,
    random_nested_pair,
    random_points,
)
from nestquiv.ideals import adhm_from_ideal
from nestquiv.quiver import EnhRep, HirzRep
from nestquiv.ratmat import RationalMatrix

from conftest import M, nu
from test_monad import evaluate

CHARTS = (CHART_FIRST, CHART_SECOND, CHART_MIXED)


def moved(x, field: str, q, rng: random.Random):
    """x with one entry of its block field moved by 1..3: the block
    itself for q None, else the q-th of the tuple of blocks."""
    old = getattr(x, field)
    m = old if q is None else old[q]
    rows = [list(row) for row in m.data]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.randint(1, 3)
    new = RationalMatrix.from_rows(rows, cols=m.cols)
    return replace(x, **{field: new if q is None else old[:q] + (new,) + old[q + 1 :]})


def plain_slots(x: HirzRep) -> list:
    return [("A1", None), ("A2", None), ("J", None)] + [("C", q) for q in range(x.n)] + [
        ("I", q) for q in range(x.n - 1)
    ]


def right_slots(x: EnhRep) -> list:
    return [("Ap1", None), ("Ap2", None), ("F1", None), ("F2", None)] + [("Cp", t) for t in range(x.n)]


def nonzero(residuals) -> tuple:
    return tuple(i for i, r in enumerate(residuals) if not r.is_zero())


def test_composite_is_zero_exactly_where_check_complex_is():
    # seeded stable plain representations and a single-entry mutant of
    # each of A1, A2, J, C_q and I_q, in the scanned chart and at
    # [1, 1/2]: check_complex is beta . alpha multiplied out in CoxPoly,
    # and each composite entry is zero exactly where its entry of
    # check_complex (the transpose times s_inf y2_nu) is
    rng = random.Random(41)
    seen = set()
    for n in (1, 2, 3):
        for c in (2, 3, 4):
            for chart in CHARTS:
                x = random_hirz_stable(rng, c, n, chart)
                for z in [x] + [moved(x, f, q, rng) for f, q in plain_slots(x)]:
                    try:
                        charts = (find_regular_nu(z.A1, z.A2), nu(1, Fraction(1, 2)))
                    except IrregularPencil:
                        continue
                    for at in charts:
                        try:
                            m = build_monad(z, at)
                        except SingularAnu:
                            continue
                        entries = check_complex(m)
                        assert entries == [
                            [sum((cox_mul(b, a[j]) for b, a in zip(row, m.Amat)), CoxPoly.zero()) for j in range(c)]
                            for row in m.Bmat
                        ]
                        k = m.composite
                        assert k.rows == k.cols == c
                        assert [[p.is_zero() for p in row] for row in entries] == [
                            [k[j, i] == 0 for j in range(c)] for i in range(c)
                        ]
                        zero = k.is_zero()
                        assert zero is all(p.is_zero() for row in entries for p in row)
                        seen.add(zero)
    assert seen == {True, False}


def fiber_point(at, y1n, y2n, se, sinf) -> tuple:
    """The point (y1, y2, s_e, s_inf) whose rotated coordinates in the
    chart at are (y1n, y2n)."""
    n1, n2, rho = at.nu1, at.nu2, at.rho
    return ((n1 * y1n - n2 * y2n) / rho, (n2 * y1n + n1 * y2n) / rho, Fraction(se), Fraction(sinf))


def spellings(pt) -> list:
    """The point pt with Fraction coordinates, as strings, with integral
    ones as ints, and with 0 and 1 as booleans."""
    out = [pt, tuple(str(v) for v in pt), tuple(int(v) if v.denominator == 1 else v for v in pt)]
    if any(v in (0, 1) for v in pt):
        out.append(tuple(bool(v) if v in (0, 1) else v for v in pt))
    return out


def rational_ranks(m, pt) -> tuple:
    alpha = [[evaluate(p, pt) for p in row] for row in m.Amat]
    beta = [[evaluate(p, pt) for p in row] for row in m.Bmat]
    return rank(M(alpha)), rank(M(beta))


def test_integer_points_read_like_rational_ones(monkeypatch):
    # a reduced cycle embedded in a chart; for each support point (x, y)
    # the points with y2_nu = 0 (Q = y1_nu Id), with s_inf = 0 on the
    # fiber y1_nu = -x y2_nu (Q singular, P = y2_nu^n s_e Id), with Q and
    # P singular, and off the cycle.  Each point, spelled with Fraction,
    # string, int and bool coordinates, has the ranks of the CoxPoly monad
    # evaluated in Fraction arithmetic.  On a fresh monad, a block that is
    # a multiple of the identity is not ranked: no rank call where
    # y2_nu = 0, and one, Q's, where s_inf = 0.
    calls = []

    def counted(mat):
        calls.append(mat.rows)
        return rank(mat)

    rng = random.Random(42)
    taken = set()
    for at in (nu(1, 0), nu(0, 1), nu(1, 1), nu(1, Fraction(1, 2)), nu(2, -3)):
        for n in (1, 2, 3):
            c = rng.randint(2, 4)
            pts = random_points(rng, c)
            m = build_monad(chart_embed(adhm_from_ideal(ideal_of_points(pts)), at, n), at)
            for x, y in pts:
                for point, want, work in (
                    (fiber_point(at, 1, 0, 1, 1), (c, c), []),
                    (fiber_point(at, -2, 0, 3, 0), (c, c), []),
                    (fiber_point(at, -x, 1, 2, 0), (c, c), [c]),
                    (fiber_point(at, -x, 1, -y, 1), (c - 1, c), None),
                    (fiber_point(at, -x + Fraction(1, 7), 1, -y, 1), (c, c), [c]),
                ):
                    assert rational_ranks(m, point) == want
                    for pt in spellings(point):
                        assert fiber_ranks(m, pt) == want, (at, n, pt)
                    monkeypatch.setattr("nestquiv.monad.rank", counted)
                    calls.clear()
                    fiber_ranks(replace(m), point)
                    monkeypatch.undo()
                    if work is not None:
                        assert calls == work, (at, n, point)
                    taken.add(len(calls))
    assert taken == {0, 1, 4}


def test_a_point_is_read_before_it_is_counted():
    # each coordinate is read first, so a bad one raises its own error
    # whatever the count; then the count raises ShapeMismatch
    a = adhm_from_ideal(ideal_of_points(random_points(random.Random(5), 2)))
    m = build_monad(chart_embed(a, nu(1, 0), 1), nu(1, 0))
    for pt, error in (
        (("x", 1, 1), ValueError),
        (("1/0", 1, 1, 1), ValueError),
        ((Fraction(1, 2), 0.5, 1, 1), TypeError),
        ((1, None, 1), TypeError),
        ((1, 0, 1), ShapeMismatch),
        ((True, False, "1", 1, 1), ShapeMismatch),
    ):
        with pytest.raises(error):
            fiber_ranks(m, pt)


def test_enhanced_verdict_is_the_left_one_then_the_right_parts():
    # JSON-read enhanced representations, and single-entry mutants of each
    # block of the left part, the right part and F1, F2, and F1 = F2 = 0:
    # the verdict is the nonzero enh_residuals, and the left part keeps
    # its own, the nonzero hirz_residuals
    rng = random.Random(43)
    broken = set()
    for n in (1, 2, 3):
        for c in (2, 3, 4):
            for chart in CHARTS:
                cp = rng.randint(1, c - 1)
                x = act(random_gauge(rng, c, c - cp), nested_to_rep(random_nested_pair(rng, c, cp, chart), n))
                zero = RationalMatrix.zeros(c - cp, c)
                mutants = [(None, x), ("F1=F2=0", replace(x, F1=zero, F2=zero))]
                mutants += [(f, replace(x, left=moved(x.left, f, q, rng))) for f, q in plain_slots(x.left)]
                mutants += [(f, moved(x, f, q, rng)) for f, q in right_slots(x)]
                for label, z in mutants:
                    z = EnhRep.from_json(z.to_json())
                    want = nonzero(enh_residuals(z))
                    assert z._nonzero_residuals == want, (label, n)
                    assert z.left.__dict__["_nonzero_residuals"] == nonzero(hirz_residuals(z.left))
                    if want:
                        broken.add(label)
    # J meets the relations only through I_q J, and here I_q = 0
    assert broken == {"A1", "A2", "C", "I", "Ap1", "Ap2", "Cp", "F1", "F2"}


def test_check_reads_the_relations_before_the_chart(tmp_path, capsys, monkeypatch):
    # on a file whose relations hold, check's stability verdict builds its
    # chart pair without the commutator (`chart._commuting`); on one whose
    # relations fail it forms the commutator, as a file read with no
    # kept verdict does
    built = []
    trusted = nestquiv.chart._commuting

    def counting(*args):
        built.append(args[0])
        return trusted(*args)

    monkeypatch.setattr(nestquiv.chart, "_commuting", counting)
    rng = random.Random(44)
    path = tmp_path / "rep.json"
    for n in (1, 2, 3):
        for chart in CHARTS:
            x = random_hirz_stable(rng, 3, n, chart)
            y = act(random_gauge(rng, 3, 2), nested_to_rep(random_nested_pair(rng, 3, 1, chart), n))
            bad = moved(x, "C", 0, rng)
            assert HirzRep.from_json(bad.to_json())._nonzero_residuals
            bad_left = replace(y, left=moved(y.left, "A1", None, rng))
            assert EnhRep.from_json(bad_left.to_json()).left._nonzero_residuals
            for z, code, pairs in ((x, 0, [3]), (y, 0, [3]), (bad, 1, []), (bad_left, 1, [])):
                path.write_text(json.dumps(z.to_json()))
                built.clear()
                assert main(["check", str(path)]) == code
                capsys.readouterr()
                assert built == pairs


def test_check_of_a_broken_n1_file_forms_no_commutator(tmp_path, capsys, monkeypatch):
    # for n = 1 the commutator of a chart pair is rho A_nu^-1 times the one
    # residual, so once check has read a nonzero relation verdict the
    # verdict's extraction raises after its chart blocks, with no product
    # of its own; the commutator it skips is nonzero on every such file
    count = [0]
    matmul = RationalMatrix.__matmul__

    def counting(a, b):
        count[0] += 1
        return matmul(a, b)

    blocks, extract = nestquiv.chart.chart_blocks, nestquiv.stability.chart_extract
    spent, in_blocks, pairs = [], [], []

    def reading_blocks(x, at):
        start = count[0]
        out = blocks(x, at)
        in_blocks.append(count[0] - start)
        pairs.append(out[:2])
        return out

    def extracting(x, at):
        start = count[0]
        in_blocks.clear()
        try:
            return extract(x, at)
        finally:
            spent.append(count[0] - start - sum(in_blocks))

    monkeypatch.setattr(RationalMatrix, "__matmul__", counting)
    monkeypatch.setattr(nestquiv.chart, "chart_blocks", reading_blocks)
    monkeypatch.setattr(nestquiv.stability, "chart_extract", extracting)
    rng = random.Random(46)
    path = tmp_path / "rep.json"
    files = 0
    for chart in CHARTS:
        for c in (2, 3, 4):
            x = random_hirz_stable(rng, c, 1, chart)
            y = act(random_gauge(rng, c, 1), nested_to_rep(random_nested_pair(rng, c, c - 1, chart), 1))
            mutants = [moved(x, f, q, rng) for f, q in plain_slots(x)]
            mutants += [replace(y, left=moved(y.left, f, q, rng)) for f, q in plain_slots(y.left)]
            for z in mutants:
                left = z.left if isinstance(z, EnhRep) else z
                if not HirzRep.from_json(left.to_json())._nonzero_residuals:
                    continue  # the left part's relations hold: its pair commutes
                path.write_text(json.dumps(z.to_json()))
                spent.clear()
                pairs.clear()
                assert main(["check", str(path)]) == 1
                err = capsys.readouterr().err
                if not spent:
                    continue  # the verdict stopped before a chart: an irregular pencil
                assert spent == [0]
                assert err.strip() == "error: extracted pair does not commute"
                [(b1, b2)] = pairs
                assert not (matmul(b1, b2) - matmul(b2, b1)).is_zero()
                files += 1
    assert files >= 20


def test_a_conversion_rejected_before_the_rule_reads_no_relations(monkeypatch):
    # rep_to_nested of a JSON-read input that fails (C1) or has a nonzero
    # I_q rejects before the verdict's chart is chosen, so it forms no
    # residual; with J = 0 the costability count reads the rule, which
    # computes the left relation verdict
    calls = []
    residuals = nestquiv.quiver.hirz_residuals

    def counting(x):
        calls.append(None)
        return residuals(x)

    monkeypatch.setattr(nestquiv.quiver, "hirz_residuals", counting)
    rng = random.Random(47)
    counts = {"F1=F2=0": [], "I": [], "J=0": []}
    for n in (2, 3):
        for c in (2, 3, 4, 5):
            cp = rng.randint(1, c - 1)
            pair = random_nested_pair(rng, c, cp, rng.choice(CHARTS))
            x = act(random_gauge(rng, c, c - cp), nested_to_rep(pair, n))
            zero = RationalMatrix.zeros(c - cp, c)
            for label, z in (
                ("F1=F2=0", replace(x, F1=zero, F2=zero)),
                ("I", replace(x, left=moved(x.left, "I", 0, rng))),
                ("J=0", replace(x, left=replace(x.left, J=RationalMatrix.zeros(1, c)))),
            ):
                z = EnhRep.from_json(z.to_json())
                calls.clear()
                with pytest.raises(NotStable):
                    rep_to_nested(z, default_theta(c, cp))
                counts[label].append(len(calls))
    assert counts == {"F1=F2=0": [0] * 8, "I": [0] * 8, "J=0": [1] * 8}


def test_stability_and_orbits_need_an_enhanced_representation():
    x = nested_to_rep(random_nested_pair(random.Random(45), 3, 1, CHART_FIRST), 2)
    p = default_theta(3, 1)
    with pytest.raises(ShapeMismatch, match=r"^is_theta_stable needs an EnhRep, got HirzRep$"):
        is_theta_stable(x.left, p)
    with pytest.raises(ShapeMismatch, match=r"^rep_to_nested needs an EnhRep, got HirzRep$"):
        rep_to_nested(x.left, p)
    with pytest.raises(ShapeMismatch, match=r"^kernel_subrep needs an EnhRep, got HirzRep$"):
        kernel_subrep(x.left)
    for a, b in ((x.left, x), (x, x.left), (x.left, x.left)):
        with pytest.raises(ShapeMismatch, match=r"^same_orbit needs an EnhRep, got HirzRep$"):
            same_orbit(a, b, p)
    assert same_orbit(x, x, p)
