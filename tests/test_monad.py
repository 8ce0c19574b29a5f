import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from nestquiv import (
    CoxPoly,
    ExcludedLocus,
    NotWellDefined,
    ShapeMismatch,
    SingularAnu,
    build_monad,
    chart_embed,
    check_complex,
    complex_residuals,
    cox_mul,
    fiber_ranks,
    hirz_residuals,
    partitions,
    rank,
    support,
)
from nestquiv.chart import NuPoint
from nestquiv.cli import _MONAD_S, _MONAD_Y, main
from nestquiv.corpus import (
    CHART_FIRST,
    CHART_MIXED,
    CHART_SECOND,
    ideal_of_points,
    random_fraction,
    random_gauge,
    random_hirz_stable,
    random_points,
)
from nestquiv.ideals import adhm_from_ideal, monomial_ideal
from nestquiv.monad import SE, SINF, Y1, Y2
from nestquiv.quiver import HirzRep, act
from nestquiv.ratmat import RationalMatrix, rat

from conftest import M, fat_point, nu, point_rep, support_points, union
from test_frozen_outputs import _single_entry_mutant


def rational_point(pt) -> tuple:
    """The coordinates (y1, y2, s_e, s_inf) of a point as rationals; any
    other number of coordinates raises ShapeMismatch, as the integer
    reader `monad._point` does."""
    vals = tuple(rat(v) for v in pt)
    if len(vals) != 4:
        raise ShapeMismatch(f"a point has the four coordinates y1, y2, s_e, s_inf, got {len(vals)}")
    return vals


def evaluate(p: CoxPoly, pt) -> Fraction:
    """The value of p at a point (y1, y2, s_e, s_inf), term by term in
    Fraction arithmetic: the reference the integer fiber reader is
    checked against.  A point without four coordinates raises
    ShapeMismatch (`rational_point`)."""
    total = Fraction(0)
    for m, c in p.terms:
        for e, v in zip(m, rational_point(pt)):
            c *= v**e
        total += c
    return total


def bidegree(p: CoxPoly, n: int):
    """The common bidegree of p's terms under deg(y) = (0,1),
    deg(s_e) = (1,-n), deg(s_inf) = (1,0); None for the zero polynomial,
    NotWellDefined for mixed ones."""
    degs = {(e3 + e4, e1 + e2 - n * e3) for (e1, e2, e3, e4), _ in p.terms}
    if len(degs) > 1:
        raise NotWellDefined(f"mixed bidegrees {sorted(degs)}")
    return next(iter(degs), None)


def test_coxpoly_algebra():
    p = Y1 + Y2.scale(2)
    q = cox_mul(p, p)
    assert str(q) == "4*y2^2 + 4*y1*y2 + y1^2"
    assert evaluate(q, (1, 1, 0, 0)) == 9
    assert (p - p).is_zero()
    assert evaluate(Y1**3, (2, 0, 0, 0)) == 8


def test_coxpoly_bidegree():
    n = 2
    assert bidegree(cox_mul(Y2**n, SE), n) == (1, 0)
    assert bidegree(Y1, n) == (0, 1)
    assert bidegree(SINF, n) == (1, 0)
    assert bidegree(CoxPoly.zero(), n) is None
    with pytest.raises(NotWellDefined):
        bidegree(Y1 + SE, n)


def test_monad_frozen_point():
    m = build_monad(point_rep(), nu(1, 0))
    assert [str(m.Amat[k][0]) for k in range(3)] == ["y2*se", "y1", "0"]
    assert [str(m.Bmat[0][k]) for k in range(3)] == ["y1", "-1*y2*se", "sinf"]
    comp = check_complex(m)
    assert all(p.is_zero() for row in comp for p in row)
    assert fiber_ranks(m, (1, 0, 1, 1)) == (1, 1)


def test_monad_requires_square_and_regular():
    tall = HirzRep(
        n=1, c0=1, c1=2, A1=M([[0], [0]]), A2=M([[1], [0]]),
        C=(M([[0, 0]]),), I=(), J=M([[1]]),
    )
    with pytest.raises(ShapeMismatch):
        build_monad(tall, nu(1, 0))
    pencil = HirzRep(
        n=1, c0=1, c1=1, A1=M([[1]]), A2=M([[0]]), C=(M([[0]]),), I=(), J=M([[1]])
    )
    with pytest.raises(SingularAnu):
        build_monad(pencil, nu(1, 0))


def test_complex_vanishes_iff_relations():
    rng = random.Random(31)
    a = adhm_from_ideal(ideal_of_points(random_points(rng, 3)))
    x = chart_embed(a, nu(1, 2), 2)
    charts = [nu(1, 0), nu(1, 1), nu(1, 2), nu(1, 3)]
    for point in charts:
        comp = check_complex(build_monad(x, point))
        assert all(p.is_zero() for row in comp for p in row)
    # break one relation entry: the composite must witness it somewhere
    rows = [list(r) for r in x.C[0].data]
    rows[1][2] += Fraction(1)
    bad = HirzRep(
        n=2, c0=3, c1=3, A1=x.A1, A2=x.A2,
        C=(M(rows), x.C[1]), I=x.I, J=x.J,
    )
    assert any(not r.is_zero() for r in hirz_residuals(bad))
    hits = []
    for point in charts:
        comp = check_complex(build_monad(bad, point))
        hits.append(any(not p.is_zero() for row in comp for p in row))
    assert any(hits)
    assert any(not r.is_zero() for r in complex_residuals(bad))


def test_complex_residuals_blind_spot():
    # relation defects that intertwine with the pencil build an honest
    # complex in every chart; complex_residuals names exactly that boundary
    x = HirzRep(
        n=2, c0=1, c1=1,
        A1=M([[1]]), A2=M([[1]]),
        C=(M([[1]]), M([[0]])), I=(M([[0]]),), J=M([[1]]),
    )
    assert any(not r.is_zero() for r in hirz_residuals(x))
    assert all(r.is_zero() for r in complex_residuals(x))
    for point in [nu(1, 0), nu(0, 1), nu(1, 1), nu(1, -2), nu(2, 3)]:
        comp = check_complex(build_monad(x, point))
        assert all(p.is_zero() for row in comp for p in row)


def test_complex_residuals_follow_relations():
    rng = random.Random(77)
    a = adhm_from_ideal(ideal_of_points(random_points(rng, 3)))
    for n in (1, 2, 3):
        x = chart_embed(a, nu(1, 1), n)
        assert all(r.is_zero() for r in complex_residuals(x))
        assert len(complex_residuals(x)) == n


def test_entries_are_bihomogeneous():
    rng = random.Random(32)
    a = adhm_from_ideal(ideal_of_points(random_points(rng, 2)))
    for n in (1, 2, 3):
        x = chart_embed(a, nu(1, 1), n)
        m = build_monad(x, nu(1, 1))
        c = x.c0
        for i, row in enumerate(m.Amat):
            want = (1, 0) if i < c else (0, 1)
            for p in row:
                assert bidegree(p, n) in (None, want)
        for row in m.Bmat:
            for j, p in enumerate(row):
                want = (0, 1) if j < c else (1, 0)
                assert bidegree(p, n) in (None, want)


def test_fiber_ranks_full_on_stable():
    rng = random.Random(33)
    a = adhm_from_ideal(ideal_of_points(random_points(rng, 2)))
    x = chart_embed(a, nu(1, 0), 2)
    m = build_monad(x, nu(1, 0))
    for pt in ((1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, -1, 2, 3), (1, 2, 0, 1)):
        assert fiber_ranks(m, pt) == (2, 2)


def test_fiber_rank_drops_without_framing():
    dead = HirzRep(
        n=1, c0=1, c1=1, A1=M([[0]]), A2=M([[1]]), C=(M([[0]]),), I=(), J=M([[0]])
    )
    m = build_monad(dead, nu(1, 0))
    assert fiber_ranks(m, (0, 1, 0, 1))[1] == 0


def test_fiber_ranks_drop_on_fractional_blocks():
    # at nu = [1, 0] and n = 1, alpha is (y2 s_e + b2 s_inf, y1 + b1 y2, 0)
    # and beta (y1 + b1 y2, -(y2 s_e + b2 s_inf), 0); with b1 = 1/2 and
    # b2 = 1/3 both vanish at (-1, 2, 1, -6), which the integer assembly
    # sees only if it scales every entry by the same factor
    dead = HirzRep(
        n=1, c0=1, c1=1, A1=M([[0]]), A2=M([[1]]), C=(M([[0]]),), I=(), J=M([[0]])
    )
    m = replace(build_monad(dead, nu(1, 0)), b1=M([[Fraction(1, 2)]]), b2=M([[Fraction(1, 3)]]))
    assert fiber_ranks(m, (-1, 2, 1, -6)) == (0, 0)
    for pt in ((-1, 2, 1, -6), (-1, 2, 1, 1), (1, 2, 1, -6), (1, 1, 1, 1)):
        alpha = [[evaluate(p, pt) for p in row] for row in m.Amat]
        beta = [[evaluate(p, pt) for p in row] for row in m.Bmat]
        assert fiber_ranks(m, pt) == (rank(M(alpha)), rank(M(beta)))


def test_points_need_four_coordinates():
    m = build_monad(point_rep(), nu(1, 0))
    for pt in ((1, 0, 1), (1, 0, 1, 1, 1)):
        with pytest.raises(ShapeMismatch):
            fiber_ranks(m, pt)
        with pytest.raises(ShapeMismatch):
            evaluate(SINF, pt)


def test_fiber_ranks_take_each_branch(monkeypatch):
    # on a reduced cycle embedded at [1, 0], Q = y1 + b1^T y2 is singular
    # on the fiber y1 = -x y2 of a support point (x, y), and P = y2^n s_e
    # + b2^T s_inf where also s_e = -y s_inf; moving off either by 1/7
    # leaves an invertible block.  Each rank pair is the entrywise one, and
    # the number of rank calls tells the branch: Q, then P, then alpha and beta.
    # Each point is read on a fresh copy of the monad, which has no kept Q
    # verdict: the points of one support point share their base point.
    calls = []

    def counted(mat):
        calls[-1] += 1
        return rank(mat)

    monkeypatch.setattr("nestquiv.monad.rank", counted)
    taken = set()
    shift = Fraction(1, 7)
    for seed in range(4):
        for c in (2, 3, 5):
            pts = random_points(random.Random(seed), c)
            for n in (1, 2, 3):
                m = build_monad(chart_embed(adhm_from_ideal(ideal_of_points(pts)), nu(1, 0), n), nu(1, 0))
                for x, y in pts:
                    for pt, want in (
                        ((-x, 1, -y, 1), (c - 1, c)),
                        ((-x, 1, -y + shift, 1), (c, c)),
                        ((-x + shift, 1, -y, 1), (c, c)),
                    ):
                        calls.append(0)
                        got = fiber_ranks(replace(m), pt)
                        taken.add(calls[-1])
                        alpha = [[evaluate(p, pt) for p in row] for row in m.Amat]
                        beta = [[evaluate(p, pt) for p in row] for row in m.Bmat]
                        assert got == want == (rank(M(alpha)), rank(M(beta)))
    assert taken == {1, 2, 4}


def test_fiber_ranks_at_non_integer_charts():
    # a reduced cycle embedded at a chart nu whose label is not integral;
    # the point whose rotated coordinates are (y1_nu, y2_nu) = (-x, 1) and
    # (s_e, s_inf) = (-y, 1) for a support point (x, y) makes Q and P
    # singular, and moving s_e or y1_nu by 1/7 leaves an invertible block:
    # each rank pair is the entrywise one, through every branch
    shift = Fraction(1, 7)
    rng = random.Random(24)
    for point in (nu(2, -3), nu(3, 1), nu(1, Fraction(1, 2)), nu(0, 1)):
        n1, n2, rho = point.nu1, point.nu2, point.rho
        for n in (1, 2, 3):
            c = rng.randint(2, 4)
            pts = random_points(rng, c)
            m = build_monad(chart_embed(adhm_from_ideal(ideal_of_points(pts)), point, n), point)
            for x, y in pts:
                for y1n, se, want in ((-x, -y, (c - 1, c)), (-x, -y + shift, (c, c)), (-x + shift, -y, (c, c))):
                    pt = ((n1 * y1n - n2) / rho, (n2 * y1n + n1) / rho, se, Fraction(1))
                    alpha = [[evaluate(p, pt) for p in row] for row in m.Amat]
                    beta = [[evaluate(p, pt) for p in row] for row in m.Bmat]
                    assert fiber_ranks(m, pt) == want == (rank(M(alpha)), rank(M(beta)))


def test_fiber_ranks_drop_exactly_on_the_support():
    # the monad against the ideal layer: at [1, 0] alpha loses rank at
    # (-x, 1, -y, 1) for each point (x, y) that `support` reads, and nowhere
    # else sampled: not at the cross points (x_i, y_j), where Q and P are
    # both singular, nor at seeded points off the support
    checked = 0
    for c, seed in product((2, 3, 5), range(6)):
        rng = random.Random(seed)
        a = adhm_from_ideal(ideal_of_points(random_points(rng, c)))
        pts = {(x, y) for x, y, length in support_points(support(a)) if length == 1}
        assert len(pts) == c
        cross = {(x, y) for x, _ in pts for _, y in pts} - pts
        off = set()
        while len(off) < 3:
            p = (random_fraction(rng), random_fraction(rng))
            if p not in pts:
                off.add(p)
        for n in (1, 2, 3):
            m = build_monad(chart_embed(a, nu(1, 0), n), nu(1, 0))
            for (x, y), ranks in [(p, (c - 1, c)) for p in pts] + [(p, (c, c)) for p in cross | off]:
                assert fiber_ranks(m, (-x, 1, -y, 1)) == ranks
            checked += len(cross)
    assert checked == 474


def test_fiber_ranks_drop_by_the_socle_on_fat_points():
    # a fat point: the monomial ideal of a partition lam moved to a random
    # rational point (x, y), gauge-scrambled and embedded at [1, 0].  At
    # (-x, 1, -y, 1) Q and P are the transposed nilpotent parts, and alpha
    # has rank c - s, s the number of removable boxes of lam (the socle
    # dimension of the local algebra); off the point nothing drops
    rng = random.Random(7)
    checked = 0
    for lam in ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1)):
        c, s = sum(lam), len(set(lam))
        a = adhm_from_ideal(monomial_ideal(lam))
        x, y = random_fraction(rng), random_fraction(rng)
        ident = RationalMatrix.identity(c)
        a = replace(a, b1=a.b1 + ident.scale(x), b2=a.b2 + ident.scale(y))
        for n in (1, 2, 3):
            rep = act(random_gauge(rng, c), chart_embed(a, nu(1, 0), n))
            m = build_monad(rep, nu(1, 0))
            assert fiber_ranks(m, (-x, 1, -y, 1)) == (c - s, c)
            checked += 1
            for off in ((x, y + 1), (x + 1, y), (random_fraction(rng), random_fraction(rng))):
                if off != (x, y):
                    assert fiber_ranks(m, (-off[0], 1, -off[1], 1)) == (c, c)
    assert checked == 33


def _chart_point(at: NuPoint, x, y) -> tuple:
    """The fiber point (y1, y2, s_e, s_inf) with y1_nu = -x, y2_nu = 1,
    s_e = -y and s_inf = 1 in the chart at: there Q = b1^T - x and
    P = b2^T - y, in the coordinates of a datum embedded at that chart."""
    n1, n2, rho = at.nu1, at.nu2, at.rho
    return (-n1 * x - n2) / rho, (-n2 * x + n1) / rho, -y, 1


def test_fiber_ranks_drop_by_the_socle_on_unions_of_fat_points():
    # a union of 2 or 3 fat points at distinct rational points, embedded
    # in each of three charts and gauge-scrambled.  alpha's kernel is the
    # common kernel of P and Q, the joint eigenvectors of (b1^T, b2^T) at
    # the point, so at each support point it is that point's socle alone,
    # of dimension s, the removable boxes of its partition; off the
    # support nothing drops
    rng = random.Random(29)
    shapes = [lam for size in (1, 2, 3) for lam in partitions(size)]
    checked = 0
    for _ in range(10):
        k = rng.randint(2, 3)
        lams = [rng.choice(shapes) for _ in range(k)]
        pts = random_points(rng, k)
        a = union([fat_point(lam, *pt) for lam, pt in zip(lams, pts)])
        c = a.c
        for at in (nu(1, 0), nu(1, 1), nu(0, 1)):
            for n in (1, 2, 3):
                m = build_monad(act(random_gauge(rng, c), chart_embed(a, at, n)), at)
                for lam, (x, y) in zip(lams, pts):
                    assert fiber_ranks(m, _chart_point(at, x, y)) == (c - len(set(lam)), c)
                    checked += 1
                off = (random_fraction(rng), random_fraction(rng))
                if off not in pts:
                    assert fiber_ranks(m, _chart_point(at, *off)) == (c, c)
    assert checked == 198


def test_excluded_locus():
    m = build_monad(point_rep(), nu(1, 0))
    with pytest.raises(ExcludedLocus):
        fiber_ranks(m, (0, 0, 1, 1))
    with pytest.raises(ExcludedLocus):
        fiber_ranks(m, (1, 1, 0, 0))


def _monad_check(tmp_path, capsys, x, *extra):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(x.to_json()))
    code = main(["monad-check", str(path), *extra])
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_monad_check_reads_each_point_like_fiber_ranks(tmp_path, capsys):
    # the inputs of tests/test_frozen_outputs.py::test_monad_check_digest:
    # seeded stable representations, single-entry mutants of them and a
    # cycle on the sample fibers, in the scanned chart and at [1, 1/2]
    rng = random.Random(11)
    charts = (CHART_FIRST, CHART_SECOND, CHART_MIXED)
    reps = []
    for n in range(1, 4):
        for c in range(2, 6):
            x = random_hirz_stable(rng, c, n, charts[(n + c) % 3])
            reps += [x, _single_entry_mutant(rng, x)]
        pts = [(Fraction(-1), Fraction(-1)), (Fraction(0), Fraction(-2)), (Fraction(1), Fraction(-1, 2))]
        reps.append(chart_embed(adhm_from_ideal(ideal_of_points(pts)), CHART_FIRST, n))
    assert len(reps) == 27
    compared = dropped = 0
    for x in reps:
        for extra in ([], ["--nu", "1,1/2"]):
            _, report = _monad_check(tmp_path, capsys, x, *extra)
            if report is None:
                continue
            m = build_monad(x, NuPoint.from_json(report["nu"]))
            points = [tuple(map(Fraction, pt)) for pt in report["points"]]
            want = [list(fiber_ranks(m, pt)) for pt in points]
            assert report["ranks"] == want
            compared += 1
            dropped += not report["full_rank"]
    assert (compared, dropped) == (54, 10)


def test_monad_check_ranks_q_once_per_base_point(tmp_path, capsys, monkeypatch):
    # at [1, 0] Q = y1 + b1^T y2 is singular only where y1 = -x y2 for a
    # support point (x, y); with no x in {0, -1, 1, -2} it is invertible at
    # all five sample base points.  At (1, 0) y2 = 0 and Q = y1 Id is not
    # ranked, so the 20 points take 4 rank calls: Q's verdict is kept on
    # the monad per base point, in monad-check and in a direct loop over
    # the points alike
    calls = []

    def counted(mat):
        calls.append(mat.rows)
        return rank(mat)

    pts = [(Fraction(3), Fraction(1)), (Fraction(5), Fraction(-2)), (Fraction(1, 2), Fraction(4))]
    monkeypatch.setattr("nestquiv.monad.rank", counted)
    for n in (1, 2, 3):
        x = chart_embed(adhm_from_ideal(ideal_of_points(pts)), nu(1, 0), n)
        calls.clear()
        code, report = _monad_check(tmp_path, capsys, x, "--nu", "1,0")
        assert code == 0 and report["full_rank"] and calls == [3] * 4
        calls.clear()
        m = build_monad(x, nu(1, 0))
        for pt in report["points"]:
            fiber_ranks(m, tuple(map(Fraction, pt)))
        assert calls == [3] * 4


def test_kept_q_verdict_keeps_every_check():
    # after a good point with base point (1, 0), whose Q verdict the monad
    # keeps, points with that base point are still checked in full
    m = build_monad(point_rep(), nu(1, 0))
    assert fiber_ranks(m, (1, 0, 1, 1)) == (1, 1)
    with pytest.raises(ExcludedLocus, match=r"^s_e = s_inf = 0 is not on the surface$"):
        fiber_ranks(m, (1, 0, 0, 0))
    with pytest.raises(
        ShapeMismatch, match=r"^a point has the four coordinates y1, y2, s_e, s_inf, got 3$"
    ):
        fiber_ranks(m, (1, 0, 1))
    with pytest.raises(ExcludedLocus, match=r"^y1 = y2 = 0 is not on the surface$"):
        fiber_ranks(m, (0, 0, 1, 1))
    assert fiber_ranks(m, (1, 0, 2, 1)) == (1, 1)


@pytest.mark.parametrize(
    "points",
    [
        [(1, 0, 1, 1), (1, 0, 1), (0, 0, 1, 1)],
        [(1, 0, 1, 1), (0, 0, 1, 1), (1, 0, 1)],
        [(2, 1, 1, 0), (1, 1, 0, 0), (0, 0, 1, 1)],
        [(0, 0, 0, 0), (1, 0, 1, 1, 1)],
        [(1, 0, 1, 1, 1), (0, 0, 0, 0)],
    ],
)
def test_grouped_reader_raises_the_first_error(points):
    # monad-check's reading: the points in order on one monad, which keeps
    # Q's verdict per base point, raise what the points read each on a
    # fresh copy raise first
    m = build_monad(point_rep(), nu(1, 0))

    def first_error(read):
        with pytest.raises((ShapeMismatch, ExcludedLocus)) as e:
            read()
        return type(e.value), str(e.value)

    assert first_error(lambda: [fiber_ranks(m, pt) for pt in points]) == first_error(
        lambda: [fiber_ranks(replace(m), pt) for pt in points]
    )


def _random_rep(rng, c, n):
    """A representation with random entries: its relations almost surely fail."""

    def mat(rows, cols):
        return M([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                  for _ in range(rows)])

    return HirzRep(
        n=n, c0=c, c1=c, A1=mat(c, c), A2=mat(c, c), C=tuple(mat(c, c) for _ in range(n)),
        I=tuple(mat(c, 1) for _ in range(n - 1)), J=mat(1, c),
    )


def test_kept_q_verdict_is_order_free():
    # monad-check's 20 points, and two whose base points share numerators
    # with (1, 1), read in order, reversed and shuffled, each order on one
    # monad, give what each point gives on a fresh copy, which has no kept
    # Q verdict; the cycle with a point at x = -1 makes Q singular at the
    # base point (1, 1) but not at (1/2, 1) or (1, 1/2)
    rng = random.Random(53)
    points = [(y1, y2, se, si) for (se, si) in _MONAD_S for (y1, y2) in _MONAD_Y]
    points += [(Fraction(1, 2), 1, 1, 1), (1, Fraction(1, 2), 1, 1)]
    pts = [(Fraction(-1), Fraction(-1)), (Fraction(0), Fraction(-2)), (Fraction(1), Fraction(-1, 2))]
    reps = [_random_rep(rng, 1 + k % 4, 1 + k % 3) for k in range(8)]
    reps.append(chart_embed(adhm_from_ideal(ideal_of_points(pts)), nu(1, 0), 2))
    built = 0
    for x in reps:
        for point in (nu(1, 0), nu(1, 1)):
            try:
                m = build_monad(x, point)
            except SingularAnu:
                continue
            built += 1
            want = {pt: fiber_ranks(replace(m), pt) for pt in points}
            orders = [points, points[::-1]] + [rng.sample(points, len(points)) for _ in range(3)]
            for order in orders:
                m = replace(m)
                for pt in order:
                    assert fiber_ranks(m, pt) == want[pt]
    assert built >= 12


def test_closed_forms_match_entrywise_product():
    # the composite against beta . alpha multiplied out entry by entry, and
    # the fiber ranks against alpha and beta evaluated entry by entry, on
    # data that breaks the relations
    rng = random.Random(41)
    points = []
    while len(points) < 20:
        pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4))
        if (pt[0] or pt[1]) and (pt[2] or pt[3]):
            points.append(pt)
    built = nonzero = 0
    for k in range(12):
        x = _random_rep(rng, 1 + k % 5, 1 + k % 3)
        for point in (nu(1, 0), nu(1, 1), nu(2, -3)):
            try:
                m = build_monad(x, point)
            except SingularAnu:
                continue
            built += 1
            width = 2 * m.c + 1
            want = []
            for i in range(m.c):
                row = []
                for j in range(m.c):
                    acc = CoxPoly.zero()
                    for t in range(width):
                        acc = acc + cox_mul(m.Bmat[i][t], m.Amat[t][j])
                    row.append(acc)
                want.append(row)
            comp = check_complex(m)
            assert comp == want
            nonzero += any(not p.is_zero() for row in comp for p in row)
            for pt in points:
                alpha = [[evaluate(p, pt) for p in row] for row in m.Amat]
                beta = [[evaluate(p, pt) for p in row] for row in m.Bmat]
                assert fiber_ranks(m, pt) == (
                    rank(RationalMatrix.from_rows(alpha, cols=m.c)),
                    rank(RationalMatrix.from_rows(beta, cols=width)),
                )
    assert built >= 30 and nonzero >= 25


def test_monad_json_is_frozen():
    # sha256 of the sorted-key JSON of alpha and beta, recorded when they
    # were still built entry by entry
    point = "f6614c42ad583151b81151c7c2f794d510b60a31b7a9bcbda093ddb6dd2ce318"
    seeded = "9b311e01b0205ec1239351319492a37e57ead0204d5770e3d4c7ab1772cc48c1"

    def digest(m):
        return hashlib.sha256(json.dumps(m.to_json(), sort_keys=True).encode()).hexdigest()

    assert digest(build_monad(point_rep(), nu(1, 0))) == point
    assert digest(build_monad(_random_rep(random.Random(3), 3, 3), nu(1, 1))) == seeded
