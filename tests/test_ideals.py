import ast
import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nestquiv
from nestquiv import cli, ideals, ratmat
from nestquiv import (
    AdhmData,
    BadPair,
    DomainError,
    NestedIdealPair,
    NotAnIdeal,
    NotCostable,
    RationalMatrix,
    ShapeMismatch,
    ZeroCycleIdeal,
    adhm_from_ideal,
    canonical_form,
    contains,
    enumerate_nested_monomial,
    ideal_from_adhm,
    inclusion_matrix,
    monomial_ideal,
    nested_to_rep,
    partitions,
    support,
    transform_chart,
)
from nestquiv.chart import closure_scan, monomial_rows
from nestquiv.corpus import (
    ideal_of_points, random_fraction, random_gauge, random_invertible, random_nested_pair, random_points,
)
from nestquiv.monomials import count_upto, monomials_upto
from nestquiv.ratmat import block_diag, invert, kernel_basis, rank, rref

from conftest import M, nu, poly_value, support_points


def test_validate_rejects_non_ideal():
    # span{x} alone is not closed under multiplication at degree 2
    rows = [[0, 1, 0, 0, 0, 0]]
    with pytest.raises(NotAnIdeal):
        ZeroCycleIdeal.from_rows([[Fraction(v) for v in r] for r in rows], c=5, d=2)


def test_monomial_ideal_staircase():
    i = monomial_ideal((2,))
    assert i.c == 2 and i.d == 2
    assert i.standard_monomials() == [(0, 0), (1, 0)]
    j = monomial_ideal((2, 1))
    assert j.standard_monomials() == [(0, 0), (1, 0), (0, 1)]
    assert j.c == 3


def test_adhm_from_ideal_frozen():
    a = adhm_from_ideal(monomial_ideal((2,)))
    assert a.b1 == M([[0, 1], [0, 0]])
    assert a.b2 == M([[0, 0], [0, 0]])
    assert a.e == M([[1, 0]])


def test_adhm_from_ideal_non_monomial():
    # (y, x^2 - x): multiplication by x fixes x and sends 1 to x
    i = ZeroCycleIdeal.from_rows(
        [
            [0, 0, 1, 0, 0, 0],
            [0, -1, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ],
        c=2,
        d=2,
    )
    a = adhm_from_ideal(i)
    assert a.b1 == M([[0, 1], [0, 1]])
    assert a.b2 == M([[0, 0], [0, 0]])
    assert a.e == M([[1, 0]])


def test_dictionary_is_inverse_both_ways():
    rng = random.Random(12)
    for c in (1, 2, 3, 4):
        ideal = ideal_of_points(random_points(rng, c))
        assert ideal_from_adhm(adhm_from_ideal(ideal)) == ideal
    for lam in partitions(3):
        ideal = monomial_ideal(lam)
        assert ideal_from_adhm(adhm_from_ideal(ideal)) == ideal


def test_ideal_from_adhm_needs_costable():
    b1 = M([[1, 1], [0, 2]])
    with pytest.raises(NotCostable):
        ideal_from_adhm(AdhmData(c=2, b1=b1, b2=b1 @ b1, e=M([[0, 1]])))


def _scrambled(rng: random.Random, a: AdhmData) -> AdhmData:
    g = random_gauge(rng, a.c)
    return AdhmData(c=a.c, b1=g.g1 @ a.b1 @ g.inv1, b2=g.g1 @ a.b2 @ g.inv1, e=a.e @ g.inv1)


def _kernel_ideal(a: AdhmData) -> ZeroCycleIdeal:
    """The ideal as the left kernel of the walk up to degree c: one
    kernel_basis row per non-pivot monomial, reversed so the rows list
    their pivots descending."""
    ev = monomial_rows(a.b1, a.b2, a.e, a.c)
    ker = kernel_basis(ev.transpose()).transpose()
    if ker.rows != count_upto(a.c) - a.c:
        raise NotCostable("datum is not costable")
    return ZeroCycleIdeal(c=a.c, d=a.c, basis=RationalMatrix.from_rows(ker.data[::-1], cols=ker.cols))


def test_ideal_from_adhm_matches_kernel_construction():
    # the normal forms of the closure scan give the same basis as the left
    # kernel of the walk, on scrambled point ideals, monomial ideals and the
    # two-chart big ideals; non-costable data have their closure rank
    # counted alike by the rank of their walk and by closure_scan
    rng = random.Random(31)
    ideals = [ideal_of_points(random_points(rng, c)) for c in range(1, 9)]
    ideals += [monomial_ideal(lam) for lam in partitions(4) + partitions(5)]
    ideals += [pair.big for pair in enumerate_nested_monomial(1, 4, charts=2, n=2)]
    one = RationalMatrix([[1]])
    for ideal in ideals:
        std, nf = ideal.standard_monomials(), ideal.normal_forms()
        assert ZeroCycleIdeal.from_normal_forms(std, nf, ideal.d) == ideal
        a = _scrambled(rng, adhm_from_ideal(ideal))
        assert ideal_from_adhm(a) == _kernel_ideal(a) == ideal
        unreachable = AdhmData(
            c=a.c + 1,
            b1=block_diag([a.b1, one]),
            b2=block_diag([a.b2, one.scale(2)]),
            e=a.e.hstack(RationalMatrix([[0]])),
        )
        e_zero = AdhmData(c=a.c, b1=a.b1, b2=a.b2, e=RationalMatrix.zeros(1, a.c))
        for bad, r in ((unreachable, a.c), (e_zero, 0), (_scrambled(rng, unreachable), a.c)):
            walk = monomial_rows(bad.b1, bad.b2, bad.e, bad.c - 1)
            assert rank(walk) == len(closure_scan(bad.b1, bad.b2, bad.e).kept) == r
            for build in (ideal_from_adhm, _kernel_ideal):
                with pytest.raises(NotCostable, match="datum is not costable"):
                    build(bad)


def test_dictionary_json_is_frozen():
    # sha256 of the sorted-key JSON of nested_to_rep and of ideal_from_adhm
    # and canonical_form of scrambled data, over the two-chart torus-fixed
    # pairs with c <= 4 at n = 2; recorded when ideal_from_adhm took the
    # kernel of the walk and canonical_form conjugated by the kept rows
    frozen = "3de3840aeafb4d1930efd7869ca7ebb59ae716d79b69a902b62910c46947112c"
    rng = random.Random(6)
    records = []
    for c in range(2, 5):
        for cp in range(1, c):
            for pair in enumerate_nested_monomial(cp, c, charts=2, n=2):
                s = _scrambled(rng, adhm_from_ideal(pair.big))
                records.append([
                    pair.to_json(),
                    nested_to_rep(pair, 2).to_json(),
                    ideal_from_adhm(s).to_json(),
                    canonical_form(s).to_json(),
                ])
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest() == frozen


def test_contains_direction():
    big = monomial_ideal((2,))
    small = monomial_ideal((1,))
    assert contains(big, small)
    assert not contains(small, big)
    assert contains(big, big)


def test_nested_pair_strictness():
    big = monomial_ideal((2,))
    with pytest.raises(ShapeMismatch):
        NestedIdealPair(nu=nu(1, 0), big=big, small=monomial_ideal((2,)))


def test_inclusion_matrix_frozen():
    big = monomial_ideal((2,))
    small = monomial_ideal((1,))
    assert inclusion_matrix(big, small) == M([[1], [0]])


def test_inclusion_matrix_reduction():
    # origin plus (1, 0), with the point (1, 0) inside: x reduces to the
    # constant 1 modulo (x - 1, y)
    big = ideal_of_points([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))])
    small = ideal_of_points([(Fraction(1), Fraction(0))])
    assert contains(big, small)
    assert inclusion_matrix(big, small) == M([[1], [1]])


@st.composite
def scrambled_cycles(draw, min_c=1, max_c=6):
    """(points, a): min_c <= c <= max_c distinct rational points and the
    diagonal datum of their reduced cycle, gauge-scrambled by g = L U with
    L, U unitriangular: b -> g b g^-1, e -> e g^-1."""
    c = draw(st.integers(min_value=min_c, max_value=max_c))
    coords = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    points = draw(st.lists(st.tuples(coords, coords), min_size=c, max_size=c, unique=True))
    entries = st.integers(min_value=-2, max_value=2)
    l = RationalMatrix([[draw(entries) if j < i else int(i == j) for j in range(c)] for i in range(c)])
    u = RationalMatrix([[draw(entries) if j > i else int(i == j) for j in range(c)] for i in range(c)])
    g = l @ u
    g_inv = invert(g)
    b1, b2 = (
        RationalMatrix([[pt[k] if i == j else 0 for j in range(c)] for i, pt in enumerate(points)]) for k in (0, 1)
    )
    e = RationalMatrix([[1] * c])
    return points, AdhmData(c=c, b1=g @ b1 @ g_inv, b2=g @ b2 @ g_inv, e=e @ g_inv)


@given(scrambled_cycles())
def test_dictionary_identities_hold_on_scrambled_cycles(cycle):
    points, a = cycle
    i = ideal_from_adhm(a)
    assert i == ideal_of_points(points)
    assert ideal_from_adhm(adhm_from_ideal(i)) == i
    assert canonical_form(a) == canonical_form(adhm_from_ideal(i)) == adhm_from_ideal(i)
    assert contains(i, i)


@given(scrambled_cycles(min_c=2), st.data())
def test_nested_scrambled_cycles_are_contained(cycle, data):
    points, a = cycle
    c = a.c
    kept = data.draw(st.lists(st.sampled_from(range(c)), min_size=1, max_size=c - 1, unique=True))
    big, small = ideal_from_adhm(a), ideal_of_points([points[k] for k in sorted(kept)])
    assert contains(big, small)
    assert not contains(small, big)
    assert rank(inclusion_matrix(big, small)) == len(kept)


def _point_pool(seed: int, size: int):
    return random_points(random.Random(seed), size)


def test_contains_matches_point_inclusion():
    # I(P) <= I(Q) exactly when Q is a subset of P, for reduced point sets
    pool = _point_pool(21, 8)
    rng = random.Random(22)
    seen = set()
    for _ in range(60):
        p = rng.sample(pool, rng.randint(1, 6))
        if rng.random() < 0.5:
            q = rng.sample(p, rng.randint(1, len(p)))
        else:
            q = rng.sample(pool, rng.randint(1, 6))
        expected = set(q) <= set(p)
        seen.add(expected)
        assert contains(ideal_of_points(p), ideal_of_points(q)) == expected
    assert seen == {True, False}


def _monomial_at(m, pt) -> Fraction:
    return pt[0] ** m[0] * pt[1] ** m[1]


def test_inclusion_matrix_vandermonde():
    # m(q) = sum_t incl[m, t] s_t(q) for each big standard monomial m and
    # q in Q; the small standard monomials separate the points of Q, so this
    # pins every entry of the inclusion matrix
    pool = _point_pool(23, 7)
    rng = random.Random(24)
    for _ in range(25):
        p = rng.sample(pool, rng.randint(2, 6))
        q = rng.sample(p, rng.randint(1, len(p) - 1))
        big, small = ideal_of_points(p), ideal_of_points(q)
        incl = inclusion_matrix(big, small)
        big_std, small_std = big.standard_monomials(), small.standard_monomials()
        assert (incl.rows, incl.cols) == (len(big_std), len(small_std))
        vander = M([[_monomial_at(s, pt) for s in small_std] for pt in q])
        assert rank(vander) == len(q)
        for k, m in enumerate(big_std):
            for pt in q:
                assert _monomial_at(m, pt) == sum(
                    incl[k, t] * _monomial_at(s, pt) for t, s in enumerate(small_std)
                )


def test_contains_needs_readable_multiplication():
    # (y) stored with c = 2, d = 1: the standard monomial x sits at the
    # degree bound, so multiplication by x cannot be read off
    short = ZeroCycleIdeal.from_rows([[0, 0, 1]], c=2, d=1)
    with pytest.raises(NotAnIdeal):
        contains(monomial_ideal((2,)), short)
    with pytest.raises(NotAnIdeal):
        inclusion_matrix(monomial_ideal((3,)), short)


def test_inclusion_matrix_of_the_empty_cycle():
    # colength 0: the unit ideal has no 1 to send to 1, so it lies only in
    # itself, with an empty inclusion
    whole = monomial_ideal(())
    assert inclusion_matrix(whole, whole) == RationalMatrix.zeros(0, 0)
    for small in (monomial_ideal((1,)), monomial_ideal((2, 1))):
        with pytest.raises(BadPair):
            inclusion_matrix(whole, small)


def test_from_rows_ignores_recombination():
    # the canonical basis depends only on the row span
    rng = random.Random(25)
    for c in (1, 2, 4, 6):
        i = ideal_of_points(random_points(rng, c))
        g = random_invertible(rng, i.basis.rows)
        assert ZeroCycleIdeal.from_rows((g @ i.basis).data, c=i.c, d=i.d) == i


def _rref_basis(m: RationalMatrix) -> RationalMatrix:
    """The reduced echelon form of m's rows with their columns reversed,
    reversed back, zero rows dropped: from_rows' elimination."""
    desc = range(m.cols - 1, -1, -1)
    red, pivots = rref(m.submatrix(range(m.rows), desc))
    return red.submatrix(range(len(pivots)), desc)


@given(scrambled_cycles(), st.data())
def test_from_rows_takes_reduced_rows_as_they_are(cycle, data):
    # the canonical rows and their mixings by a unitriangular integer
    # matrix, lower or upper, or with a row scaled or two rows swapped:
    # from_rows gives the elimination's basis, and eliminates exactly when
    # the rows are not that basis already
    points, a = cycle
    ideal = data.draw(st.sampled_from([ideal_of_points(points), ideal_from_adhm(a)]))
    basis, r = ideal.basis, ideal.basis.rows
    entries = st.integers(min_value=-2, max_value=2)
    kind = data.draw(st.sampled_from(["none", "lower", "upper", "scale", "swap"]))
    mix = [[int(i == j) for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(r):
            if (kind == "lower" and j < i) or (kind == "upper" and j > i):
                mix[i][j] = data.draw(entries)
    if kind == "scale":
        k = data.draw(st.integers(0, r - 1))
        mix[k][k] = data.draw(st.sampled_from([-1, 2, 3]))
    if kind == "swap" and r > 1:
        k = data.draw(st.integers(0, r - 2))
        mix[k], mix[k + 1] = mix[k + 1], mix[k]
    rows = RationalMatrix(mix) @ basis
    with pytest.MonkeyPatch.context() as patch:
        calls = []
        echelon = ratmat._echelon
        patch.setattr(ratmat, "_echelon", lambda a, ncols: calls.append(ncols) or echelon(a, ncols))
        got = ZeroCycleIdeal.from_rows(rows, c=ideal.c, d=ideal.d)
    assert got.basis == _rref_basis(rows) == basis and got == ideal
    assert (calls == []) == (rows == basis)


def test_reading_a_canonical_pair_file_eliminates_nothing(monkeypatch, tmp_path):
    # what the package writes is the reduced form, so reading it back runs
    # the closure check alone
    rng = random.Random(67)
    pairs = enumerate_nested_monomial(2, 4, charts=2, n=2)
    pairs += [random_nested_pair(rng, c, c // 2, at) for c in (4, 6, 8) for at in (nu(1, 0), nu(1, 1))]
    path = tmp_path / "pair.json"
    calls = []
    echelon = ratmat._echelon
    monkeypatch.setattr(ratmat, "_echelon", lambda a, ncols: calls.append(ncols) or echelon(a, ncols))
    for pair in pairs:
        path.write_text(json.dumps(pair.to_json()))
        got = cli._read(str(path), NestedIdealPair.from_json, "pair")
        assert got == pair and got.to_json() == pair.to_json()
    assert calls == []


def _value_at(mons, row, pt) -> Fraction:
    return sum(v * _monomial_at(m, pt) for m, v in zip(mons, row))


def _vertical_lines(points, d: int) -> list[Fraction]:
    """The coefficient row over monomials_upto(d) of the product of x - a
    over the points (a, b): it vanishes on all of them."""
    mons = monomials_upto(d)
    index = {m: k for k, m in enumerate(mons)}
    row = [Fraction(int(m == (0, 0))) for m in mons]
    for a, _ in points:
        row = [(row[index[(x - 1, y)]] if x else 0) - a * v for (x, y), v in zip(mons, row)]
    return row


def test_normal_forms_match_point_evaluation():
    # on a reduced cycle, a coefficient row v reduces to v @ normal_forms(),
    # a row over the standard monomials that takes v's value at every
    # point; it is zero exactly when v vanishes at every point
    rng = random.Random(26)
    pool = _point_pool(27, 7)
    seen = set()
    for _ in range(30):
        pts = rng.sample(pool, rng.randint(1, 5))
        i = ideal_of_points(pts)
        mons, std, nf = monomials_upto(i.d), i.standard_monomials(), i.normal_forms()
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in mons]
        reduced = dict(zip(std, (RationalMatrix([v]) @ nf).data[0]))
        rows = [
            v,
            [x - reduced.get(m, 0) for m, x in zip(mons, v)],
            *i.basis.data,
            _vertical_lines(pts, i.d),
            _vertical_lines(pts[1:], i.d),
        ]
        for q, r in zip(rows, (RationalMatrix(rows) @ nf).data):
            assert len(r) == len(std)
            assert all(_value_at(std, r, pt) == _value_at(mons, q, pt) for pt in pts)
            vanishes = all(_value_at(mons, q, pt) == 0 for pt in pts)
            seen.add(vanishes)
            assert (not any(r)) == vanishes
    assert seen == {True, False}


def test_partitions_frozen():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions(0) == [()]


def test_enumerate_counts_frozen():
    assert len(enumerate_nested_monomial(1, 2, charts=1)) == 2
    assert len(enumerate_nested_monomial(1, 2, charts=2)) == 6
    assert [len(enumerate_nested_monomial(0, c, charts=1)) for c in (1, 2, 3, 4, 5)] == [
        1,
        2,
        3,
        5,
        7,
    ]


def test_enumerate_refuses_equal_colengths_before_any_work(monkeypatch):
    def no_ideal(*args):
        raise AssertionError("built an ideal")

    monkeypatch.setattr(ideals, "_fixed_cycle_ideal", no_ideal)
    for c in (0, 3):
        for charts in (1, 2):
            with pytest.raises(ShapeMismatch, match=r"need 0 <= cp < c"):
                enumerate_nested_monomial(c, c, charts=charts)


def test_enumerate_refuses_a_surface_index_below_one_before_any_work(monkeypatch):
    # the index enters only through the mixed transport, so it was once
    # checked only where a mixed split occurred
    def no_ideal(*args):
        raise AssertionError("built an ideal")

    monkeypatch.setattr(ideals, "_fixed_cycle_ideal", no_ideal)
    for cp, c, charts, n in ((1, 2, 1, -5), (0, 1, 2, 0), (1, 2, 2, 0)):
        with pytest.raises(DomainError, match="the surface index n must be a positive integer"):
            enumerate_nested_monomial(cp, c, charts=charts, n=n)


def test_a_negative_colength_is_refused():
    with pytest.raises(ShapeMismatch, match="colength"):
        ZeroCycleIdeal(c=-1, d=1, basis=RationalMatrix.zeros(4, 3))


def _partitions_by_hand(k, largest=None):
    # partitions of k into parts <= largest, built independently of the package
    largest = k if largest is None else largest
    if k == 0:
        return [()]
    return [
        (part, *rest)
        for part in range(min(k, largest), 0, -1)
        for rest in _partitions_by_hand(k - part, part)
    ]


def test_fixed_point_counts_are_euler_characteristics():
    def nested(cp, c):  # pairs lam' <= lam of sizes (cp, c) at one fixed point
        return sum(
            len(small) <= len(big) and all(a <= b for a, b in zip(small, big))
            for big in _partitions_by_hand(c)
            for small in _partitions_by_hand(cp)
        )

    for c in range(1, 7):
        for cp in range(c):
            assert len(enumerate_nested_monomial(cp, c, charts=1)) == nested(cp, c)
            two = sum(
                nested(cp1, c1) * nested(cp - cp1, c - c1)
                for c1 in range(c + 1)
                for cp1 in range(min(cp, c1) + 1)
                if cp - cp1 <= c - c1
            )
            assert len(enumerate_nested_monomial(cp, c, charts=2)) == two

    # Cheah: at c' = c - 1 the count is the coefficient of q^(c-1) in
    # 2/(1-q) prod_k (1-q^k)^(-2), a series built here in integers
    top = 7
    series = [1] + [0] * (top - 1)
    for k in range(1, top):
        for _ in range(2):  # divide by (1 - q^k), twice
            for d in range(k, top):
                series[d] += series[d - k]
    cheah = [2 * sum(series[: d + 1]) for d in range(top)]
    assert cheah == [2, 6, 16, 36, 76, 148, 278]
    assert [len(enumerate_nested_monomial(c - 1, c, charts=2)) for c in range(1, top + 1)] == cheah


def test_one_chart_enumeration_is_the_first_block_of_two():
    for n in (1, 2, 3):
        for c in range(1, 6):
            for cp in range(c):
                one = enumerate_nested_monomial(cp, c, charts=1, n=n)
                two = enumerate_nested_monomial(cp, c, charts=2, n=n)
                first = [pair for pair in two if pair.nu == nu(1, 0)]
                assert one == first == two[: len(first)]


def test_monomial_ideal_matches_its_row_span():
    for c in range(8):
        for lam in partitions(c):
            for d in (c, c + 1, c + 2):
                mons = monomials_upto(d)
                rows = [
                    [int(j == k) for k in range(len(mons))]
                    for j, (a, b) in enumerate(mons)
                    if a >= (lam[b] if b < len(lam) else 0)
                ]
                reference = ZeroCycleIdeal.from_rows(rows, c=c, d=d)
                assert monomial_ideal(lam, d) == reference
                assert monomial_ideal(lam, d).to_json() == reference.to_json()
    with pytest.raises(ShapeMismatch):
        monomial_ideal((3,), d=1)


def test_enumerate_pairs_are_nested():
    for pair in enumerate_nested_monomial(1, 3, charts=2):
        assert contains(pair.big, pair.small)
        assert pair.big.c == 3 and pair.small.c == 1


def test_monomial_ideal_refuses_non_partitions():
    for lam in ((1, 2), (-1, 2), (1, 0, 1), (2, 0)):
        with pytest.raises(ShapeMismatch, match="not a partition"):
            monomial_ideal(lam)


def test_support_recovers_scrambled_points():
    # every point is a simple root u = x + t y of f, read back with length
    # 1; from c = 2 on two points share their x, so t = 0 cannot separate
    rng = random.Random(41)
    for c in range(1, 13):
        x0, y0 = random_fraction(rng), random_fraction(rng)
        pts = random_points(rng, c, [(x0, y0), (x0, y0 + 1)][:c])
        t, f, g1, gx, gy = support(_scrambled(rng, adhm_from_ideal(ideal_of_points(pts))))
        assert len(f) == c + 1 and f[-1] == 1 and (t != 0 or c == 1)
        df = [i * v for i, v in enumerate(f)][1:]
        for x, y in pts:
            u = x + t * y
            assert poly_value(f, u) == 0
            assert poly_value(gx, u) / poly_value(g1, u) == x
            assert poly_value(gy, u) / poly_value(g1, u) == y
            assert poly_value(g1, u) / poly_value(df, u) == 1


def test_support_of_two_points_is_frozen():
    # f = (T - 1)(T + 1/2), and g_v = v(1, 2) (T + 1/2) + v(-1/2, 3) (T - 1)
    a = adhm_from_ideal(ideal_of_points([(Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(3))]))
    h = Fraction(1, 2)
    assert support(a) == (0, [-h, -h, 1], [-h, 2], [1, h], [-2, 5])


def test_support_of_a_monomial_ideal_is_the_origin():
    assert support(adhm_from_ideal(monomial_ideal(()))) == (0, [1], [], [], [])
    for c in range(1, 7):
        for lam in partitions(c):
            t, f, g1, gx, gy = support(adhm_from_ideal(monomial_ideal(lam)))
            assert (f, g1, gx, gy) == ([0, 1], [c], [0], [0])


def test_support_of_a_datum_that_is_not_costable_raises(monkeypatch):
    # b1 = b2 = 0 with e = (1, 0) has no cycle: it read as one point of
    # length 2 until the lazy count was asked first; it raises before any
    # trace is taken
    zero = M([[0, 0], [0, 0]])
    bad = [AdhmData(c=2, b1=zero, b2=zero, e=M([[1, 0]]))]
    bad.append(AdhmData(c=3, b1=M([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), b2=M([[0] * 3] * 3), e=M([[1, 0, 0]])))
    monkeypatch.setattr(ideals, "_trace", None)
    for a in bad:
        with pytest.raises(NotCostable, match="not costable"):
            support(a)


def test_support_is_gauge_invariant():
    rng = random.Random(43)
    data = [adhm_from_ideal(ideal_of_points(random_points(rng, c))) for c in (3, 5, 7)]
    data += [
        adhm_from_ideal(pair.big)
        for pair in enumerate_nested_monomial(0, 4, charts=2, n=2)
        if pair.nu == nu(1, 1)
    ]
    for a in data:
        want = support(a)
        for _ in range(3):
            assert support(_scrambled(rng, a)) == want


def test_support_lengths_survive_a_chart_change():
    # the two-chart fixed cycles, read in [1, 1] and in two other regular
    # charts: the same number of points with the same lengths
    for n in (1, 2, 3):
        for c in range(1, 5):
            for pair in enumerate_nested_monomial(0, c, charts=2, n=n):
                if pair.nu != nu(1, 1):
                    continue
                a = adhm_from_ideal(pair.big)
                want = sorted(length for _, _, length in support_points(support(a)))
                assert sum(want) == c
                for to in (nu(1, 2), nu(1, -3)):
                    moved = support(transform_chart(a, pair.nu, to, n))
                    assert sorted(length for _, _, length in support_points(moved)) == want


def test_no_module_uses_floats():
    # the package has one number system: no float library, no float type
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert not {m.split(".")[0] for m in modules} & {"numpy", "scipy"}, path.name
            assert not (isinstance(node, ast.Name) and node.id in ("float", "complex")), path.name


def _is_memo(node) -> bool:
    """Is node functools.cache or lru_cache, bare, as an attribute, or called?"""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in ("cache", "lru_cache")
    return isinstance(node, ast.Name) and node.id in ("cache", "lru_cache")


def test_no_module_level_memo_table():
    # readings are kept on the objects they read (HirzRep._kept, cached
    # properties), so nothing outlives its object: no module-level
    # functools.cache or lru_cache except on the CLI's argument parser.
    # A cache inside a function body lives for that one call.
    found = []
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                aliased = [a.name for a in node.names if a.asname and a.name in ("cache", "lru_cache")]
                assert not aliased, path.name
            # top-level statements and class bodies live as long as the module
            for item in [node, *(node.body if isinstance(node, ast.ClassDef) else ())]:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(_is_memo(d) for d in item.decorator_list):
                        found.append(f"{path.stem}.{item.name}")
                elif isinstance(item, (ast.Assign, ast.AnnAssign, ast.Expr)) and item.value is not None:
                    if any(_is_memo(sub) for sub in ast.walk(item.value)):
                        found.append(f"{path.stem}:{item.lineno}")
    assert found == ["cli._build_parser"]


def test_only_quiver_writes_a_relation_verdict():
    # a verdict that is not computed is recorded by quiver._keep_relations,
    # called only where a construction proves it; no other module writes
    # _nonzero_residuals: the classes are frozen, so no setattr by that
    # name and no __dict__ access
    callers = []
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_keep_relations":
                        callers.append(f"{path.stem}.{fn.name}")
        if path.name == "quiver.py":
            continue
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr == "__dict__"), path.name
            assert not (isinstance(node, ast.Constant) and node.value == "_nonzero_residuals"), path.name
    assert sorted(callers) == ["chart.chart_embed", "correspondence.nested_to_rep", "quiver.act"]


# the object a field of an annotated parameter is, for the kept-slot owners
_FIELD_TYPES = {("NestedIdealPair", "big"): "ZeroCycleIdeal", ("NestedIdealPair", "small"): "ZeroCycleIdeal",
                ("EnhRep", "left"): "HirzRep"}


def _kept_writers() -> set[tuple[str, str]]:
    """(module.function, the annotated type of the object) for each store
    into an object's `_kept`, direct or through a local alias of it."""

    def owner_type(node, params):
        if isinstance(node, ast.Name):
            return params.get(node.id, "?")
        if isinstance(node, ast.Attribute):
            return _FIELD_TYPES.get((owner_type(node.value, params), node.attr), "?")
        return "?"

    out = set()
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg: ast.unparse(a.annotation) for a in fn.args.args if a.annotation}
            aliases = {
                target.id: node.value.value
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and getattr(node.value, "attr", None) == "_kept"
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    # no dict method writes a slot
                    held = node.func.value
                    if getattr(held, "attr", None) == "_kept" or getattr(held, "id", None) in aliases:
                        assert node.func.attr == "get", f"{path.stem}.{fn.name}"
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    for store in target.elts if isinstance(target, ast.Tuple) else [target]:
                        if not isinstance(store, ast.Subscript):
                            continue
                        held = store.value
                        if getattr(held, "attr", None) == "_kept":
                            out.add((f"{path.stem}.{fn.name}", owner_type(held.value, params)))
                        elif getattr(held, "id", None) in aliases:
                            out.add((f"{path.stem}.{fn.name}", owner_type(aliases[held.id], params)))
    return out


def test_only_the_gate_and_the_embedding_write_an_ideals_kept():
    # an ideal's kept slots are the datum its gate proved, its staircase
    # and the left part nested_to_rep embedded after its nesting check; no
    # other function writes them, so nothing unproven passes for a datum
    writers = _kept_writers()
    assert all(kind in ("ZeroCycleIdeal", "HirzRep", "EnhRep") for _, kind in writers), writers
    assert sorted(f for f, kind in writers if kind == "ZeroCycleIdeal") == [
        "correspondence.nested_to_rep", "ideals.adhm_from_ideal",
    ]
    # and none sets or reaches the slot by name
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            assert not (isinstance(node, ast.Constant) and node.value == "_kept"), path.name


def test_only_proven_sites_skip_the_commutator():
    # chart._commuting builds a datum without forming [b1, b2], and
    # ideals._keep_closed records an ideal as built as one; each is called
    # only where a construction proves it, only the writer names the
    # record or builds a bare AdhmData, and only ideals reads the record
    callers = {"_commuting": [], "_keep_closed": [], "_ideal_of_scan": [], "_nested": [], "_reduce": []}
    named, read, walk_scans = [], [], []
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "scan_walk":
                walk_scans.append(path.stem)
            if isinstance(node, ast.ImportFrom) and any(alias.name == "scan_walk" for alias in node.names):
                walk_scans.append(path.stem)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                        callers[node.func.id].append(f"{path.stem}.{fn.name}")
                    if isinstance(node, ast.Constant) and node.value == "_closed":
                        named.append(f"{path.stem}.{fn.name}")
                    if isinstance(node, ast.Attribute) and node.attr == "_closed":
                        read.append(f"{path.stem}.{fn.name}")
                    if (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "__new__"
                        and any(getattr(arg, "id", None) == "AdhmData" for arg in node.args)
                    ):
                        named.append(f"{path.stem}.{fn.name}")
    assert sorted(callers["_commuting"]) == [
        "chart.chart_extract", "ideals._fixed_cycle_ideal", "ideals.adhm_from_ideal",
    ]
    assert sorted(callers["_keep_closed"]) == ["ideals._ideal_of_scan", "ideals.monomial_ideal"]
    # the one record site for the scan of a commuting datum's walk
    assert sorted(callers["_ideal_of_scan"]) == [
        "correspondence._small_ideal", "correspondence.rep_to_nested", "ideals.ideal_from_adhm",
    ]
    # chart._nested assembles a nested datum without build_nested_adhm's
    # checks, where nested_to_rep's one nesting check proves them
    assert sorted(callers["_nested"]) == ["chart.build_nested_adhm", "correspondence.nested_to_rep"]
    # both ideals of a nested pair are read by one lazy pass, the only
    # row-at-a-time reduction; the whole-walk scan is the tests' oracle
    assert callers["_reduce"] == ["chart._span_pass"]
    assert walk_scans == []
    assert named == ["chart._commuting", "ideals._keep_closed"]
    assert read == ["ideals.adhm_from_ideal"]


def _callers(name: str) -> list[str]:
    """The src functions that call name, as module.Class.function, once
    per call site."""
    out = []
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, [*scope, child.name])
                    continue
                if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)
                ):
                    out.append(".".join([path.stem, *scope]))
                visit(child, scope)

        visit(ast.parse(path.read_text(), filename=str(path)), [])
    return sorted(out)


def test_only_the_chart_readers_and_the_gauge_invert():
    # A_nu where it is not the identity, a scan's kept rows K for its
    # normal forms, and a gauge element's blocks: the small ideal reads
    # M K_s^-1 off one elimination of (K k1)^T and inverts nothing, and
    # the row-at-a-time pass runs on the lazy walk alone
    assert _callers("invert") == ["chart._Scan.nf", "chart.chart_blocks", "quiver.GaugeElement.__post_init__"]
    assert _callers("_span_pass") == ["chart.closure_scan"]


def test_a_kept_relation_verdict_is_read_by_one_rule():
    # the verdict counts in the conversions' chart exactly where the
    # relations hold, whoever asks: every reader computes the verdict it
    # branches on, a verdict kept without being computed is read only
    # where act carries it, and no caller selects a mode of the verdict
    peeks = []
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                peeks += [
                    f"{path.stem}.{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr == "get"
                    and getattr(node.value, "attr", None) == "__dict__"
                ]
    assert peeks == ["quiver.act"]
    modes = []
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                args = fn.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                modes += [f"{path.stem}.{fn.name}" for name in names if name == "_conversion"]
    assert modes == []


def test_no_module_imports_a_name_it_does_not_use():
    # each deletion of a caller can strand an import; no linter runs here
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], path.name


def test_public_names_resolve_once():
    # a stale export would only surface at `from nestquiv import *`
    assert len(set(nestquiv.__all__)) == len(nestquiv.__all__)
    assert [name for name in nestquiv.__all__ if not hasattr(nestquiv, name)] == []


def test_support_runs_without_numpy_or_scipy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    a = adhm_from_ideal(ideal_of_points(random_points(random.Random(47), 6)))
    assert len(support(a)[1]) == 7
