import random
from fractions import Fraction

import pytest

from nestquiv import (
    AdhmData,
    HirzRep,
    IrregularPencil,
    NotCommuting,
    NotInjective,
    NotIntertwining,
    NuPoint,
    RationalMatrix,
    RelationsViolated,
    SingularAnu,
    act,
    build_nested_adhm,
    canonical_form,
    chart_embed,
    chart_extract,
    closure_rank,
    find_regular_nu,
    hirz_residuals,
    sigma_matrix,
    transform_chart,
)
from nestquiv.corpus import ideal_of_points, random_gauge, random_points
from nestquiv.chart import closure_scan, monomial_rows
from nestquiv.ideals import adhm_from_ideal, ideal_from_adhm, monomial_ideal
from nestquiv.monomials import monomials_upto
from nestquiv.ratmat import rank

from conftest import M, nu


def e2_datum() -> AdhmData:
    # the length-2 cycle cut out by (y, x^2)
    return AdhmData(c=2, b1=M([[0, 1], [0, 0]]), b2=M([[0, 0], [0, 0]]), e=M([[1, 0]]))


def test_nu_normalization():
    p = NuPoint(Fraction(2), Fraction(4))
    assert (p.nu1, p.nu2) == (Fraction(1), Fraction(2))
    q = NuPoint(Fraction(0), Fraction(-3))
    assert (q.nu1, q.nu2) == (Fraction(0), Fraction(1))
    assert nu(1, 2).rho == Fraction(5)
    assert NuPoint.from_json(["1", "1/2"]).to_json() == ["1", "1/2"]


def test_adhm_requires_commuting():
    with pytest.raises(NotCommuting):
        AdhmData(c=2, b1=M([[0, 1], [0, 0]]), b2=M([[0, 0], [1, 0]]), e=M([[1, 0]]))


def test_sigma_frozen():
    assert sigma_matrix(nu(1, 0), 2) == RationalMatrix.identity(2)
    assert sigma_matrix(nu(0, 1), 2) == M([[0, -1], [1, 0]])
    assert sigma_matrix(nu(7, -3), 1) == M([[1]])


def test_sigma_change_of_basis_identity():
    # sigma(nu, n) expresses the rotated section basis; rows at p and the
    # binomial expansion of the defining product must agree entrywise
    point = nu(1, 2)
    s = sigma_matrix(point, 3)
    n1, n2, rho = point.nu1, point.nu2, point.rho
    # p = 1: (n2 z1 + n1 z2)(n1 z1 - n2 z2) / rho^2
    row = [n2 * n1 / rho**2, (n1 * n1 - n2 * n2) / rho**2, -n1 * n2 / rho**2]
    assert list(s.data[1]) == row


def test_embed_extract_round_trip():
    a = e2_datum()
    for point in (nu(1, 0), nu(0, 1), nu(1, 1), nu(2, 3)):
        for n in (1, 2, 3):
            x = chart_embed(a, point, n)
            assert all(r.is_zero() for r in hirz_residuals(x))
            back = chart_extract(x, point)
            assert back.b1 == a.b1 and back.b2 == a.b2 and back.e == a.e


def test_extract_is_gauge_invariant_up_to_conjugation():
    a = e2_datum()
    point = nu(1, 1)
    x = chart_embed(a, point, 2)
    g = random_gauge(random.Random(4), 2)
    b = chart_extract(act(g, x), point)
    assert b.b1 == g.g1 @ a.b1 @ g.inv1
    assert b.b2 == g.g1 @ a.b2 @ g.inv1
    assert b.e == a.e @ g.inv1


def test_extract_requires_regular_pencil():
    x = chart_embed(e2_datum(), nu(0, 1), 1)
    # embedded at [0,1], the [1,0] pencil is -b1, which is nilpotent
    with pytest.raises(SingularAnu):
        chart_extract(x, nu(1, 0))


def test_extract_reports_a_noncommuting_pair_as_broken_relations():
    # at [1,0] the extracted pair is (A1, C1), chosen here not to commute
    x = HirzRep(
        n=1,
        c0=2,
        c1=2,
        A1=M([[0, 1], [0, 0]]),
        A2=RationalMatrix.identity(2),
        C=(M([[0, 0], [1, 0]]),),
        I=(),
        J=M([[1, 0]]),
    )
    with pytest.raises(RelationsViolated, match="extracted pair does not commute"):
        chart_extract(x, nu(1, 0))


def test_transform_chart_identity_and_composition():
    a = e2_datum()
    assert transform_chart(a, nu(1, 0), nu(1, 0), 2) == a
    there = transform_chart(a, nu(1, 0), nu(1, 1), 3)
    back = transform_chart(there, nu(1, 1), nu(1, 0), 3)
    assert back == a


def test_closure_rank():
    a = e2_datum()
    assert closure_rank(a.b1, a.b2, a.e) == 2
    # e a joint eigenvector: closure stops at rank 1
    b1 = M([[1, 1], [0, 2]])
    assert closure_rank(b1, b1 @ b1, M([[0, 1]])) == 1


def test_closure_scan_keeps_rank_growth():
    # the kept monomials are exactly the rows at which the rank of the rows
    # so far grows, on gauge-scrambled data of generic and special cycles
    rng = random.Random(12)
    ideals = [ideal_of_points(random_points(rng, c)) for c in (1, 3, 5)]
    ideals += [monomial_ideal((3, 1)), monomial_ideal((2, 2, 1))]
    for ideal in ideals:
        a = adhm_from_ideal(ideal)
        g = random_gauge(rng, a.c)
        b1, b2, e = g.g1 @ a.b1 @ g.inv1, g.g1 @ a.b2 @ g.inv1, a.e @ g.inv1
        d = a.c - 1
        rows = monomial_rows(b1, b2, e, d)
        prefix_ranks = [rank(rows.submatrix(range(k), range(a.c))) for k in range(rows.rows + 1)]
        grows = [m for k, m in enumerate(monomials_upto(d)) if prefix_ranks[k + 1] > prefix_ranks[k]]
        kept, kept_rows = closure_scan(b1, b2, e)
        assert kept == grows == ideal.standard_monomials()
        assert kept_rows == rows.submatrix([monomials_upto(d).index(m) for m in kept], range(a.c))


def test_monomial_rows_are_covector_evaluations():
    a = adhm_from_ideal(ideal_of_points(random_points(random.Random(8), 4)))
    g = random_gauge(random.Random(7), 4)
    b1, b2, e = g.g1 @ a.b1 @ g.inv1, g.g1 @ a.b2 @ g.inv1, a.e @ g.inv1
    rows = monomial_rows(b1, b2, e, 4)
    assert rows.rows == len(monomials_upto(4)) and rows.cols == 4
    for k, (i, j) in enumerate(monomials_upto(4)):
        expected = e
        for _ in range(i):
            expected = expected @ b1
        for _ in range(j):
            expected = expected @ b2
        assert rows.data[k] == expected.data[0]


def test_canonical_form_matches_ideal_gauge():
    pts = random_points(random.Random(9), 3)
    ideal = ideal_of_points(pts)
    a = adhm_from_ideal(ideal)
    g = random_gauge(random.Random(10), 3)
    scrambled = AdhmData(
        c=3, b1=g.g1 @ a.b1 @ g.inv1, b2=g.g1 @ a.b2 @ g.inv1, e=a.e @ g.inv1
    )
    assert canonical_form(scrambled) == a


def test_find_regular_nu():
    assert find_regular_nu(M([[1]]), M([[0]])) == nu(1, 1)
    assert find_regular_nu(M([[0]]), M([[1]])) == nu(1, 0)
    with pytest.raises(IrregularPencil):
        find_regular_nu(M([[0]]), M([[0]]))


def test_build_nested_adhm_frozen():
    big = e2_datum()
    small = AdhmData(c=1, b1=M([[0]]), b2=M([[0]]), e=M([[1]]))
    nested = build_nested_adhm(small, big, M([[1], [0]]))
    assert nested.quot == M([[0, 1]])
    assert nested.qb1 == M([[0]]) and nested.qb2 == M([[0]])


def test_build_nested_adhm_errors():
    big = e2_datum()
    small = AdhmData(c=1, b1=M([[0]]), b2=M([[0]]), e=M([[1]]))
    with pytest.raises(NotInjective):
        build_nested_adhm(small, big, M([[0], [0]]))
    with pytest.raises(NotIntertwining):
        # the column spanned by (0,1) is not b1-stable against small's zero
        build_nested_adhm(small, big, M([[0], [1]]))


def test_ideal_chart_dictionary_closes():
    ideal = monomial_ideal((2, 1))
    a = adhm_from_ideal(ideal)
    assert ideal_from_adhm(a) == ideal
