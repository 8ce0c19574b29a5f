import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nestquiv import (
    AdhmData,
    HirzRep,
    ShapeMismatch,
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
    enumerate_nested_monomial,
    find_regular_nu,
    hirz_residuals,
    is_costable,
    inclusion_matrix,
    partitions,
    transform_chart,
)
from nestquiv.corpus import ideal_of_points, random_gauge, random_nested_pair, random_points
from nestquiv.chart import closure_scan, first_regular, monomial_rows, pencil_combos
from nestquiv.ideals import adhm_from_ideal, ideal_from_adhm, monomial_ideal
from nestquiv.monomials import monomials_upto
from nestquiv.ratmat import rank
from nestquiv.stability import _chart_reading

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


_rational = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
_nonzero_rational = _rational.filter(lambda v: v != 0)
_label_pair = st.tuples(_rational, _rational).filter(lambda ab: ab != (0, 0))


def _rotation_rep() -> HirzRep:
    # A1 = 1 and A2 = R, R^2 = -1, so A_nu = nu2 + nu1 R has determinant
    # nu1^2 + nu2^2: every chart is regular, and b1 = -R with e = (1, 0)
    # is costable at each of them
    return HirzRep(
        n=1,
        c0=2,
        c1=2,
        A1=RationalMatrix.identity(2),
        A2=M([[0, -1], [1, 0]]),
        C=(M([[0, 0], [0, 0]]),),
        I=(),
        J=M([[1, 0]]),
    )


@settings(max_examples=120)
@given(_label_pair, _nonzero_rational)
def test_nu_point_is_a_projective_key(ab, k):
    a, b = ab
    p, q = NuPoint(a, b), NuPoint(k * a, k * b)
    assert p == q and hash(p) == hash(q)
    assert {p: 1}[q] == 1
    # the first nonzero coordinate is 1, and rho is read off the label
    assert (p.nu1, p.nu2) == ((Fraction(1), b / a) if a else (Fraction(0), Fraction(1)))
    assert p.rho == p.nu1**2 + p.nu2**2
    assert isinstance(p.nu1, Fraction) and isinstance(p.nu2, Fraction)
    # the JSON bytes survive a round trip
    back = NuPoint.from_json(p.to_json())
    assert back == p and back.to_json() == p.to_json() == q.to_json()
    assert (back.nu1, back.nu2, back.rho) == (p.nu1, p.nu2, p.rho)
    # a chart reading kept under one label is found under an equal label
    # built separately
    x = _rotation_rep()
    reading = _chart_reading(x, p)
    assert x._kept[q] is reading
    assert _chart_reading(x, NuPoint(k * a, k * b)) is reading
    assert len(x._kept) == 1


def test_nu_point_refuses_what_it_refused():
    for bad in ([0, 0], ["0", "0/5"]):
        with pytest.raises(ShapeMismatch):
            NuPoint.from_json(bad)
    with pytest.raises(ShapeMismatch):
        NuPoint(Fraction(0), 0)
    for v, error in ((0.5, TypeError), ("1/0", ValueError), ("1e3", ValueError), (None, TypeError)):
        with pytest.raises(error):
            NuPoint(v, Fraction(1))
        with pytest.raises(error):
            NuPoint(Fraction(0), v)
    assert NuPoint(Fraction(1), Fraction(0)) != (Fraction(1), Fraction(0))
    assert NuPoint("2", 4) == nu(1, 2) and repr(NuPoint("2", 4)) == repr(nu(1, 2))


def test_adhm_requires_commuting():
    with pytest.raises(NotCommuting):
        AdhmData(c=2, b1=M([[0, 1], [0, 0]]), b2=M([[0, 0], [1, 0]]), e=M([[1, 0]]))


def _sigma(point, n: int) -> list[list[Fraction]]:
    """Row p holds the coefficients of
    (nu2 z1 + nu1 z2)^p (nu1 z1 - nu2 z2)^{n-1-p} / (nu1^2 + nu2^2)^{n-1}
    in the basis z1^{n-1-q} z2^q, expanded in Fraction arithmetic."""
    n1, n2 = point.nu1, point.nu2
    rows = []
    for p in range(n):
        coeffs = [Fraction(0)] * n
        for i in range(p + 1):
            for j in range(n - p):
                coeffs[i + j] += (
                    comb(p, i) * n2 ** (p - i) * n1**i
                    * comb(n - 1 - p, j) * n1 ** (n - 1 - p - j) * (-n2) ** j
                )
        rows.append([x / point.rho ** (n - 1) for x in coeffs])
    return rows


def test_embedded_c_stack_matches_the_sigma_definition():
    # the pencil powers C_q = A1^(q-1) A2^(n-q) b2 are the sigma-weighted
    # b1-powers times b2 of the change of section basis, at charts whose
    # coordinates are not all integers, on gauge-scrambled data
    rng = random.Random(21)
    for point in (nu(1, 0), nu(0, 1), nu(2, 3), nu(3, -1), nu(-5, 7), nu(4, 1)):
        for n in range(1, 6):
            c = rng.randint(1, 4)
            a = adhm_from_ideal(ideal_of_points(random_points(rng, c)))
            g = random_gauge(rng, c)
            a = AdhmData(c=c, b1=g.g1 @ a.b1 @ g.inv1, b2=g.g1 @ a.b2 @ g.inv1, e=a.e @ g.inv1)
            powers = [RationalMatrix.identity(c)]
            for _ in range(n - 1):
                powers.append(powers[-1] @ a.b1)
            x = chart_embed(a, point, n)
            for q, row in enumerate(_sigma(point, n)):
                want = RationalMatrix.zeros(c, c)
                for k, s in enumerate(row):
                    want = want + powers[k].scale(s)
                assert x.C[q] == want @ a.b2
            assert all(r.is_zero() for r in hirz_residuals(x))


def _fraction_rep(rng: random.Random, n: int, c: int) -> HirzRep:
    """A representation with random rational entries, every I_q nonzero,
    scrambled by a random gauge; no relation is imposed."""

    def mat(rows, cols):
        return M([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols)] for _ in range(rows)])

    iqs = []
    for _ in range(n - 1):
        iq = mat(c, 1)
        iqs.append(iq if not iq.is_zero() else M([[1]] + [[0]] * (c - 1)))
    x = HirzRep(
        n=n, c0=c, c1=c, A1=mat(c, c), A2=mat(c, c), C=tuple(mat(c, c) for _ in range(n)), I=tuple(iqs), J=mat(1, c)
    )
    return act(random_gauge(rng, c), x)


def _fraction_sum(weights, mats, rows, cols) -> RationalMatrix:
    """sum_j w_j M_j entry by entry in Fraction arithmetic."""
    return M(
        [[sum((w * m[i, j] for w, m in zip(weights, mats)), Fraction(0)) for j in range(cols)] for i in range(rows)],
        cols=cols,
    )


def test_pencil_weights_at_non_integer_charts():
    # the four nu-combinations against their definitions written out in
    # Fractions, on gauge-scrambled data with nonzero I_q
    rng = random.Random(24)
    for point in (nu(1, Fraction(1, 2)), nu(1, Fraction(-2, 3)), nu(0, 1), nu(1, 0), nu(2, 3)):
        n1, n2 = point.nu1, point.nu2
        rho = n1 * n1 + n2 * n2
        for n in range(1, 6):
            c = rng.randint(1, 3)
            x = _fraction_rep(rng, n, c)
            assert n == 1 or any(not iq.is_zero() for iq in x.I)
            a_nu, d_nu, c_nu, i_nu = pencil_combos(x, point)
            assert a_nu == _fraction_sum((n2, n1), (x.A1, x.A2), c, c)
            assert d_nu == _fraction_sum((n1, -n2), (x.A1, x.A2), c, c)
            c_weights = [comb(n - 1, q - 1) * n1 ** (n - q) * n2 ** (q - 1) for q in range(1, n + 1)]
            assert c_nu == _fraction_sum(c_weights, x.C, c, c)
            i_weights = [rho * comb(n - 2, q - 1) * n1 ** (n - q - 1) * n2 ** (q - 1) for q in range(1, n)]
            assert i_nu == _fraction_sum(i_weights, x.I, c, 1)


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


# every chart is [0, 1] or [1, t]
_chart = st.one_of(
    st.just(NuPoint(Fraction(0), Fraction(1))),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).map(lambda t: NuPoint(Fraction(1), t)),
)


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    _chart,
    _chart,
)
def test_transform_chart_round_trips(seed, c, n, here, there):
    rng = random.Random(seed)
    a = adhm_from_ideal(ideal_of_points(random_points(rng, c)))
    g = random_gauge(rng, c)
    a = AdhmData(c=c, b1=g.g1 @ a.b1 @ g.inv1, b2=g.g1 @ a.b2 @ g.inv1, e=a.e @ g.inv1)
    x = chart_embed(a, here, n)
    # the pencil of the embedded datum is the identity at here
    assume(first_regular([(x.A1, x.A2)], [there]) is not None)
    assert transform_chart(a, here, here, n) == a
    b = transform_chart(a, here, there, n)
    assert transform_chart(b, there, here, n) == a


def test_closure_rank():
    # the closure's rank is the number of monomials closure_scan keeps,
    # which is_costable reads
    a = e2_datum()
    assert len(closure_scan(a.b1, a.b2, a.e).kept) == 2
    assert is_costable(a.b1, a.b2, a.e).stable
    # e a joint eigenvector: closure stops at rank 1
    b1 = M([[1, 1], [0, 2]])
    assert len(closure_scan(b1, b1 @ b1, M([[0, 1]])).kept) == 1
    assert is_costable(b1, b1 @ b1, M([[0, 1]])).witness == "costability closure rank 1 < 2"


def test_closure_scan_keeps_rank_growth():
    # the kept monomials are exactly the rows at which the rank of the rows
    # so far grows, and the normal forms write every row of the walk in the
    # kept rows, on gauge-scrambled data of generic and special cycles
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
        scan = closure_scan(b1, b2, e)
        kept, nf = scan.kept, scan.nf
        assert kept == grows == ideal.standard_monomials()
        walk = monomial_rows(b1, b2, e, a.c)
        at_kept = [monomials_upto(a.c).index(m) for m in kept]
        assert nf.submatrix(at_kept, range(a.c)) == RationalMatrix.identity(a.c)
        assert nf @ walk.submatrix(at_kept, range(a.c)) == walk


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
    rng = random.Random(9)
    for c in range(1, 7):
        a = adhm_from_ideal(ideal_of_points(random_points(rng, c)))
        for _ in range(3):
            g = random_gauge(rng, c)
            scrambled = AdhmData(
                c=c, b1=g.g1 @ a.b1 @ g.inv1, b2=g.g1 @ a.b2 @ g.inv1, e=a.e @ g.inv1
            )
            assert canonical_form(scrambled) == a


def _moved(a: AdhmData, g) -> AdhmData:
    """The datum g a g^-1, with e g^-1, for a gauge element's g1."""
    return AdhmData(c=a.c, b1=g.g1 @ a.b1 @ g.inv1, b2=g.g1 @ a.b2 @ g.inv1, e=a.e @ g.inv1)


def _costable_ideal(rng: random.Random, c: int, monomial: bool):
    if monomial:
        return monomial_ideal(rng.choice(partitions(c)))
    return ideal_of_points(random_points(rng, c))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6), st.booleans())
def test_canonical_form_is_gauge_invariant(seed, c, monomial):
    rng = random.Random(seed)
    a = adhm_from_ideal(_costable_ideal(rng, c, monomial))
    forms = {canonical_form(_moved(a, random_gauge(rng, c))) for _ in range(2)}
    assert forms == {a}


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=5), st.booleans())
def test_build_nested_adhm_quotient_is_a_datum(seed, c, monomial):
    # the quotient facts build_nested_adhm leaves to its checks on incl, on
    # nested data moved by gauges g (big) and h (small), incl -> g incl h^-1
    rng = random.Random(seed)
    cp = rng.randint(1, c - 1)
    if monomial:
        pair = rng.choice(enumerate_nested_monomial(cp, c))
    else:
        pair = random_nested_pair(rng, c, cp)
    g, h = random_gauge(rng, c), random_gauge(rng, cp)
    big = _moved(adhm_from_ideal(pair.big), g)
    small = _moved(adhm_from_ideal(pair.small), h)
    incl = g.g1 @ inclusion_matrix(pair.big, pair.small) @ h.inv1
    nested = build_nested_adhm(small, big, incl)
    quot, qb = nested.quot, (nested.qb1, nested.qb2)
    assert quot.rows == c - cp and (quot @ incl).is_zero()
    for q, b in zip(qb, (big.b1, big.b2)):
        assert q @ quot == quot @ b
    assert qb[0] @ qb[1] == qb[1] @ qb[0]


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
