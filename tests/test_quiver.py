import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nestquiv import (
    EnhRep,
    GaugeElement,
    HirzRep,
    ShapeMismatch,
    Singular,
    act,
    RationalMatrix,
    adhm_from_ideal,
    chart_embed,
    chart_extract,
    enh_residuals,
    enumerate_nested_monomial,
    hirz_residuals,
    monomial_ideal,
    nested_to_rep,
)
from nestquiv.chart import chart_blocks
from nestquiv.corpus import CHART_FIRST, CHART_MIXED, CHART_SECOND, random_gauge, random_nested_pair

from conftest import M, injected_family, point_rep


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        HirzRep(n=1, c0=1, c1=1, A1=M([[0, 0]]), A2=M([[1]]), C=(M([[0]]),), I=(), J=M([[1]]))
    with pytest.raises(ShapeMismatch):
        HirzRep(n=2, c0=1, c1=1, A1=M([[0]]), A2=M([[1]]), C=(M([[0]]),), I=(), J=M([[1]]))
    with pytest.raises(ShapeMismatch):
        # n = 2 needs one I column
        HirzRep(
            n=2, c0=1, c1=1, A1=M([[0]]), A2=M([[1]]), C=(M([[0]]), M([[0]])), I=(), J=M([[1]])
        )


def test_point_rep_relations():
    x = point_rep()
    assert all(r.is_zero() for r in hirz_residuals(x))


def test_residual_order_n2():
    x = injected_family(2).left
    assert all(r.is_zero() for r in hirz_residuals(x))
    # perturb C2: breaks both the A-side (index 0) and mixed (index 1) rows
    bad = HirzRep(
        n=2, c0=2, c1=2, A1=x.A1, A2=x.A2, C=(x.C[0], x.C[1] + M([[0, 0], [1, 0]])), I=x.I, J=x.J
    )
    res = hirz_residuals(bad)
    assert len(res) == 2
    assert not res[0].is_zero() and not res[1].is_zero()


def test_enh_residuals_zero_on_family():
    for n in (2, 3):
        assert all(r.is_zero() for r in enh_residuals(injected_family(n)))


def test_enh_json_flat_keys():
    x = injected_family(2)
    obj = x.to_json()
    assert set(obj) == {
        "n", "c", "cp", "A1", "A2", "C1", "C2", "I1", "J", "Ap1", "Ap2", "Cp1", "Cp2", "F1", "F2",
    }
    assert EnhRep.from_json(obj) == x


def test_hirz_json_no_I_keys_for_n1():
    x = point_rep()
    obj = x.to_json()
    assert set(obj) == {"n", "c0", "c1", "A1", "A2", "C1", "J"}
    assert HirzRep.from_json(obj) == x


def test_gauge_must_be_invertible():
    with pytest.raises(Singular):
        GaugeElement(g1=M([[0]]), g2=M([[1]]))


def test_act_preserves_relations():
    rng = random.Random(2)
    for n in (2, 3):
        x = injected_family(n)
        g = random_gauge(rng, 2, 1)
        y = act(g, x)
        assert all(r.is_zero() for r in enh_residuals(y))
        assert y.cp == x.cp


def test_act_conjugates_residuals():
    # residual of the broken rep transforms as g1 (.) g1^-1 for the mixed row
    x = injected_family(2).left
    bad = HirzRep(n=2, c0=2, c1=2, A1=x.A1, A2=x.A2, C=x.C, I=(M([[0], [1]]),), J=x.J)
    rng = random.Random(3)
    g = random_gauge(rng, 2)
    res = hirz_residuals(bad)[1]
    res_g = hirz_residuals(act(g, bad))[1]
    assert res_g == g.g1 @ res @ g.inv1


def _enh_residuals_by_hand(x):
    """The enhanced residuals written out in full, as a reference."""
    l, out = x.left, list(hirz_residuals(x.left))
    if x.n == 1:
        cp1 = x.Cp[0]
        out.append(x.Ap1 @ cp1 @ x.Ap2 - x.Ap2 @ cp1 @ x.Ap1)
        out.append(x.F2 @ l.A1 - x.Ap1 @ x.F1)
        out.append(x.F2 @ l.A2 - x.Ap2 @ x.F1)
        out.append(x.F1 @ l.C[0] - cp1 @ x.F2)
        return out
    for q in range(x.n - 1):
        out.append(x.Ap1 @ x.Cp[q] - x.Ap2 @ x.Cp[q + 1])
    for q in range(x.n - 1):
        out.append(x.Cp[q] @ x.Ap1 - x.Cp[q + 1] @ x.Ap2)
    for q in range(x.n - 1):
        out.append(x.F1 @ l.I[q])
    out.append(x.F2 @ l.A1 - x.Ap1 @ x.F1)
    out.append(x.F2 @ l.A2 - x.Ap2 @ x.F1)
    for t in range(x.n):
        out.append(x.F1 @ l.C[t] - x.Cp[t] @ x.F2)
    return out


def test_enh_residuals_match_the_formulas_written_out():
    # random arrows break the relations; each residual, in its place,
    # equals the formula written out for the right copy and the maps F
    rng = random.Random(19)

    def mat(rows, cols):
        return M([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)

    for n in (1, 2, 3, 4):
        for c, cp in ((1, 0), (2, 1), (3, 1), (4, 2)):
            s = c - cp
            for _ in range(3):
                left = HirzRep(
                    n=n, c0=c, c1=c, A1=mat(c, c), A2=mat(c, c),
                    C=tuple(mat(c, c) for _ in range(n)), I=tuple(mat(c, 1) for _ in range(n - 1)),
                    J=mat(1, c),
                )
                x = EnhRep(
                    left=left, cp=cp, Ap1=mat(s, s), Ap2=mat(s, s),
                    Cp=tuple(mat(s, s) for _ in range(n)), F1=mat(s, c), F2=mat(s, c),
                )
                got, expected = enh_residuals(x), _enh_residuals_by_hand(x)
                assert len(got) == len(expected) == 2 * len(hirz_residuals(left)) + 2 + n + (n - 1)
                assert got == expected
                assert any(not r.is_zero() for r in got)


def test_the_right_copy_costs_its_pencil_relations_only(monkeypatch):
    # the unframed right copy forms no zero I_q J products, and its arrows
    # are built without a zero-framed representation around them; each
    # copy's pencil powers take 3n - 4 products (none for n = 1), beside the
    # four of the nesting check and the two of the quotient pair
    products = []
    matmul = RationalMatrix.__matmul__

    def counted(a, b):
        products.append(None)
        return matmul(a, b)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counted)
    pair = enumerate_nested_monomial(2, 4, charts=2)[-1]
    for n in (1, 2, 3, 4):
        products.clear()
        x = nested_to_rep(pair, n)
        assert len(products) == (6 if n == 1 else 6 * n - 2)
        products.clear()
        assert all(r.is_zero() for r in enh_residuals(x))
        assert len(products) == (14 if n == 1 else 12 * n - 6)


def test_extraction_forms_the_commutator_only_where_data_can_break_it(monkeypatch):
    # an embedded representation keeps a zero verdict and zero I_q, so
    # chart_extract forms no product beyond chart_blocks'; a JSON-read copy
    # forms its residuals on its first extraction, 4, 5 and 10 products for
    # n = 1, 2, 3, and then trusts the pair as the original does
    products = []
    matmul = RationalMatrix.__matmul__

    def counted(a, b):
        products.append(None)
        return matmul(a, b)

    def count(read, x, at):
        products.clear()
        datum = read(x, at)
        return len(products), datum

    a = adhm_from_ideal(monomial_ideal((2, 1)))
    monkeypatch.setattr(RationalMatrix, "__matmul__", counted)
    for n in (1, 2, 3):
        x = chart_embed(a, CHART_FIRST, n)
        read = HirzRep.from_json(x.to_json())
        residuals = {1: 4, 2: 5, 3: 10}[n]
        for at in (CHART_FIRST, CHART_MIXED):
            blocks, _ = count(chart_blocks, x, at)
            trusted, datum = count(chart_extract, x, at)
            checked, same = count(chart_extract, read, at)
            assert (trusted, checked) == (blocks, blocks + residuals)
            residuals = 0
            assert datum == same


def kept_verdict(x):
    """The relation verdict kept on x, None when x keeps none."""
    return x.__dict__.get("_nonzero_residuals")


def fresh_verdict(x):
    """The relation verdict computed from scratch."""
    residuals = enh_residuals(x) if isinstance(x, EnhRep) else hirz_residuals(x)
    return tuple(i for i, r in enumerate(residuals) if not r.is_zero())


def assert_recorded(x):
    """x and its left part keep the zero verdict, and it is right."""
    for z in (x, x.left):
        assert kept_verdict(z) == () == fresh_verdict(z)


def test_enumerated_conversions_record_their_verdict():
    # nested_to_rep (and chart_embed, for its left part) records that the
    # relations hold, and act carries it; a fresh enh_residuals agrees
    rng = random.Random(26)
    for n in (1, 2, 3):
        for c in range(2, 5):
            for cp in range(1, c):
                for pair in enumerate_nested_monomial(cp, c, charts=2, n=n):
                    rep = nested_to_rep(pair, n)
                    assert_recorded(rep)
                    assert_recorded(act(random_gauge(rng, c, c - cp), rep))


@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([CHART_FIRST, CHART_SECOND, CHART_MIXED]),
)
def test_scrambled_conversions_carry_their_verdict(seed, c, n, chart):
    rng = random.Random(seed)
    cp = rng.randint(1, c - 1)
    rep = nested_to_rep(random_nested_pair(rng, c, cp, chart), n)
    x = act(random_gauge(rng, c, c - cp), rep)
    assert_recorded(x)
    assert_recorded(act(random_gauge(rng, c, c - cp), x))


def test_act_carries_a_nonzero_verdict_once_read():
    rng = random.Random(27)
    rep = nested_to_rep(enumerate_nested_monomial(2, 4, charts=2, n=2)[-1], 2)
    broken = replace(rep, Ap1=rep.Ap1 + RationalMatrix.identity(rep.c - rep.cp))
    moved = list(rep.left.C)
    moved[0] = moved[0] + RationalMatrix.identity(rep.c)
    for x, g in (
        (broken, random_gauge(rng, 4, 2)),
        (replace(rep.left, C=tuple(moved)), random_gauge(rng, 4)),
    ):
        # an unread verdict is not carried, and act computes none
        assert kept_verdict(act(g, x)) is None
        bad = x._nonzero_residuals
        assert bad and bad == fresh_verdict(x)
        y = act(g, x)
        assert kept_verdict(y) == bad == fresh_verdict(y)


def test_replaced_and_json_read_representations_keep_no_verdict():
    rep = nested_to_rep(enumerate_nested_monomial(1, 3, charts=2, n=2)[-1], 2)
    assert_recorded(rep)
    # replace(rep) shares rep's left part, and with it the left verdict
    for x in (
        replace(rep),
        replace(rep, left=replace(rep.left)),
        EnhRep.from_json(rep.to_json()),
        replace(rep.left),
        HirzRep.from_json(rep.left.to_json()),
    ):
        assert kept_verdict(x) is None
        assert x._nonzero_residuals == () == kept_verdict(x)
