import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestquiv import (
    ConeViolation,
    EnhRep,
    EnhThetaParam,
    HirzRep,
    NotCommuting,
    NotFixedForm,
    NotWellDefined,
    ShapeMismatch,
    Singular,
    default_theta,
    hirz_residuals,
    in_enh_cone,
    is_costable,
    is_gamma_stable,
    is_theta_stable,
    kernel_subrep,
    oracle_semistable_fixed,
)
from nestquiv.ratmat import RationalMatrix, kernel_basis, solve_right
from nestquiv.stability import _in_base_cone

from conftest import M, injected_family, perturbed_rep, point_rep, theta_triple


def e3_rep() -> EnhRep:
    # length-2 cycle (y, x^2) with the reduced point inside, first chart
    left = HirzRep(
        n=1,
        c0=2,
        c1=2,
        A1=M([[0, 1], [0, 0]]),
        A2=M([[1, 0], [0, 1]]),
        C=(M([[0, 0], [0, 0]]),),
        I=(),
        J=M([[1, 0]]),
    )
    return EnhRep(
        left=left,
        cp=1,
        Ap1=M([[0]]),
        Ap2=M([[1]]),
        Cp=(M([[0]]),),
        F1=M([[0, 1]]),
        F2=M([[0, 1]]),
    )


def test_gamma_cone():
    assert _in_base_cone(Fraction(1), Fraction(-3, 4), 2)
    assert not _in_base_cone(Fraction(1), Fraction(-1, 4), 2)
    assert not _in_base_cone(Fraction(1), Fraction(-1), 2)
    assert not _in_base_cone(Fraction(-1), Fraction(-3, 4), 2)


def test_enh_cone_and_default():
    for c in (2, 3, 4, 5):
        for cp in range(0, c):
            p = default_theta(c, cp)
            assert in_enh_cone(p, c, cp)
    # positive theta3 leaves the cone
    bad = EnhThetaParam(Fraction(1), Fraction(-3, 4), Fraction(1, 16), Fraction(-1, 16))
    assert not in_enh_cone(bad, 2, 1)
    # sum condition: theta3 + theta4 too negative
    bad2 = EnhThetaParam(Fraction(1), Fraction(-3, 4), Fraction(-1), Fraction(-1))
    assert not in_enh_cone(bad2, 2, 1)


def test_default_theta_refuses_colengths_outside_the_cone():
    for c, cp in ((3, 3), (0, 0), (3, 5), (3, -1)):
        with pytest.raises(ShapeMismatch, match="need 0 <= cp < c"):
            default_theta(c, cp)


def _gamma_by_fractions(t0: Fraction, t1: Fraction, c: int) -> bool:
    return t0 > 0 and -t0 < t1 < -Fraction(c - 1, c) * t0


def _enh_by_fractions(p: EnhThetaParam, c: int, cp: int) -> bool:
    return (
        _gamma_by_fractions(p.theta1, p.theta2, c)
        and p.theta3 < 0
        and p.theta4 < 0
        and p.theta1 + p.theta2 + (p.theta3 + p.theta4) * (c - cp) > 0
    )


_ratio = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2), max_denominator=40)


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=8),
    st.data(),
    st.fractions(min_value=-3, max_value=3, max_denominator=60),
    _ratio,
    _ratio,
    _ratio,
)
def test_cones_match_their_written_inequalities(c, data, t0, lam, mu3, mu4):
    # theta1 = -lam theta0 and theta3, theta4 = -mu (theta0 + theta1) / (c - c'):
    # lam in (1 - 1/c, 1) and mu3 + mu4 < 1 with both positive is the cone,
    # so the draws land on both sides of every inequality
    cp = data.draw(st.integers(min_value=0, max_value=c - 1))
    t1 = -lam * t0
    assert _in_base_cone(t0, t1, c) == _gamma_by_fractions(t0, t1, c)
    s = c - cp
    p = EnhThetaParam(t0, t1, -mu3 * (t0 + t1) / s, -mu4 * (t0 + t1) / s)
    assert in_enh_cone(p, c, cp) == _enh_by_fractions(p, c, cp)


def test_cone_boundaries_read_outside():
    for c in range(1, 9):
        for t0 in (Fraction(1), Fraction(7, 3)):
            steep = -Fraction(c - 1, c) * t0
            inner = (steep - t0) / 2
            assert _in_base_cone(t0, inner, c)
            for t1 in (-t0, steep):
                assert not _in_base_cone(t0, t1, c)
            assert not _in_base_cone(-t0, -inner, c)
            assert not _in_base_cone(Fraction(0), Fraction(0), c)
            for cp in range(c):
                s = c - cp
                t3 = -(t0 + inner) / (4 * s)
                assert in_enh_cone(EnhThetaParam(t0, inner, t3, t3), c, cp)
                for t1 in (-t0, steep):
                    assert not in_enh_cone(EnhThetaParam(t0, t1, t3, t3), c, cp)
                # theta3 = 0, either slot
                assert not in_enh_cone(EnhThetaParam(t0, inner, Fraction(0), t3), c, cp)
                assert not in_enh_cone(EnhThetaParam(t0, inner, t3, Fraction(0)), c, cp)
                # a zero sum theta1 + theta2 + (theta3 + theta4)(c - c')
                zero = -(t0 + inner) / (2 * s)
                assert not in_enh_cone(EnhThetaParam(t0, inner, zero, zero), c, cp)
                assert not in_enh_cone(EnhThetaParam(t0, inner, zero * 3 / 2, zero / 2), c, cp)
    for c, cp in ((2, 2), (2, -1), (0, 0)):
        with pytest.raises(ShapeMismatch):
            in_enh_cone(default_theta(2, 1), c, cp)


def test_costable_verdicts():
    good = is_costable(M([[0, 1], [0, 0]]), M([[0, 0], [0, 0]]), M([[1, 0]]))
    assert good.stable
    b1 = M([[1, 1], [0, 2]])
    bad = is_costable(b1, b1 @ b1, M([[0, 1]]))
    assert not bad.stable
    assert bad.witness == "costability closure rank 1 < 2"


@pytest.mark.parametrize(
    "e",
    [M([[1, 0, 0]]), M([[1, 0], [0, 1]]), RationalMatrix.from_rows([], cols=2)],
    ids=["1x3", "2x2", "0x2"],
)
def test_costable_refuses_a_covector_of_the_wrong_shape(e):
    # a 1x3 covector would be truncated by the walk's dot products, a 2x2
    # one read by its first row only, and a 0x2 one has no row to read
    b1 = M([[0, 1], [0, 0]])
    with pytest.raises(ShapeMismatch, match=r"^e must be a 1xc row$"):
        is_costable(b1, M([[0, 0], [0, 0]]), e)


def test_costable_refuses_a_noncommuting_pair():
    with pytest.raises(NotCommuting, match=r"^\[b1, b2\] != 0$"):
        is_costable(M([[0, 1], [0, 0]]), M([[0, 0], [1, 0]]), M([[1, 0]]))


def test_gamma_stable_witnesses():
    assert is_gamma_stable(point_rep()).stable
    zero = HirzRep(
        n=1, c0=1, c1=1, A1=M([[0]]), A2=M([[1]]), C=(M([[0]]),), I=(), J=M([[0]])
    )
    v = is_gamma_stable(zero)
    assert not v.stable and v.witness == "costability closure rank 0 < 1"
    pencil = HirzRep(
        n=1, c0=1, c1=1, A1=M([[0]]), A2=M([[0]]), C=(M([[0]]),), I=(), J=M([[1]])
    )
    assert is_gamma_stable(pencil).witness == "irregular pencil"
    with_i = injected_family(2).left
    assert is_gamma_stable(with_i).witness == "nonzero I"


def test_theta_stable_witnesses():
    x = e3_rep()
    p = default_theta(2, 1)
    assert is_theta_stable(x, p).stable
    f1zero = EnhRep(
        left=x.left, cp=1, Ap1=x.Ap1, Ap2=x.Ap2, Cp=x.Cp, F1=M([[0, 0]]), F2=x.F2
    )
    assert is_theta_stable(f1zero, p).witness == "(C1) F1"
    f2zero = EnhRep(
        left=x.left, cp=1, Ap1=x.Ap1, Ap2=x.Ap2, Cp=x.Cp, F1=x.F1, F2=M([[0, 0]])
    )
    assert is_theta_stable(f2zero, p).witness == "(C1) F2"
    jzero_left = HirzRep(
        n=1, c0=2, c1=2, A1=x.left.A1, A2=x.left.A2, C=x.left.C, I=(), J=M([[0, 0]])
    )
    jzero = EnhRep(
        left=jzero_left, cp=1, Ap1=x.Ap1, Ap2=x.Ap2, Cp=x.Cp, F1=x.F1, F2=x.F2
    )
    assert is_theta_stable(jzero, p).witness == "(C2) costability closure rank 0 < 2"
    assert is_theta_stable(injected_family(2), p).witness == "(C2) nonzero I"
    outside = EnhThetaParam(Fraction(1), Fraction(-1, 4), Fraction(-1, 16), Fraction(-1, 16))
    with pytest.raises(ConeViolation):
        is_theta_stable(x, outside)


def test_kernel_subrep_frozen():
    kern = kernel_subrep(e3_rep())
    assert kern == point_rep()


def test_kernel_subrep_carries_framing_columns():
    kern = kernel_subrep(injected_family(2))
    assert kern.c0 == 1 and kern.c1 == 1
    assert kern.I[0] == M([[-1]])
    assert all(r.is_zero() for r in hirz_residuals(kern))


def test_kernel_subrep_not_well_defined():
    x = injected_family(2)
    broken = EnhRep(
        left=x.left, cp=1, Ap1=x.Ap1, Ap2=x.Ap2, Cp=x.Cp, F1=M([[1, 0]]), F2=x.F2
    )
    with pytest.raises(NotWellDefined):
        kernel_subrep(broken)


def test_kernel_subrep_framing_outside_kernel():
    # every arrow preserves ker F1 = ker F2 = span(e1), but I1 = e2 does
    # not land in it
    zero = M([[0, 0], [0, 0]])
    left = HirzRep(
        n=2, c0=2, c1=2, A1=zero, A2=M([[1, 0], [0, 1]]), C=(zero, zero), I=(M([[0], [1]]),),
        J=M([[1, 0]]),
    )
    x = EnhRep(
        left=left, cp=1, Ap1=M([[0]]), Ap2=M([[1]]), Cp=(M([[0]]), M([[0]])),
        F1=M([[0, 1]]), F2=M([[0, 1]]),
    )
    with pytest.raises(NotWellDefined, match="I1 does not land in ker F1"):
        kernel_subrep(x)


def _solved_kernel_subrep(x: EnhRep) -> HirzRep:
    """kernel_subrep by solving K X = M for every arrow."""
    k1, k2 = kernel_basis(x.F1), kernel_basis(x.F2)
    l = x.left

    def solve(k, m, message):
        try:
            return solve_right(k, m)
        except Singular:
            raise NotWellDefined(message) from None

    return HirzRep(
        n=l.n, c0=k1.cols, c1=k2.cols,
        A1=solve(k2, l.A1 @ k1, "A1 does not preserve the kernels"),
        A2=solve(k2, l.A2 @ k1, "A2 does not preserve the kernels"),
        C=[solve(k1, ct @ k2, f"C{t} does not preserve the kernels") for t, ct in enumerate(l.C, 1)],
        I=[solve(k1, iq, f"I{q} does not land in ker F1") for q, iq in enumerate(l.I, 1)],
        J=l.J @ k1,
    )


def _outcome(f, x):
    try:
        return f(x)
    except NotWellDefined as e:
        return str(e)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
)
def test_kernel_subrep_reads_what_solving_finds(seed, c, n, preserving):
    # reading the kernels at their free rows returns the solved restriction
    # and fails with the same message wherever solving fails
    x = perturbed_rep(random.Random(seed), c, n, preserving)
    assert _outcome(kernel_subrep, x) == _outcome(_solved_kernel_subrep, x)


def test_oracle_plain():
    assert oracle_semistable_fixed(point_rep())
    zero = HirzRep(
        n=1, c0=1, c1=1, A1=M([[0]]), A2=M([[1]]), C=(M([[0]]),), I=(), J=M([[0]])
    )
    assert not oracle_semistable_fixed(zero)
    all_zero = HirzRep(
        n=1, c0=1, c1=1, A1=M([[0]]), A2=M([[0]]), C=(M([[0]]),), I=(), J=M([[0]])
    )
    assert not oracle_semistable_fixed(all_zero)
    dense = HirzRep(
        n=1, c0=2, c1=2, A1=M([[1, 1], [1, 1]]), A2=M([[1, 0], [0, 1]]),
        C=(M([[0, 0], [0, 0]]),), I=(), J=M([[1, 0]]),
    )
    with pytest.raises(NotFixedForm):
        oracle_semistable_fixed(dense)


def test_oracle_enhanced_matches_chain():
    x = e3_rep()
    fam = injected_family(2)
    for p in theta_triple(2, 1):
        assert oracle_semistable_fixed(x, p) is True
        assert is_theta_stable(x, p).stable is True
        assert oracle_semistable_fixed(fam, p) is False
        assert is_theta_stable(fam, p).stable is False
