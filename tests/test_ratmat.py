from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestquiv import RationalMatrix, Singular, rat, rat_str
from nestquiv.ratmat import block_diag, invert, kernel_basis, rank, rref, solve_right

from conftest import M


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat(5) == Fraction(5)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-2)) == "-2"
    assert rat_str(Fraction(0)) == "0"
    for bad in ("1/0", "0/0", "x"):
        with pytest.raises(ValueError):
            rat(bad)


def test_constructors_and_indexing():
    m = M([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.transpose()[1, 0] == 2
    assert RationalMatrix.identity(2).is_identity()
    assert RationalMatrix.zeros(2, 3).is_zero()
    assert RationalMatrix.column([1, 2]).cols == 1
    assert RationalMatrix.row([1, 2]).rows == 1
    with pytest.raises(Exception):
        RationalMatrix.from_rows([[1, 2], [3]])


def test_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert (a + b - b) == a
    assert a.scale(Fraction(1, 2))[1, 1] == 2
    assert (a @ b) == M([[2, 1], [4, 3]])
    assert (-a + a).is_zero()


def test_stack_and_blockdiag():
    a = M([[1]])
    b = M([[2]])
    assert a.hstack(b) == M([[1, 2]])
    assert a.vstack(b) == M([[1], [2]])
    d = block_diag([M([[1, 2]]), M([[3]])])
    assert d == M([[1, 2, 0], [0, 0, 3]])


def test_rref_and_rank():
    m = M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert r.data[0] == (Fraction(1), Fraction(0), Fraction(-1))
    assert r.data[1] == (Fraction(0), Fraction(1), Fraction(2))
    assert rank(m) == 2
    assert rank(RationalMatrix.zeros(3, 3)) == 0
    assert rank(M([[Fraction(1, 3), Fraction(1, 6)], [2, 1]])) == 1


def test_kernel_basis_canonical():
    k = kernel_basis(M([[1, 2, 3], [2, 4, 6]]))
    assert k == M([[-2, -3], [1, 0], [0, 1]])
    assert kernel_basis(RationalMatrix.identity(2)).cols == 0
    assert kernel_basis(M([[0, 0]])) == RationalMatrix.identity(2)


def test_invert():
    a = M([[1, 2], [3, 4]])
    assert invert(a) @ a == RationalMatrix.identity(2)
    with pytest.raises(Singular):
        invert(M([[1, 2], [2, 4]]))


def test_solve_right_minimal_support():
    a = M([[1, 2, 0], [0, 0, 1]])
    b = M([[5], [7]])
    x = solve_right(a, b)
    # free column zeroed: the canonical solution touches pivots only
    assert x == M([[5], [0], [7]])
    assert a @ x == b
    with pytest.raises(Singular):
        solve_right(M([[1], [2]]), M([[1], [3]]))


def test_json_round_trip():
    m = M([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    obj = m.to_json()
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["entries"][0] == "1/3"
    assert RationalMatrix.from_json(obj) == m


_small = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(_small, min_size=3, max_size=3), min_size=2, max_size=4
    )
)
def test_rank_nullity_and_kernel(rows):
    m = M(rows)
    k = kernel_basis(m)
    assert rank(m) + k.cols == m.cols
    if k.cols:
        assert (m @ k).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(_small, min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_rref_idempotent(rows):
    m = M(rows)
    r1, p1 = rref(m)
    r2, p2 = rref(r1)
    assert r1 == r2 and p1 == p2


_rational = st.builds(
    Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.lists(_rational, min_size=cols, max_size=cols), min_size=1, max_size=4
        )
    )
)
def test_rref_matches_sympy(rows):
    # sympy is an independent oracle here, never a runtime dependency
    sympy = pytest.importorskip("sympy")
    r, pivots = rref(M(rows))
    expected, expected_pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    ).rref()
    assert pivots == list(expected_pivots)
    assert [list(row) for row in r.data] == [
        [Fraction(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(expected.rows)
    ]
