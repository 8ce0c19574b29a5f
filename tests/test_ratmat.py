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
    assert rat("0.25") == Fraction(1, 4)
    for bad in ("1/0", "0/0", "x", "1e999999", "1E5"):
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


# Oracle checks of the integer kernels against sympy (tests only): shapes
# up to 6x8, empty shapes included, denominators up to 2**40, and rows past
# a drawn cut replaced by combinations of the rows before it, so that rank
# deficiency is common.
_entry = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-3, max_value=3).map(Fraction),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=1, max_value=2**40),
    ),
)


@st.composite
def _matrices(draw, rows=None, cols=None):
    r = draw(st.integers(min_value=0, max_value=6)) if rows is None else rows
    c = draw(st.integers(min_value=0, max_value=8)) if cols is None else cols
    data = [[draw(_entry) for _ in range(c)] for _ in range(r)]
    cut = draw(st.integers(min_value=0, max_value=r))
    for i in range(cut, r):
        coeffs = [draw(_rational) for _ in range(cut)]
        data[i] = [
            sum((f * data[k][j] for k, f in enumerate(coeffs)), Fraction(0)) for j in range(c)
        ]
    return M(data, cols=c)


def _sym(m):
    sympy = pytest.importorskip("sympy")
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m.data for x in row]
    return sympy.Matrix(m.rows, m.cols, entries)


def _from_sym(s):
    return RationalMatrix.from_rows(
        [[Fraction(int(s[i, j].p), int(s[i, j].q)) for j in range(s.cols)] for i in range(s.rows)],
        cols=s.cols,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda k: st.tuples(_matrices(cols=k), _matrices(rows=k))
    )
)
def test_matmul_matches_sympy(ab):
    a, b = ab
    assert a @ b == _from_sym(_sym(a) * _sym(b))


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_rank_rref_and_kernel_match_sympy(m):
    s = _sym(m)
    assert rank(m) == s.rank()
    r, pivots = rref(m)
    expected, expected_pivots = s.rref()
    assert pivots == list(expected_pivots)
    assert r == _from_sym(expected)
    k = kernel_basis(m)
    assert k.rows == m.cols
    assert [list(col) for col in k.transpose().data] == [
        list(_from_sym(v).transpose().data[0]) for v in s.nullspace()
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda n: _matrices(rows=n, cols=n)))
def test_invert_matches_sympy(m):
    s = _sym(m)
    if s.det() == 0:
        with pytest.raises(Singular):
            invert(m)
    else:
        assert invert(m) == _from_sym(s.inv())


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=3),
    ).flatmap(
        lambda rck: st.tuples(
            _matrices(rows=rck[0], cols=rck[1]), _matrices(rows=rck[0], cols=rck[2])
        )
    )
)
def test_solve_right_matches_sympy(ab):
    # a solution supported on the pivot columns of a is unique, so sympy's
    # ranks, pivots and product pin solve_right's answer
    a, b = ab
    sa = _sym(a)
    if sa.rank() != sa.row_join(_sym(b)).rank():
        with pytest.raises(Singular):
            solve_right(a, b)
        return
    x = solve_right(a, b)
    _, pivots = sa.rref()
    assert all(x.data[i] == (Fraction(0),) * b.cols for i in range(a.cols) if i not in pivots)
    assert sa * _sym(x) == _sym(b)
