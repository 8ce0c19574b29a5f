from nestquiv.monomials import count_upto, monomials_upto


def test_frozen_order():
    assert monomials_upto(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_counts():
    assert [count_upto(d) for d in range(5)] == [1, 3, 6, 10, 15]
    assert len(monomials_upto(7)) == count_upto(7)


def test_key_respects_multiplication():
    deglex_key = lambda m: (m[0] + m[1], m[1])  # the frozen order: x^a y^b by (a + b, b)
    mons = monomials_upto(3)
    for a, b in zip(mons, mons[1:]):
        assert deglex_key(a) < deglex_key(b)
    # multiplying by a variable strictly increases the key
    for m in monomials_upto(2):
        assert deglex_key((m[0] + 1, m[1])) > deglex_key(m)
        assert deglex_key((m[0], m[1] + 1)) > deglex_key(m)
