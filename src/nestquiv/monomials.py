"""Frozen monomial order on k[x, y].

Degree-lex with x < y: x^a y^b sorts by (a + b, b) ascending, so within a
degree the pure x-power comes first.  Everything downstream (ideal bases,
greedy quotient bases, canonical ADHM forms) is stated against this order;
do not change it.
"""

from __future__ import annotations


def monomials_upto(d: int) -> list[tuple[int, int]]:
    """All (a, b) with a + b <= d, in the frozen order."""
    out = []
    for deg in range(d + 1):
        for b in range(deg + 1):
            out.append((deg - b, b))
    return out


def count_upto(d: int) -> int:
    return (d + 1) * (d + 2) // 2


def position(a: int, b: int) -> int:
    """The index of x^a y^b in the frozen order: count_upto(a + b - 1)
    monomials of lower degree come first, then b before it in its degree."""
    return (a + b) * (a + b + 1) // 2 + b
