"""A sympy Groebner oracle for the ideal dictionary on non-reduced cycles.

Every other ideal test reaches its answer through `monomial_rows` and a
closure scan, the code under test.  Here the ideal of a union of fat
points is built in sympy from generators alone:

  * a fat point of staircase lam at (p1, p2) is (Y^len(lam), X^lam[b] Y^b),
    with X = x - p1 and Y = y - p2, following `monomial_ideal`'s
    convention that x^a y^b lies in the ideal iff a >= lam[b];
  * the ideal of a union is the intersection, by elimination of t from
    t I + (1 - t) J (Cox, Little and O'Shea, ch. 4);
  * bases are reduced in grlex with y > x, the frozen monomial order
    (degree, then y-exponent).

The package's ideal is `ideal_from_adhm` of the union datum, the
`block_diag` of the fat points' moved canonical data.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest

from nestquiv import contains, ideal_from_adhm, partitions
from nestquiv.corpus import CHART_FIRST, random_points
from nestquiv.monomials import monomials_upto

from conftest import fat_point, line_points, union

sympy = pytest.importorskip("sympy")
X, Y, T = sympy.symbols("x y t")


def _fat_generators(lam, p1, p2) -> list:
    dx = X - sympy.Rational(p1.numerator, p1.denominator)
    dy = Y - sympy.Rational(p2.numerator, p2.denominator)
    return [dy ** len(lam)] + [dx**part * dy**b for b, part in enumerate(lam)]


def _intersect(i: list, j: list) -> list:
    """Generators of the intersection of two ideals, t eliminated."""
    g = sympy.groebner([T * f for f in i] + [(1 - T) * f for f in j], T, Y, X, order="lex")
    return [f for f in g.exprs if not f.has(T)]


def _grlex(gens: list):
    return sympy.groebner(gens, Y, X, order="grlex")


def _monic_row(f, d: int) -> tuple:
    """The coefficient vector over monomials_upto(d) of f divided by its
    grlex leading coefficient."""
    p = sympy.Poly(f, Y, X)
    lead = p.LC(order="grlex")
    terms = {(a, b): sympy.Rational(v / lead) for (b, a), v in p.terms()}
    coeffs = (sympy.Rational(terms.get(m, 0)) for m in monomials_upto(d))
    return tuple(Fraction(int(v.p), int(v.q)) for v in coeffs)


def _cases() -> list:
    """Unions of fat points, each a list of (lam, point): single fat
    points, unions of two or three, and fat points along a line."""
    rng = random.Random(2)
    shapes = [lam for size in (1, 2, 3) for lam in partitions(size)]
    out = []
    for lam in ((1,), (2,), (1, 1), (3,), (2, 1), (2, 2), (3, 1, 1)):
        out.append([(lam, random_points(rng, 1)[0])])
    for k in (2, 2, 3, 3):
        out.append([(rng.choice(shapes), pt) for pt in random_points(rng, k)])
    for k in (2, 3, 3):
        out.append([(rng.choice(shapes), pt) for pt in line_points(rng, k, CHART_FIRST)])
    return out


def _both(parts):
    """(the package's ideal, sympy's reduced grlex basis) of one union."""
    ideal = ideal_from_adhm(union([fat_point(lam, *pt) for lam, pt in parts]))
    gens = reduce(_intersect, (_fat_generators(lam, *pt) for lam, pt in parts))
    return ideal, _grlex(gens)


CASES = _cases()


@pytest.mark.parametrize("parts", CASES, ids=lambda parts: "+".join(str(lam) for lam, _ in parts))
def test_staircase_and_basis_match_groebner(parts):
    ideal, g = _both(parts)
    leads = [sympy.Poly(f, Y, X).monoms(order="grlex")[0] for f in g.exprs]  # (b, a)
    staircase = [(a, b) for a, b in monomials_upto(ideal.d) if not any(a >= la and b >= lb for lb, la in leads)]
    assert staircase == ideal.standard_monomials()
    rows = set(ideal.basis.data)
    for f in g.exprs:
        assert _monic_row(f, ideal.d) in rows


def test_contains_agrees_with_groebner_reduction():
    # every ordered pair of cycles: sub-unions are nested, disjoint ones not
    checked = {True: 0, False: 0}
    for parts in CASES[7:]:  # the unions
        pieces = [parts, parts[:1], parts[1:], [(lam[:1], pt) for lam, pt in parts]]
        both = [_both(p) for p in pieces]
        for i, gi in both:
            for j, gj in both:
                want = all(sympy.reduced(f, gj.exprs, Y, X, order="grlex")[1] == 0 for f in gi.exprs)
                assert contains(i, j) == want
                checked[want] += 1
    assert min(checked.values()) > 0
