import json
import random
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from nestquiv import (
    AdhmData, BadPair, EnhRep, EnhThetaParam, HirzRep, NestedIdealPair, NuPoint, RationalMatrix,
    ZeroCycleIdeal, act, adhm_from_ideal, build_nested_adhm, chart_embed, ideal_from_adhm,
    monomial_ideal, nested_to_rep, partitions, regular_sample,
)
from nestquiv import chart, ideals
from nestquiv.chart import _pencil_arrows, monomial_rows
from nestquiv.corpus import (
    CHART_FIRST, CHART_MIXED, CHART_SECOND, _anchors_for, ideal_of_points, random_fraction,
    random_gauge, random_nested_pair, random_points,
)
from nestquiv.monomials import monomials_upto
from nestquiv.ratmat import block_diag, kernel_basis, rref

# exact arithmetic runs long on a slow host; no property test has a deadline
settings.register_profile("nestquiv", deadline=None)
settings.load_profile("nestquiv")


def M(rows, cols=None):
    return RationalMatrix.from_rows(
        [[Fraction(v) for v in row] for row in rows], cols=cols
    )


def nu(a, b) -> NuPoint:
    return NuPoint(Fraction(a), Fraction(b))


def conversion_sample(count: int) -> list[NuPoint]:
    """The frozen chart order of the conversions, [1,0], [0,1], [1,1], ...,
    [1,count]: regular_sample(count) with [0,1] second."""
    first, *rest = regular_sample(count)
    return [first, CHART_SECOND, *rest]


def theta_triple(c: int, cp: int) -> list[EnhThetaParam]:
    """Three parameters spread across the enhanced cone: the package
    default direction, one with theta2 near the steep wall, and a scaled
    asymmetric one."""
    s = c - cp
    return [
        EnhThetaParam(
            Fraction(1),
            Fraction(-(2 * c - 1), 2 * c),
            Fraction(-1, 8 * c * s),
            Fraction(-1, 8 * c * s),
        ),
        EnhThetaParam(
            Fraction(1),
            Fraction(-(4 * c - 1), 4 * c),
            Fraction(-1, 16 * c * s),
            Fraction(-1, 16 * c * s),
        ),
        EnhThetaParam(
            Fraction(2),
            Fraction(-(2 * c - 1), c),
            Fraction(-1, 8 * c * s),
            Fraction(-3, 8 * c * s),
        ),
    ]


def poly_value(p, u) -> Fraction:
    """The polynomial with coefficients p, lowest degree first, at u."""
    return sum((v * u**i for i, v in enumerate(p)), Fraction(0))


def support_points(sup) -> list:
    """The points (x, y) of a `support` result with their lengths, for an f
    that splits over the rationals: sympy finds its roots, and the points
    and lengths are read at them with Fraction arithmetic."""
    sympy = pytest.importorskip("sympy")
    _, f, g1, gx, gy = sup
    var = sympy.Symbol("T")
    coeffs = [sympy.Rational(v.numerator, v.denominator) for v in f[::-1]]
    roots = sympy.roots(sympy.Poly(coeffs, var), filter="Q")
    assert sorted(roots.values()) == [1] * (len(f) - 1), "f is not squarefree or does not split over Q"
    df = [i * v for i, v in enumerate(f)][1:]
    out = []
    for u in (Fraction(int(r.p), int(r.q)) for r in roots):
        w = poly_value(g1, u)
        out.append((poly_value(gx, u) / w, poly_value(gy, u) / w, w / poly_value(df, u)))
    return out


def point_rep() -> HirzRep:
    """n = 1 representation of the reduced point at the origin."""
    return HirzRep(
        n=1, c0=1, c1=1, A1=M([[0]]), A2=M([[1]]), C=(M([[0]]),), I=(), J=M([[1]])
    )


def injected_family(n: int) -> EnhRep:
    """Relation-satisfying enhanced rep with a nonzero framing column.

    Exists for n >= 2 only; the extra column is balanced by a modified
    C-stack so every relation still holds, which makes it the honest
    nonzero-I mutation (zeroing out I alone always breaks the relations).
    """
    a1 = M([[0, 1], [0, 0]])
    a2 = M([[1, 0], [0, 1]])
    c1 = M([[1, 0], [0, 2]])
    c2 = a1 @ c1
    i1 = M([[-1], [0]])
    j = M([[0, 1]])
    zero2 = M([[0, 0], [0, 0]])
    if n == 2:
        cs, iqs = (c1, c2), (i1,)
        cps = (M([[2]]), M([[0]]))
    elif n == 3:
        cs, iqs = (c1, c2, zero2), (i1, M([[0], [0]]))
        cps = (M([[2]]), M([[0]]), M([[0]]))
    else:
        raise ValueError("family is built for n = 2 or 3")
    left = HirzRep(n=n, c0=2, c1=2, A1=a1, A2=a2, C=cs, I=iqs, J=j)
    return EnhRep(
        left=left,
        cp=1,
        Ap1=M([[0]]),
        Ap2=M([[1]]),
        Cp=cps,
        F1=M([[0, 1]]),
        F2=M([[0, 1]]),
    )


def _small_matrix(rng: random.Random, rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def perturbed_rep(rng: random.Random, c: int, n: int, preserving: bool) -> EnhRep:
    """A gauge-scrambled representation of a random nested pair (any c' < c,
    any of the three anchored charts) whose left arrows are each perturbed
    with probability 1/2.  A preserving perturbation adds k2 W to A_p and
    k1 W to C_t and I_q (k1, k2 the kernel bases of F1, F2), so every arrow
    still maps the kernels into each other; otherwise it adds an arbitrary
    matrix.  Either way the relations may fail."""
    cp = rng.randint(1, c - 1)
    pair = random_nested_pair(rng, c, cp, rng.choice([CHART_FIRST, CHART_SECOND, CHART_MIXED]))
    x = act(random_gauge(rng, c, c - cp), nested_to_rep(pair, n))
    k1, k2 = kernel_basis(x.F1), kernel_basis(x.F2)

    def moved(m: RationalMatrix, k: RationalMatrix) -> RationalMatrix:
        if rng.random() < 0.5:
            return m
        if preserving:
            return m + k @ _small_matrix(rng, k.cols, m.cols)
        return m + _small_matrix(rng, m.rows, m.cols)

    l = x.left
    left = replace(
        l,
        A1=moved(l.A1, k2),
        A2=moved(l.A2, k2),
        C=tuple(moved(ct, k1) for ct in l.C),
        I=tuple(moved(iq, k1) for iq in l.I),
    )
    return replace(x, left=left)


# -- non-reduced cycles: unions of fat points --------------------------


def fat_point(lam, x, y) -> AdhmData:
    """The fat point of staircase lam at (x, y): the canonical datum of
    monomial_ideal(lam), moved by x and y times the identity."""
    a = adhm_from_ideal(monomial_ideal(lam))
    ident = RationalMatrix.identity(a.c)
    return AdhmData(c=a.c, b1=a.b1 + ident.scale(x), b2=a.b2 + ident.scale(y), e=a.e)


def union(data) -> AdhmData:
    """The cycle of data with disjoint supports: block_diag of the pairs,
    hstack of the covectors."""
    return AdhmData(
        c=sum(a.c for a in data),
        b1=block_diag([a.b1 for a in data]),
        b2=block_diag([a.b2 for a in data]),
        e=reduce(RationalMatrix.hstack, (a.e for a in data), RationalMatrix.zeros(1, 0)),
    )


def sub_partition(rng: random.Random, lam) -> tuple:
    """A random partition inside lam, possibly empty."""
    out = []
    for part in lam:
        p = rng.randint(0, min(part, out[-1]) if out else part)
        if p == 0:
            break
        out.append(p)
    return tuple(out)


def line_points(rng: random.Random, k: int, chart: NuPoint, lines: int = 1) -> list:
    """k distinct rational points on `lines` random lines y = a x + b, the
    chart's anchors (`corpus._anchors_for`) first: their x = 0, 1 or -1
    is kept and their y moved onto a line.  Every point has its own x, so
    that the points stay distinct, and they are dealt to the lines in
    turn."""
    coeffs = [(random_fraction(rng), random_fraction(rng)) for _ in range(lines)]  # (a, b)
    xs = [x for x, _ in _anchors_for(chart, rng)]
    if len(xs) > k:
        raise ValueError("more anchors than points")
    while len(xs) < k:
        x = random_fraction(rng)
        if x not in xs:
            xs.append(x)
    return [(x, coeffs[i % lines][0] * x + coeffs[i % lines][1]) for i, x in enumerate(xs)]


def line_pair(
    rng: random.Random, c: int, chart: NuPoint = CHART_FIRST, lines: int = 1, cp: int | None = None
) -> NestedIdealPair:
    """A nested pair of reduced cycles, c points on `lines` lines
    (`line_points`) and c' of them: cp if given, else random, 0 < c' < c."""
    points = line_points(rng, c, chart, lines)
    sub = [points[i] for i in sorted(rng.sample(range(c), cp or rng.randint(1, c - 1)))]
    return NestedIdealPair(nu=chart, big=ideal_of_points(points), small=ideal_of_points(sub))


def random_fat_pair(
    rng: random.Random, c: int, chart: NuPoint = CHART_FIRST, lines: int = 0, cp: int | None = None
) -> NestedIdealPair:
    """A nested pair of unions of fat points, of colengths 0 < c' < c
    (c' = cp if given): the big cycle puts a random partition at each of a
    few distinct rational points (anchored for the chart as in `corpus`;
    on that many lines, `line_points`, when lines > 0), and the small
    cycle a random partition inside it at each, drawn again until its
    colength fits, dropping the points where that is empty."""
    anchors = _anchors_for(chart, rng)
    k = rng.randint(max(1, len(anchors)), min(c, 3))
    cuts = sorted(rng.sample(range(1, c), k - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, c])]
    points = line_points(rng, k, chart, lines) if lines else random_points(rng, k, anchors)
    lams = [rng.choice(partitions(size)) for size in sizes]
    while True:
        mus = [sub_partition(rng, lam) for lam in lams]
        total = sum(map(sum, mus))
        if total == cp if cp else 0 < total < c:
            break
    big = union([fat_point(lam, *pt) for lam, pt in zip(lams, points)])
    small = union([fat_point(mu, *pt) for mu, pt in zip(mus, points) if mu])
    return NestedIdealPair(nu=chart, big=ideal_from_adhm(big), small=ideal_from_adhm(small))


def oracle_scan(walk: RationalMatrix, d: int):
    """The whole-walk scan of a walk whose rows are those of
    monomials_upto(d), in order: (kept monomials, normal forms) off one
    reduced echelon form of its transpose, whose pivots are the monomials
    whose rows grow the span of the rows before them, and whose nonzero
    rows, transposed, hold each row's coordinates in the kept rows."""
    red, pivots = rref(walk.transpose())
    mons = monomials_upto(d)
    return [mons[p] for p in pivots], red.submatrix(range(len(pivots)), range(red.cols)).transpose()


@contextmanager
def trusted_commutators():
    """Assert that every datum built without its commutator check
    (`chart._commuting`) commutes; yields the names of the functions that
    built them, one per datum."""
    sites = []
    unchecked = chart._commuting

    def checked(c, b1, b2, e):
        assert b1 @ b2 == b2 @ b1
        sites.append(sys._getframe(1).f_code.co_name)
        return unchecked(c, b1, b2, e)

    with pytest.MonkeyPatch.context() as mp:
        for module in (chart, ideals):
            mp.setattr(module, "_commuting", checked)
        yield sites


# -- the checked nesting construction: an oracle for the one check ----


def basis_product_inclusion(big: ZeroCycleIdeal, small: AdhmData) -> RationalMatrix:
    """The inclusion of small's datum into big's canonical gauge, checked
    on big's whole basis: the small walk to big's degree bound, BadPair
    unless big.basis annihilates it, read at big's standard monomials."""
    ev = monomial_rows(small.b1, small.b2, small.e, big.d)
    if not (big.basis @ ev).is_zero():
        raise BadPair("ideals are not nested")
    index = {m: r for r, m in enumerate(monomials_upto(big.d))}
    return ev.submatrix([index[m] for m in big.standard_monomials()], range(small.c))


def checked_nested_to_rep(pair: NestedIdealPair, n: int) -> EnhRep:
    """nested_to_rep assembled with every check: the inclusion checked on
    the whole basis (`basis_product_inclusion`) and the quotient built by
    `build_nested_adhm`, which checks injectivity and intertwining."""
    big, small = adhm_from_ideal(pair.big), adhm_from_ideal(pair.small)
    nested = build_nested_adhm(small, big, basis_product_inclusion(pair.big, small))
    ap1, ap2, cps = _pencil_arrows(nested.qb1, nested.qb2, pair.nu, n)
    return EnhRep(
        left=chart_embed(big, pair.nu, n), cp=small.c, Ap1=ap1, Ap2=ap2, Cp=cps, F1=nested.quot, F2=nested.quot
    )


# -- mutation fuzz of JSON documents -----------------------------------

# Replacement values stay small, because a mutated count sizes the work
# a reader does.
_FUZZ_VALUES = (
    0, 1, -1, 2, 7, "0", "1", "-1", "1/2", "-3/4", "1/0", "x", "", "1e5", 0.5, True, None,
    [], {}, ["1"], {"rows": 1, "cols": 1, "entries": ["1"]},
)


def _mutate(obj, data):
    """Walk from the root to a drawn node and change it in place."""
    parent, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = node[key]
    if parent is None:
        return
    action = data.draw(st.sampled_from(("replace", "drop", "repeat")))
    if action == "replace":
        parent[key] = json.loads(json.dumps(data.draw(st.sampled_from(_FUZZ_VALUES))))
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(parent[key])
