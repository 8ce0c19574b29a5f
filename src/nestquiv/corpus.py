"""Seeded generators for cycles, nested pairs, representations and gauges.

Everything is driven by a caller-supplied random.Random, so a fixed seed
reproduces the same objects byte for byte.  Random cycles are reduced
(distinct rational points); the chart anchoring below guarantees that the
deterministic chart scan of rep_to_nested lands back on the chart the
pair was generated in:

  * chart [1,0]: no constraint (the scan tries it first and the embedded
    pencil is regular there);
  * chart [0,1]: one point of the big cycle sits on the x = 0 axis, which
    makes the [1,0] pencil singular;
  * chart [1,1]: the big cycle contains points with x = 1 and x = -1,
    killing the [1,0] and [0,1] pencils in turn.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chart import CHART_FIRST, CHART_MIXED, CHART_SECOND, AdhmData, NuPoint, chart_embed
from .errors import DomainError
from .ideals import NestedIdealPair, ZeroCycleIdeal, adhm_from_ideal, ideal_from_adhm
from .quiver import GaugeElement, act
from .ratmat import RationalMatrix, rank


def random_fraction(rng: random.Random, span: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _anchors_for(chart: NuPoint, rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    if chart == CHART_SECOND:
        return [(Fraction(0), random_fraction(rng))]
    if chart == CHART_MIXED:
        return [(Fraction(1), random_fraction(rng)), (Fraction(-1), random_fraction(rng))]
    return []


def random_points(rng: random.Random, c: int, anchors=()) -> list[tuple[Fraction, Fraction]]:
    """c distinct rational points, the given ones first."""
    pts = list(anchors)
    if len(pts) > c:
        raise DomainError("more anchors than points")
    while len(pts) < c:
        cand = (random_fraction(rng), random_fraction(rng))
        if cand not in pts:
            pts.append(cand)
    return pts


def ideal_of_points(points) -> ZeroCycleIdeal:
    """Ideal of a reduced cycle, via the diagonal ADHM datum."""
    c = len(points)
    b1 = RationalMatrix.from_rows(
        [[pt[0] if i == j else Fraction(0) for j in range(c)] for i, pt in enumerate(points)],
        cols=c,
    )
    b2 = RationalMatrix.from_rows(
        [[pt[1] if i == j else Fraction(0) for j in range(c)] for i, pt in enumerate(points)],
        cols=c,
    )
    e = RationalMatrix.from_rows([[Fraction(1)] * c], cols=c)
    return ideal_from_adhm(AdhmData(c=c, b1=b1, b2=b2, e=e))


def random_nested_pair(
    rng: random.Random, c: int, cp: int, chart: NuPoint = CHART_FIRST
) -> NestedIdealPair:
    """Nested pair of reduced cycles (cp of the c points), in the chart."""
    if not 0 < cp < c:
        raise DomainError("need 0 < cp < c")
    points = random_points(rng, c, _anchors_for(chart, rng))
    sub = [points[i] for i in sorted(rng.sample(range(c), cp))]
    return NestedIdealPair(nu=chart, big=ideal_of_points(points), small=ideal_of_points(sub))


def random_invertible(rng: random.Random, size: int, span: int = 3) -> RationalMatrix:
    while True:
        m = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-span, span)) for _ in range(size)] for _ in range(size)],
            cols=size,
        )
        if rank(m) == size:
            return m


def random_gauge(rng: random.Random, c: int, s: int | None = None) -> GaugeElement:
    g1 = random_invertible(rng, c)
    g2 = random_invertible(rng, c)
    if s is None:
        return GaugeElement(g1=g1, g2=g2)
    return GaugeElement(g1=g1, g2=g2, g3=random_invertible(rng, s), g4=random_invertible(rng, s))


def random_hirz_stable(rng: random.Random, c: int, n: int, chart: NuPoint = CHART_FIRST):
    """Gauge-scrambled representation of a random reduced cycle."""
    ideal = ideal_of_points(random_points(rng, c, _anchors_for(chart, rng)))
    x = chart_embed(adhm_from_ideal(ideal), chart, n)
    return act(random_gauge(rng, c), x)
