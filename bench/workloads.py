"""The three benchmark workloads: seeded inputs, the cases, their checks.

Each workload is built from a namespace `lib` holding the freshly imported
`nestquiv` package and its `cli` and `corpus` modules, and calls the
library only through attributes of those modules, so that the traced run's
wrappers see every call.  `rounds()` yields an endless stream of rounds,
each an iterable of steps in closed-loop order; a step is a `Case` (one
verified unit of work, timed on its own) or a `Stage` (work the cases need,
such as enumeration, which is timed in the run's total but is not a case).
A timed run executes whole rounds only, so every run of a workload covers
the same mix of cases whatever the machine's speed at the time.

`RUNS` is how often a timed run runs each case back to back; the case's
latency is its fastest run's.  The host stalls the process for tens of
milliseconds a few times a minute, and in a workload of 40-80 ms cases
those stalls, not the cases, would decide the tail: ten or so land in a
run, and the tail has ten cases beyond it.  A stall rarely hits both runs.
Cases of 0.2-3 s barely feel one, so they run once and a run covers twice
as many inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable


@dataclass
class Case:
    label: str
    c: int
    run: Callable[[], str | None]  # None when the output is correct, else the reason


@dataclass
class Stage:
    label: str
    run: Callable[[], str | None]  # None when its own check passed, else the reason


# -- independent oracle for the torus-fixed counts ---------------------


def _young_levels(top: int) -> list[list[frozenset]]:
    """Young diagrams as sets of cells, level k holding those with k cells,
    grown one addable corner at a time (independent of ideals.partitions)."""
    levels = [[frozenset()]]
    for _ in range(top):
        nxt = set()
        for diagram in levels[-1]:
            for a in range(len(diagram) + 1):
                for b in range(len(diagram) + 1):
                    if (a, b) in diagram:
                        continue
                    if (a == 0 or (a - 1, b) in diagram) and (b == 0 or (a, b - 1) in diagram):
                        nxt.add(diagram | {(a, b)})
        levels.append(sorted(nxt, key=sorted))
    return levels


def expected_two_chart_counts(top: int) -> dict[tuple[int, int], dict[str, int]]:
    """(c', c) -> pairs per chart label, for every 0 <= c' <= c <= top.

    A torus-fixed nested pair on the two base charts is a nested pair of
    diagrams at each fixed point; pure splits keep their own chart and
    mixed splits are labelled with the chart [1,1]."""
    levels = _young_levels(top)
    nested = [
        [sum(1 for lam in levels[k] for mu in levels[j] if mu <= lam) for j in range(k + 1)]
        for k in range(top + 1)
    ]
    out: dict[tuple[int, int], dict[str, int]] = {}
    for c in range(top + 1):
        for cp in range(c + 1):
            by_chart: dict[str, int] = {}
            for c1 in range(c, -1, -1):
                c2 = c - c1
                label = "1,0" if c2 == 0 else "0,1" if c1 == 0 else "1,1"
                for cp1 in range(min(cp, c1) + 1):
                    cp2 = cp - cp1
                    if cp2 > c2:
                        continue
                    count = nested[c1][cp1] * nested[c2][cp2]
                    if count:
                        by_chart[label] = by_chart.get(label, 0) + count
            out[(cp, c)] = by_chart
    return out


# -- fixed-sweep ---------------------------------------------------------


class FixedSweep:
    """`count-fixed --charts 2` traffic: every 0 <= c' < c <= 4, n in 1..3.

    One sweep, the workload's round, enumerates all 27 (c', c, n) triples,
    checking each count per chart against the oracle, then verifies the
    pairs in a seeded order.  The inputs do not depend on the seed; only
    that order does."""

    name = "fixed-sweep"
    RUNS = 2

    def __init__(self, lib, seed: int, workdir: str, smoke: bool):
        self.lib = lib
        self.rng = random.Random(seed)
        top = 2 if smoke else 4
        self.triples = [(cp, c, n) for n in (1, 2, 3) for c in range(2, top + 1) for cp in range(c)]
        self.expected = expected_two_chart_counts(top)

    def _enumerate(self, triple, into: list) -> str | None:
        cp, c, n = triple
        pairs = self.lib.nq.enumerate_nested_monomial(cp, c, charts=2, n=n)
        by_chart: dict[str, int] = {}
        for pair in pairs:
            key = ",".join(pair.nu.to_json())
            by_chart[key] = by_chart.get(key, 0) + 1
        into.extend((triple, pair) for pair in pairs)
        want = self.expected[(cp, c)]
        return None if by_chart == want else f"counts per chart {by_chart}, expected {want}"

    def _verify(self, triple, pair) -> str | None:
        nq = self.lib.nq
        cp, c, n = triple
        if cp >= 1:
            x = nq.nested_to_rep(pair, n)
            back = nq.rep_to_nested(x, nq.default_theta(c, cp))
            return None if back == pair else "round trip changed the pair"
        a = nq.adhm_from_ideal(pair.big)
        back = nq.ideal_from_adhm(nq.chart_extract(nq.chart_embed(a, pair.nu, n), pair.nu))
        return None if back == pair.big else "chart dictionary does not close"

    def _sweep(self):
        found: list = []
        for triple in self.triples:
            yield Stage(f"enumerate {triple}", lambda t=triple: self._enumerate(t, found))
        order = list(range(len(found)))
        self.rng.shuffle(order)
        for i in order:
            triple, pair = found[i]
            yield Case(f"{triple}#{i}", triple[1], lambda t=triple, p=pair: self._verify(t, p))

    def rounds(self):
        while True:
            yield self._sweep()


# -- scrambled-growth ----------------------------------------------------


class ScrambledGrowth:
    """Seeded reduced-cycle nested pairs at c = 4, 5, 6 in equal numbers.

    Within each c the shapes (c', n, chart) run through the full grid
    c' in 1..c-1, n in 1..3, chart in [1,0], [0,1], [1,1], in one fixed
    shuffled order, so c' and n are uniform over a cycle and every seed
    runs the same mix of shapes; the seed draws the points and gauges.
    Cost grows steeply with c' at fixed c, so a seeded mix would move the
    figures by more than their bounds.  A round is the whole pool, one
    case at each c in turn: the tail (ten cases beyond it) then sits near
    the median of the 20 c = 6 cases, where a shorter run put it among the
    cheapest few, whose cost moves more from seed to seed."""

    name = "scrambled-growth"
    RUNS = 1
    PER_C = 20

    def __init__(self, lib, seed: int, workdir: str, smoke: bool):
        self.lib = lib
        corpus = lib.corpus
        charts = (corpus.CHART_FIRST, corpus.CHART_SECOND, corpus.CHART_MIXED)
        rng = random.Random(seed)
        self.sizes = sizes = (4,) if smoke else (4, 5, 6)
        per_c = 1 if smoke else self.PER_C
        shapes = {}
        for c in sizes:
            grid = [(cp, n, k) for cp in range(1, c) for n in (1, 2, 3) for k in range(3)]
            random.Random(c).shuffle(grid)
            shapes[c] = [grid[j % len(grid)] for j in range(per_c)]
        self.cases = []
        for j in range(per_c):
            for c in sizes:
                cp, n, k = shapes[c][j]
                pair = corpus.random_nested_pair(rng, c, cp, charts[k])
                gauge = corpus.random_gauge(rng, c, c - cp)
                self.cases.append((c, cp, n, pair, gauge))

    def _run(self, c, cp, n, pair, gauge) -> str | None:
        nq = self.lib.nq
        theta = nq.default_theta(c, cp)
        rep = nq.nested_to_rep(pair, n)
        scrambled = nq.act(gauge, rep)
        if nq.rep_to_nested(scrambled, theta) != pair:
            return "scrambled representation converted to another pair"
        if not nq.same_orbit(scrambled, rep, theta):
            return "same_orbit rejected a gauge-equivalent pair"
        return None

    def rounds(self):
        steps = [
            Case(f"c={case[0]} cp={case[1]} n={case[2]} #{i}", case[0], lambda k=case: self._run(*k))
            for i, case in enumerate(self.cases)
        ]
        while True:
            yield steps


# -- rep-audit -----------------------------------------------------------


KINDS = ("plain", "enhanced", "mutant", "f-rank-drop")

# The 20 fiber points of `monad-check`, part of the CLI contract.
MONAD_POINTS = [(y1, y2, se, si) for (se, si) in ((1, 1), (2, 1), (1, 2), (1, 0))
                for (y1, y2) in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))]


def expected_monad(lib, x) -> tuple[bool, bool]:
    """(complex_zero, full_rank) that `monad-check` must report for the plain
    representation x, from closed forms rather than the CoxPoly monad.

    In the chart nu with b1 = A_nu^-1 D_nu, b2 = C_nu A_nu, the fiber maps
    at (y1, y2, s_e, s_inf), writing u = nu1 y1 + nu2 y2 and
    w = nu1 y2 - nu2 y1, are
        alpha = [s_inf b2^T + w^n s_e;  w b1^T + u;  -w I_nu^T],
        beta  = [w b1^T + u,  -(s_inf b2^T + w^n s_e),  s_inf J^T],
    and the composite vanishes iff sum_q nu1^(n-q) nu2^(q-1) R_q does, R
    being `complex_residuals` (the composite times the invertible A_nu)."""
    nq = lib.nq
    nu = nq.find_regular_nu(x.A1, x.A2)
    combo = None
    for q, r in enumerate(nq.complex_residuals(x), start=1):
        term = r.scale(nu.nu1 ** (x.n - q) * nu.nu2 ** (q - 1))
        combo = term if combo is None else combo + term
    a_nu, d_nu, c_nu, i_nu = nq.pencil_combos(x, nu)
    b1t = (nq.ratmat.invert(a_nu) @ d_nu).transpose()
    b2t = (c_nu @ a_nu).transpose()
    ident = nq.RationalMatrix.identity(x.c0)
    full = True
    for y1, y2, se, si in MONAD_POINTS:
        u = nu.nu1 * y1 + nu.nu2 * y2
        w = nu.nu1 * y2 - nu.nu2 * y1
        p = b2t.scale(si) + ident.scale(w ** x.n * se)
        q = b1t.scale(w) + ident.scale(u)
        alpha = p.vstack(q).vstack(i_nu.transpose().scale(-w))
        beta = q.hstack(-p).hstack(x.J.transpose().scale(si))
        if nq.rank(alpha) != x.c0 or nq.rank(beta) != x.c0:
            full = False
    return combo.is_zero(), full


class RepAudit:
    """`check` then `monad-check` through `nestquiv.cli.main` on JSON files.

    Every (kind, c, n) with c in 2..5 and n in 1..3 appears once in the
    pool of 48 files; the seed draws the points, gauges and mutations.
    The expected exit codes and report fields are fixed here, from how
    each file was built:

    * plain: a stable plain representation (`random_hirz_stable`):
      relations zero, stable, `check` exits 0.
    * enhanced: a gauge-scrambled enhanced representation of a random
      nested pair: as plain, for the enhanced report.
    * mutant: one entry of A1, A2, J, a C_q or an I_q of a stable plain
      representation moved by 1..3, redrawn until the monad composite in
      the chart monad-check picks is nonzero.  A nonzero composite means a
      relation fails, so `check` exits 1: with a report (relations
      nonzero, unstable on the nonzero I) when an I_q moved, and without
      one otherwise, because the chart extraction's commutator then equals
      that composite and raises.
    * f-rank-drop: an enhanced representation with F1 = F2 = 0.  Every
      relation is linear in F, so the relations stay zero, but (C1)
      fails: `check` exits 1 with an unstable verdict.

    `monad-check` runs on the plain (left) part; complex_zero and
    full_rank come from `expected_monad`, and it exits 0 iff both hold.
    full_rank is false where a support point of the cycle lies on one of
    the 20 sample fibers, which the corpus's chart anchors x = 0, +-1 make
    common.
    """

    name = "rep-audit"
    RUNS = 2

    def __init__(self, lib, seed: int, workdir: str, smoke: bool):
        self.lib = lib
        corpus = lib.corpus
        charts = (corpus.CHART_FIRST, corpus.CHART_SECOND, corpus.CHART_MIXED)
        rng = random.Random(seed)
        folder = os.path.join(workdir, "rep-audit")
        os.makedirs(folder, exist_ok=True)
        grid = [(kind, c, n) for n in (1, 2, 3) for c in (2, 3, 4, 5) for kind in KINDS]
        if smoke:
            grid = [("plain", 2, 1), ("mutant", 2, 2)]
        self.cases = []
        for i, (kind, c, n) in enumerate(grid):
            build = getattr(self, "_" + kind.replace("-", "_"))
            rep, check_want, monad_want = build(rng, c, n, charts[i % 3])
            path = os.path.join(folder, f"{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rep.to_json(), fh, sort_keys=True)
            self.cases.append((f"{kind} c={c} n={n} #{i}", c, path, (check_want, monad_want)))

    # Each kind method returns (rep, check expectation, monad expectation):
    # check is (exit code, {kind, relations, verdict} or None for no report),
    # monad is (complex_zero, full_rank).

    def _plain(self, rng, c, n, chart):
        rep = self.lib.corpus.random_hirz_stable(rng, c, n, chart)
        want = {"kind": "plain", "relations": "zero", "verdict": "stable"}
        return rep, (0, want), expected_monad(self.lib, rep)

    def _enhanced_rep(self, rng, c, n, chart):
        nq, corpus = self.lib.nq, self.lib.corpus
        cp = rng.randint(1, c - 1)
        rep = nq.nested_to_rep(corpus.random_nested_pair(rng, c, cp, chart), n)
        return nq.act(corpus.random_gauge(rng, c, c - cp), rep)

    def _enhanced(self, rng, c, n, chart):
        rep = self._enhanced_rep(rng, c, n, chart)
        want = {"kind": "enhanced", "relations": "zero", "verdict": "stable"}
        return rep, (0, want), expected_monad(self.lib, rep.left)

    def _f_rank_drop(self, rng, c, n, chart):
        rep = self._enhanced_rep(rng, c, n, chart)
        zero = self.lib.nq.RationalMatrix.zeros(rep.F1.rows, rep.F1.cols)
        rep = replace(rep, F1=zero, F2=zero)
        want = {"kind": "enhanced", "relations": "zero", "verdict": "unstable"}
        return rep, (1, want), expected_monad(self.lib, rep.left)

    def _mutant(self, rng, c, n, chart):
        nq = self.lib.nq
        base = self.lib.corpus.random_hirz_stable(rng, c, n, chart)
        for _ in range(200):
            name, cand = self._single_entry_mutant(rng, base)
            if all(r.is_zero() for r in nq.complex_residuals(cand)):
                continue
            try:
                monad_want = expected_monad(self.lib, cand)
            except nq.IrregularPencil:
                continue
            if monad_want[0]:
                continue
            report = None
            if name.startswith("I"):
                report = {"kind": "plain", "relations": "nonzero", "verdict": "unstable"}
            return cand, (1, report), monad_want
        raise RuntimeError(f"no usable mutation of a c={c}, n={n} representation")

    def _single_entry_mutant(self, rng, x):
        mats = [("A1", x.A1), ("A2", x.A2), ("J", x.J)]
        mats += [(f"C{t}", m) for t, m in enumerate(x.C, start=1)]
        mats += [(f"I{q}", m) for q, m in enumerate(x.I, start=1)]
        name, m = mats[rng.randrange(len(mats))]
        r, s = rng.randrange(m.rows), rng.randrange(m.cols)
        rows = [list(row) for row in m.data]
        rows[r][s] += Fraction(rng.randint(1, 3))
        moved = self.lib.nq.RationalMatrix.from_rows(rows, cols=m.cols)
        if name in ("A1", "A2", "J"):
            return name, replace(x, **{name: moved})
        slot = int(name[1:]) - 1
        if name.startswith("C"):
            return name, replace(x, C=tuple(moved if t == slot else m for t, m in enumerate(x.C)))
        return name, replace(x, I=tuple(moved if q == slot else m for q, m in enumerate(x.I)))

    def _cli(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(args)
        text = out.getvalue()
        return code, (json.loads(text) if text else None)

    def _run(self, path, expect) -> str | None:
        (check_code, check_want), (complex_zero, full_rank) = expect
        code, report = self._cli(["check", path])
        if code != check_code:
            return f"check exited {code}, expected {check_code}"
        if check_want is None:
            if report is not None:
                return "check printed a report where none was expected"
        else:
            if report is None:
                return "check printed no report"
            got = {"kind": report["kind"], "relations": report["relations"],
                   "verdict": report["stability"]["verdict"]}
            if got != check_want:
                return f"check reported {got}, expected {check_want}"
        code, report = self._cli(["monad-check", path])
        want_code = 0 if complex_zero and full_rank else 1
        if code != want_code:
            return f"monad-check exited {code}, expected {want_code}"
        if report is None:
            return "monad-check printed no report"
        got = (report["complex_zero"], report["full_rank"])
        if got != (complex_zero, full_rank):
            return f"monad-check reported (complex_zero, full_rank) = {got}, expected {(complex_zero, full_rank)}"
        return None

    def rounds(self):
        """One round is one pass over every file."""
        steps = [Case(label, c, lambda p=path, e=expect: self._run(p, e)) for label, c, path, expect in self.cases]
        while True:
            yield steps


WORKLOADS = {w.name: w for w in (FixedSweep, ScrambledGrowth, RepAudit)}
