"""Byte-level identity of the enumeration, the conversions, monad-check and check.

Each test hashes the sorted-key JSON of many outputs, so any change to a
canonical basis, a chart choice or a serialized byte shows as a new digest.
"""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

from nestquiv import (
    act,
    adhm_from_ideal,
    chart_embed,
    default_theta,
    enumerate_nested_monomial,
    nested_to_rep,
    rep_to_nested,
)
from nestquiv.cli import main
from nestquiv.corpus import (
    CHART_FIRST,
    CHART_MIXED,
    CHART_SECOND,
    ideal_of_points,
    random_gauge,
    random_hirz_stable,
    random_nested_pair,
)
from nestquiv.ratmat import RationalMatrix
from nestquiv.stability import kernel_subrep


def _feed(h, obj) -> None:
    h.update(json.dumps(obj, sort_keys=True).encode())


def test_enumeration_digest():
    h = hashlib.sha256()
    for n in range(1, 4):
        for c in range(1, 6):
            for cp in range(c):
                for k in (1, 2):
                    for pair in enumerate_nested_monomial(cp, c, charts=k, n=n):
                        _feed(h, pair.to_json())
    assert h.hexdigest() == "de1c93cbc00b68670a18b989016c670a23b7873a3a53ad91bd440505e1ef348b"


def test_conversion_digest():
    """nested_to_rep, then kernel_subrep and rep_to_nested of a gauge-scrambled copy."""
    rng = random.Random(10)
    h = hashlib.sha256()
    count = 0
    for n in range(1, 4):
        for c in range(2, 5):
            for cp in range(1, c):
                for pair in enumerate_nested_monomial(cp, c, charts=2, n=n):
                    x = nested_to_rep(pair, n)
                    y = act(random_gauge(rng, c, c - cp), x)
                    _feed(h, x.to_json())
                    _feed(h, kernel_subrep(y).to_json())
                    _feed(h, rep_to_nested(y, default_theta(c, cp)).to_json())
                    count += 1
    assert count == 432
    assert h.hexdigest() == "01ba76521255de98eb180a89e10b0b75a29d985e87afbd8ad03ad93cb078bcbf"


def _single_entry_mutant(rng, x):
    """x with one entry of A1, A2, J, a C_q or an I_q moved by 1..3."""
    slots = [("A1", None), ("A2", None), ("J", None)]
    slots += [("C", q) for q in range(len(x.C))] + [("I", q) for q in range(len(x.I))]
    field, q = rng.choice(slots)
    old = getattr(x, field)
    m = old if q is None else old[q]
    rows = [list(row) for row in m.data]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.randint(1, 3)
    moved = RationalMatrix.from_rows(rows, cols=m.cols)
    return replace(x, **{field: moved if q is None else old[:q] + (moved,) + old[q + 1 :]})


def test_monad_check_digest(tmp_path, capsys):
    """Exit code and stdout of monad-check on seeded plain stable
    representations, single-entry mutants of them and a cycle on the
    sample fibers, each in its scanned chart and at nu = [1, 1/2]."""
    rng = random.Random(11)
    charts = (CHART_FIRST, CHART_SECOND, CHART_MIXED)
    reps = []
    for n in range(1, 4):
        for c in range(2, 6):
            x = random_hirz_stable(rng, c, n, charts[(n + c) % 3])
            reps += [x, _single_entry_mutant(rng, x)]
        # support on the sample fibers, where Q and then P turn singular
        pts = [(Fraction(-1), Fraction(-1)), (Fraction(0), Fraction(-2)), (Fraction(1), Fraction(-1, 2))]
        reps.append(chart_embed(adhm_from_ideal(ideal_of_points(pts)), CHART_FIRST, n))
    h = hashlib.sha256()
    path = tmp_path / "rep.json"
    for x in reps:
        path.write_text(json.dumps(x.to_json()))
        for extra in ([], ["--nu", "1,1/2"]):
            code = main(["monad-check", str(path), *extra])
            h.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert len(reps) == 27
    assert h.hexdigest() == "66a7dfea94aad198397bfd2cd3325bde998239cbf13b8484bc5f68499d1791b4"


def test_check_digest(tmp_path, capsys):
    """Exit code, stdout and stderr of check on seeded plain stable
    representations and single-entry mutants of them, and on
    gauge-scrambled enhanced representations of random nested pairs, with
    a single-entry mutant of the left part and with F1 = F2 = 0, in each
    of the three charts for n = 1..3.  The mutants whose relations fail
    exit 1 with a report or with `error: extracted pair does not commute`.
    The digest was computed while check still read the stability verdict
    before the relations, so it pins that reading them first changes no
    byte."""
    rng = random.Random(12)
    reps = []
    for n in range(1, 4):
        for c in range(2, 5):
            for chart in (CHART_FIRST, CHART_SECOND, CHART_MIXED):
                x = random_hirz_stable(rng, c, n, chart)
                cp = rng.randint(1, c - 1)
                y = act(random_gauge(rng, c, c - cp), nested_to_rep(random_nested_pair(rng, c, cp, chart), n))
                zero = RationalMatrix.zeros(c - cp, c)
                reps += [x, _single_entry_mutant(rng, x), y]
                reps += [replace(y, left=_single_entry_mutant(rng, y.left)), replace(y, F1=zero, F2=zero)]
    h = hashlib.sha256()
    path = tmp_path / "rep.json"
    for x in reps:
        path.write_text(json.dumps(x.to_json()))
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        h.update(f"{code}\n{out}\n{err}".encode())
    assert len(reps) == 135
    assert h.hexdigest() == "32b997bdf3a8b95914b7b9e997592583ec894e5036d4d39b146756d31676ee7c"
