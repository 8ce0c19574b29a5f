"""Malformed input fails one way: every JSON reader of the library returns
or raises a package error, a value that does not parse being
MalformedInput, which is also a ValueError."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestquiv
from nestquiv import (
    AdhmData, DomainError, EnhRep, EnhThetaParam, HirzRep, MalformedInput, NestedIdealPair,
    NestquivError, NotAnIdeal, NuPoint, RationalMatrix, ZeroCycleIdeal, adhm_from_ideal,
    nested_to_rep, rat,
)
from nestquiv.corpus import CHART_MIXED, random_nested_pair, random_points
from nestquiv.monomials import count_upto

from conftest import _mutate

PROBES = {
    "matrix {}": lambda: RationalMatrix.from_json({}),
    "matrix []": lambda: RationalMatrix.from_json([]),
    "entries 5": lambda: RationalMatrix.from_json({"rows": 2, "cols": 2, "entries": 5}),
    "entries '1234'": lambda: RationalMatrix.from_json({"rows": 2, "cols": 2, "entries": "1234"}),
    "entries dict": lambda: RationalMatrix.from_json(
        {"rows": 2, "cols": 2, "entries": {"1": 0, "2": 0, "3": 0, "4": 0}}
    ),
    # no entry backs the rows of an r x 0 matrix: refused before it is built
    "rows 10**18 of no columns": lambda: RationalMatrix.from_json({"rows": 10**18, "cols": 0, "entries": []}),
    "datum {}": lambda: AdhmData.from_json({}),
    "basis []": lambda: ZeroCycleIdeal.from_json({"c": 1, "d": 1, "basis": []}),
    "pair {}": lambda: NestedIdealPair.from_json({}),
    "plain 5": lambda: HirzRep.from_json(5),
    "rep []": lambda: EnhRep.from_json([]),
    "rat abc": lambda: rat("abc"),
    "rat 1/0": lambda: rat("1/0"),
    "rat of 5000 digits": lambda: rat("1" * 5000),
    "theta x": lambda: EnhThetaParam("x", 1, 1, 1),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_each_probe_is_malformed_input(probe):
    with pytest.raises(MalformedInput) as info:
        PROBES[probe]()
    assert isinstance(info.value, ValueError) and info.value.exit_code == 2


def test_an_empty_basis_is_refused_by_its_degree_bound():
    # c = count_upto(d) standard monomials cannot all have degree < d:
    # refused before a count_upto(d) x c normal-form table is built (the
    # CLI test sizes that table by d = 10^9, in a capped process)
    n = count_upto(30)
    empty = {"c": n, "d": 30, "basis": {"rows": 0, "cols": n, "entries": []}}
    with pytest.raises(NotAnIdeal, match="degree bound too small"):
        ZeroCycleIdeal.from_json(empty)
    # the largest colength the bound allows reads and passes the gate:
    # (x, y)^2, whose staircase 1, x, y fills the degrees below d = 2
    square = ZeroCycleIdeal.from_rows([[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]], c=3, d=2)
    read = ZeroCycleIdeal.from_json(square.to_json())
    assert read == square and adhm_from_ideal(read).c == 3
    with pytest.raises(NotAnIdeal, match="degree bound too small"):
        ZeroCycleIdeal.from_json({**square.to_json(), "c": 4})


def test_corpus_refuses_its_domain():
    rng = random.Random(0)
    with pytest.raises(DomainError, match="more anchors than points"):
        random_points(rng, 1, [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))])
    for c, cp in ((2, 0), (2, 2)):
        with pytest.raises(DomainError, match="need 0 < cp < c"):
            random_nested_pair(rng, c, cp)


def _documents():
    pair = random_nested_pair(random.Random(11), 3, 1, CHART_MIXED)
    rep = nested_to_rep(pair, 2)
    return {
        "matrix": (RationalMatrix.from_json, rep.F1.to_json()),
        "nu": (NuPoint.from_json, pair.nu.to_json()),
        "datum": (AdhmData.from_json, adhm_from_ideal(pair.big).to_json()),
        "ideal": (ZeroCycleIdeal.from_json, pair.big.to_json()),
        "pair": (NestedIdealPair.from_json, pair.to_json()),
        "plain": (HirzRep.from_json, rep.left.to_json()),
        "rep": (EnhRep.from_json, rep.to_json()),
    }


_DOCUMENTS = _documents()


# Mutation fuzz of the library readers with `conftest._mutate`: a mutated
# `entries` is a string ("x", "") or a dict ({}, a matrix) among the rest.
@settings(max_examples=200)
@given(st.sampled_from(sorted(_DOCUMENTS)), st.data())
def test_mutated_documents_read_or_raise_a_package_error(kind, data):
    reader, doc = _DOCUMENTS[kind]
    obj = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        _mutate(obj, data)
    try:
        reader(obj)
    except NestquivError:
        pass


def _src_nodes(kind) -> list:
    """(module.Class.function, node) for each node of the type kind in src."""
    out = []
    for path in sorted(Path(nestquiv.__file__).parent.glob("*.py")):

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = [*scope, child.name] if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
                if isinstance(child, kind):
                    out.append((".".join([path.stem, *inner]), child))
                visit(child, inner)

        visit(ast.parse(path.read_text(), filename=str(path)), [])
    return out


def _names(expr) -> list:
    """The exception names of an except clause's type or a raise's value."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    elts = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    return [getattr(e, "id", None) or getattr(e, "attr", None) for e in elts]


def test_src_neither_catches_nor_raises_builtin_input_errors():
    handlers = _src_nodes(ast.ExceptHandler)
    assert all(h.type is not None for _, h in handlers), "a bare except"
    caught = [(where, name) for where, h in handlers for name in _names(h.type)]
    assert [c for c in caught if c[1] in ("KeyError", "TypeError", "IndexError", "Exception", "BaseException")] == []
    # ValueError is caught where text is parsed: the JSON decode in
    # cli._read, and Fraction's parse in rat; a file's parse failure is
    # read as a package error alone
    assert sorted(c for c in caught if c[1] == "ValueError") == [("cli._read", "ValueError"), ("ratmat.rat", "ValueError")]
    assert [_names(h.type) for where, h in handlers if where == "cli._read"] == [
        ["OSError"], ["ValueError", "RecursionError"], ["NestquivError"],
    ]
    raised = [(where, name) for where, r in _src_nodes(ast.Raise) if r.exc is not None for name in _names(r.exc)]
    assert [r for r in raised if r[1] in ("ValueError", "KeyError")] == []
    assert [r for r in raised if r[1] == "TypeError"] == [("ratmat.rat", "TypeError")]
