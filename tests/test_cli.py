import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nestquiv
from nestquiv import (
    BadPair,
    ConeViolation,
    DomainError,
    ExcludedLocus,
    IrregularPencil,
    MalformedInput,
    NestedIdealPair,
    NestquivError,
    NotAnIdeal,
    NotCommuting,
    NotCostable,
    NotFixedForm,
    NotInjective,
    NotIntertwining,
    NotStable,
    NotWellDefined,
    RelationsViolated,
    ShapeMismatch,
    Singular,
    SingularAnu,
    monomial_ideal,
    nested_to_rep,
)
from nestquiv import cli
from nestquiv.cli import main
from nestquiv.corpus import CHART_SECOND, random_nested_pair
from nestquiv.monomials import count_upto

from conftest import _mutate, nu


@pytest.fixture()
def hand_files(tmp_path):
    pair = NestedIdealPair(nu=nu(1, 0), big=monomial_ideal((2,)), small=monomial_ideal((1,)))
    rep = nested_to_rep(pair, 1)
    paths = {}
    for name, obj in (
        ("pair", pair.to_json()),
        ("rep", rep.to_json()),
        ("plain", rep.left.to_json()),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    bad = rep.to_json()
    bad["F1"] = {"rows": 1, "cols": 2, "entries": ["0", "0"]}
    p = tmp_path / "badF1.json"
    p.write_text(json.dumps(bad))
    paths["badF1"] = str(p)
    p = tmp_path / "broken.json"
    p.write_text("{oops")
    paths["broken"] = str(p)
    return paths, tmp_path


def test_check_exit_codes(hand_files, capsys):
    paths, _ = hand_files
    assert main(["check", paths["rep"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relations"] == "zero"
    assert report["stability"]["verdict"] == "stable"
    assert main(["check", paths["badF1"]]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["stability"]["witness"] == "(C1) F1"
    assert main(["check", paths["broken"]]) == 2
    assert main(["check", paths["plain"]]) == 0


def test_check_bad_theta_is_precondition(hand_files, capsys):
    paths, _ = hand_files
    assert main(["check", paths["rep"], "--theta", "1,1,1,1"]) == 3
    assert main(["check", paths["rep"], "--theta", "1,2"]) == 2


def test_check_unequal_plain_dimensions_is_precondition(tmp_path, capsys):
    # a well-formed plain rep with c0 = 1, c1 = 2: check and monad-check
    # both refuse it as a precondition violation
    plain = {
        "n": 1, "c0": 1, "c1": 2,
        "A1": {"rows": 2, "cols": 1, "entries": ["1", "0"]},
        "A2": {"rows": 2, "cols": 1, "entries": ["0", "1"]},
        "C1": {"rows": 1, "cols": 2, "entries": ["0", "0"]},
        "J": {"rows": 1, "cols": 1, "entries": ["1"]},
    }
    p = tmp_path / "plain12.json"
    p.write_text(json.dumps(plain))
    for command in ("check", "monad-check"):
        assert main([command, str(p)]) == 3, command
        captured = capsys.readouterr()
        assert captured.out == "" and "c0 = c1" in captured.err


def test_convert_round_trip(hand_files, tmp_path, capsys):
    paths, _ = hand_files
    out1 = str(tmp_path / "cycle.json")
    assert main(["convert", "rep-to-cycle", paths["rep"], "--out", out1]) == 0
    cycle = json.loads(open(out1).read())
    assert cycle["nu"] == ["1", "0"]
    out2 = str(tmp_path / "rep2.json")
    assert main(["convert", "cycle-to-rep", out1, "--n", "1", "--out", out2]) == 0
    assert json.loads(open(out2).read()) == json.loads(open(paths["rep"]).read())
    assert main(["convert", "rep-to-cycle", paths["badF1"]]) == 1


def test_convert_forced_singular_chart(hand_files):
    paths, tmp = hand_files
    pair = NestedIdealPair(nu=CHART_SECOND, big=monomial_ideal((2,)), small=monomial_ideal((1,)))
    rep = nested_to_rep(pair, 1)
    p = tmp / "rep01.json"
    p.write_text(json.dumps(rep.to_json()))
    assert main(["convert", "rep-to-cycle", str(p), "--nu", "1,0"]) == 3


def test_convert_rejects_empty_small_cycle(tmp_path):
    pair_obj = {
        "nu": ["1", "0"],
        "big": monomial_ideal((1,)).to_json(),
        "small": monomial_ideal(()).to_json(),
    }
    p = tmp_path / "cp0.json"
    p.write_text(json.dumps(pair_obj))
    assert main(["convert", "cycle-to-rep", str(p)]) == 3



@pytest.mark.parametrize("d", [-1, -2])
def test_negative_degree_bound_is_malformed_input(d, tmp_path, capsys):
    # count_upto(d) is 0 below d = 0, so an empty 0x0 basis would read as
    # a colength-0 ideal and reach the c' > 0 precondition
    pair_obj = {
        "nu": ["1", "0"],
        "big": monomial_ideal((1,)).to_json(),
        "small": {"c": 0, "d": d, "basis": {"rows": 0, "cols": 0, "entries": []}},
    }
    p = tmp_path / "negative_d.json"
    p.write_text(json.dumps(pair_obj))
    assert main(["convert", "cycle-to-rep", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "degree bound must be non-negative" in captured.err

def test_roundtrip_generated_deterministic(tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["roundtrip", "--cmax", "2", "--seed", "5", "--out", out1]) == 0
    assert main(["roundtrip", "--cmax", "2", "--seed", "5", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    report = json.loads(open(out1).read())
    assert report["failed"] == 0
    assert report["total"] == report["passed"]


def test_roundtrip_corpus_dir(tmp_path, capsys):
    rng = random.Random(6)
    d = tmp_path / "corpus"
    d.mkdir()
    for i in range(3):
        pair = random_nested_pair(rng, 3, 1)
        (d / f"{i}.json").write_text(json.dumps(pair.to_json()))
    assert main(["roundtrip", str(d)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["total"] == 3 and report["failed"] == 0


def test_count_fixed_frozen(capsys):
    assert main(["count-fixed", "--cp", "1", "--c", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2
    assert main(["count-fixed", "--cp", "1", "--c", "2", "--charts", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 6
    assert main(["count-fixed", "--cp", "0", "--c", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 7
    assert main(["count-fixed", "--cp", "2", "--c", "2"]) == 3


def test_monad_check(hand_files, capsys):
    paths, _ = hand_files
    assert main(["monad-check", paths["plain"]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["complex_zero"] is True
    assert report["full_rank"] is True
    assert len(report["points"]) == 20
    assert main(["monad-check", paths["plain"], "--nu", "0,1"]) == 3
    assert main(["monad-check", paths["rep"]]) == 0


def test_monad_check_detects_broken_relations(hand_files, tmp_path, capsys):
    paths, _ = hand_files
    obj = json.loads(open(paths["plain"]).read())
    obj["C1"] = {"rows": 2, "cols": 2, "entries": ["0", "0", "1", "0"]}
    p = tmp_path / "brokenrel.json"
    p.write_text(json.dumps(obj))
    assert main(["monad-check", str(p)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["complex_zero"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "REP"],
        ["convert", "cycle-to-rep", "PAIR"],
        ["roundtrip", "--cmax", "2"],
        ["count-fixed", "--cp", "1", "--c", "2"],
        ["monad-check", "PLAIN"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_malformed_input(argv, hand_files, capsys):
    paths, tmp_path = hand_files
    argv = [paths[a.lower()] if a.isupper() else a for a in argv]
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        assert main([*argv, "--out", str(out)]) == 2, out
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in captured.err


# The documented exit code of every package error: 1 a verification failed,
# 2 malformed input, 3 a precondition violation.
DOCUMENTED_EXIT = {
    BadPair: 1,
    NotAnIdeal: 1,
    NotCommuting: 1,
    NotCostable: 1,
    NotInjective: 1,
    NotIntertwining: 1,
    NotStable: 1,
    NotWellDefined: 1,
    RelationsViolated: 1,
    Singular: 1,
    ShapeMismatch: 2,
    MalformedInput: 2,
    ConeViolation: 3,
    DomainError: 3,
    ExcludedLocus: 3,
    IrregularPencil: 3,
    NotFixedForm: 3,
    SingularAnu: 3,
}


@pytest.mark.parametrize(
    "error",
    sorted(NestquivError.__subclasses__(), key=lambda cls: cls.__name__),
    ids=lambda cls: cls.__name__,
)
def test_every_error_maps_to_its_exit_code(error, monkeypatch, capsys):
    def failing(args):
        raise error("injected failure")

    monkeypatch.setattr(cli, "cmd_count_fixed", failing)
    assert main(["count-fixed", "--cp", "0", "--c", "1"]) == DOCUMENTED_EXIT[error]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "injected failure" in captured.err
    assert "Traceback" not in captured.err


def _malformed_files(tmp_path):
    pair = NestedIdealPair(nu=nu(1, 0), big=monomial_ideal((2,)), small=monomial_ideal((1,)))
    good = nested_to_rep(pair, 1).to_json()
    rep = json.loads(json.dumps(good))
    rep["A1"]["entries"][0] = "1/0"
    pair_entry = pair.to_json()
    pair_entry["big"]["basis"]["entries"][0] = "1/0"
    pair_nu = pair.to_json()
    pair_nu["nu"] = ["1/0", "1"]
    pair_nu_str = pair.to_json()
    pair_nu_str["nu"] = "1"
    pair_nu_short = pair.to_json()
    pair_nu_short["nu"] = [1]
    pair_width = pair.to_json()
    pair_width["small"]["d"] = 7
    rep_exponent = json.loads(json.dumps(good))
    rep_exponent["A1"]["entries"][0] = "1e999999"
    # JSON scalars that are not integers or strings, where a rational or a
    # count is read; the rows and n values would otherwise truncate to fit
    scalars = {}
    for name, value in (("true", True), ("float", 0.1), ("float_exp", 1e-05), ("null", None)):
        scalars[f"rep_entry_{name}"] = json.loads(json.dumps(good))
        scalars[f"rep_entry_{name}"]["A1"]["entries"][0] = value
    for name, value in (("float", 1.9), ("true", True)):
        scalars[f"rep_rows_{name}"] = json.loads(json.dumps(good))
        scalars[f"rep_rows_{name}"]["J"]["rows"] = value
    scalars["rep_n_true"] = json.loads(json.dumps(good))
    scalars["rep_n_true"]["n"] = True
    scalars["pair_nu_float"] = pair.to_json()
    scalars["pair_nu_float"]["nu"] = [1, 0.0]
    scalars["pair_c_true"] = pair.to_json()
    scalars["pair_c_true"]["small"]["c"] = True
    # negative counts whose product matches the entry count
    for name, (rows, cols, entries) in (("negative", (-1, -1, ["1"])), ("negative_empty", (-2, 0, []))):
        scalars[f"rep_rows_{name}"] = json.loads(json.dumps(good))
        scalars[f"rep_rows_{name}"]["J"] = {"rows": rows, "cols": cols, "entries": entries}
    # an empty basis still declares a width, which must match its degree bound
    pair_empty_width = NestedIdealPair(
        nu=nu(1, 0), big=monomial_ideal((2, 2)), small=monomial_ideal((1,))
    ).to_json()
    pair_empty_width["small"] = {"c": 3, "d": 1, "basis": {"rows": 0, "cols": 99, "entries": []}}
    paths = {}
    for name, obj in (
        ("good", good),
        ("plain", nested_to_rep(pair, 1).left.to_json()),
        ("pair", pair.to_json()),
        ("rep", rep),
        ("pair_entry", pair_entry),
        ("pair_nu", pair_nu),
        ("pair_nu_str", pair_nu_str),
        ("pair_nu_short", pair_nu_short),
        ("pair_width", pair_width),
        ("pair_empty_width", pair_empty_width),
        ("rep_exponent", rep_exponent),
        *scalars.items(),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    # json refuses to parse an integer of more than 4300 digits
    p = tmp_path / "huge_int.json"
    p.write_text(json.dumps(good).replace('"n": 1', '"n": 1' + "0" * 5000, 1))
    paths["huge_int"] = str(p)
    return paths


def test_zero_denominator_is_malformed_input(tmp_path, capsys):
    paths = _malformed_files(tmp_path)
    for argv in (
        ["check", paths["rep"]],
        ["monad-check", paths["rep"]],
        ["convert", "rep-to-cycle", paths["rep"]],
        ["convert", "cycle-to-rep", paths["pair_entry"]],
        ["convert", "cycle-to-rep", paths["pair_nu"]],
        ["convert", "cycle-to-rep", paths["pair_nu_str"]],
        ["convert", "cycle-to-rep", paths["pair_nu_short"]],
        ["convert", "cycle-to-rep", paths["pair_width"]],
        ["convert", "cycle-to-rep", paths["pair_empty_width"]],
        ["check", paths["good"], "--theta", "1/0,1,1,1"],
        ["check", paths["rep_exponent"]],
        ["monad-check", paths["rep_exponent"]],
        ["check", paths["huge_int"]],
        *(["check", paths[k]] for k in paths if k.startswith("rep_entry_") or k.startswith("rep_rows_")),
        ["monad-check", paths["rep_entry_float"]],
        ["check", paths["rep_n_true"]],
        ["convert", "cycle-to-rep", paths["pair_nu_float"]],
        ["convert", "cycle-to-rep", paths["pair_c_true"]],
        # flags are parsed before the input is read, whether or not they apply
        ["check", paths["plain"], "--theta", "garbage"],
        ["convert", "cycle-to-rep", paths["pair"], "--theta", "garbage"],
        ["convert", "cycle-to-rep", paths["pair"], "--nu", "0,0"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    # the decoder gives up on nesting past the recursion limit
    p = tmp_path / "deep.json"
    p.write_text("[" * 10**5 + "]" * 10**5)
    for argv in (["check", str(p)], ["convert", "cycle-to-rep", str(p)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "is not valid JSON" in captured.err
        assert "Traceback" not in captured.err


# A child Python whose address space is capped at 1 GiB, so that a matrix
# sized by a file's counts fails there instead of exhausting the host.
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
"""


def _run_capped(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(nestquiv.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", _CAPPED + code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


_HUGE_EMPTY = (
    {"rows": 0, "cols": 10**9, "entries": []},
    {"rows": 10**9, "cols": 0, "entries": []},
)


def test_entryless_matrices_are_sized_by_the_counts(tmp_path):
    # an entry-less matrix declaring a billion rows or columns is refused
    # by its declared shape, before anything of that size is built
    pair = NestedIdealPair(nu=nu(1, 0), big=monomial_ideal((2,)), small=monomial_ideal((1,)))
    rep = nested_to_rep(pair, 1)
    runs = []
    for k, huge in enumerate(_HUGE_EMPTY):
        for name, obj in (("rep", rep.to_json()), ("plain", rep.left.to_json())):
            p = tmp_path / f"{name}{k}.json"
            p.write_text(json.dumps({**obj, "J": huge}))
            runs.append(["check", str(p)])
    # with c0 = 0 no entry bounds c1: a plain rep declaring c1 = 10^9,
    # with A1 and A2 of 10^9 x 0, is refused by its counts
    unbounded = {
        "n": 1, "c0": 0, "c1": 10**9, "A1": _HUGE_EMPTY[1], "A2": _HUGE_EMPTY[1],
        "C1": _HUGE_EMPTY[0], "J": {"rows": 1, "cols": 0, "entries": []},
    }
    p = tmp_path / "unbounded.json"
    p.write_text(json.dumps(unbounded))
    runs += [["check", str(p)], ["monad-check", str(p)]]
    # the small basis's width is checked against d, and d < 0 is refused
    # first, since count_upto(-1) == 0 would pass a 10^9 x 0 basis
    for k, (d, huge) in enumerate(((1, _HUGE_EMPTY[0]), (1, _HUGE_EMPTY[1]), (-1, _HUGE_EMPTY[1]))):
        p = tmp_path / f"pair{k}.json"
        p.write_text(json.dumps({**pair.to_json(), "small": {"c": 1, "d": d, "basis": huge}}))
        runs.append(["convert", "cycle-to-rep", str(p)])
    # an empty basis of the right width declares c = count_upto(d), more
    # standard monomials than there are of degree < d: refused by its
    # degree bound before a count_upto(d) x c normal-form table is built
    n = count_upto(10**9)
    empty = {"c": n, "d": 10**9, "basis": {"rows": 0, "cols": n, "entries": []}}
    p = tmp_path / "empty_basis.json"
    p.write_text(json.dumps({**pair.to_json(), "big": empty}))
    runs.append(["convert", "cycle-to-rep", str(p)])
    for argv in runs:
        done = _run_capped("from nestquiv.cli import main\nsys.exit(main(sys.argv[1:]))", *argv)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stdout == "" and done.stderr.startswith("error: malformed ")
        assert "Traceback" not in done.stderr
    for huge in _HUGE_EMPTY:
        datum = {"c": 1, "b1": huge, "b2": huge, "e": huge}
        done = _run_capped(
            "import json\nfrom nestquiv import AdhmData, ShapeMismatch\n"
            "try:\n    AdhmData.from_json(json.loads(sys.argv[1]))\n"
            "except ShapeMismatch:\n    sys.exit(2)",
            json.dumps(datum),
        )
        assert done.returncode == 2, done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "cycle-to-rep", "PAIR", "--n", "0"],
        ["count-fixed", "--cp", "1", "--c", "3", "--charts", "2", "--n", "0"],
        ["roundtrip", "--cmax", "2", "--n", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_surface_index_zero_is_a_precondition(argv, tmp_path, capsys):
    pair = NestedIdealPair(nu=nu(1, 0), big=monomial_ideal((2,)), small=monomial_ideal((1,)))
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(pair.to_json()))
    assert main([str(p) if a == "PAIR" else a for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "surface index" in captured.err


# Mutation fuzz of the JSON readers (`conftest._mutate`): seeded valid files
# with a few values replaced, keys or items dropped, or items repeated,
# through every command that reads a file.  Whatever the input, the CLI
# ends with a documented exit code, prints no traceback, and prints nothing
# or one sorted-key JSON line.
def _fuzz_bases():
    pair = random_nested_pair(random.Random(11), 3, 1)
    rep = nested_to_rep(pair, 2)
    return {"pair": pair.to_json(), "rep": rep.to_json(), "plain": rep.left.to_json()}


_FUZZ_BASES = _fuzz_bases()
_REP_COMMANDS = (("check", "{}"), ("monad-check", "{}"), ("convert", "rep-to-cycle", "{}"))
_FUZZ_COMMANDS = {
    "pair": (("convert", "cycle-to-rep", "{}"), ("convert", "cycle-to-rep", "{}", "--n", "2")),
    "rep": _REP_COMMANDS,
    "plain": _REP_COMMANDS,
}


@settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_FUZZ_BASES)), st.data())
def test_mutated_files_end_with_a_documented_exit(tmp_path, capsys, kind, data):
    obj = json.loads(json.dumps(_FUZZ_BASES[kind]))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        _mutate(obj, data)
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(obj))
    for command in _FUZZ_COMMANDS[kind]:
        argv = [a.format(p) for a in command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in captured.err
        out = captured.out
        assert out == "" or (
            out.count("\n") == 1 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"
        ), argv


def test_cli_imports_only_public_names():
    # the CLI runs on the package's public entry points, so anything that
    # observes those entry points sees all of its work
    tree = ast.parse(Path(cli.__file__).read_text(), filename=cli.__file__)
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("nestquiv")):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            private += [a.name for a in node.names if a.name.startswith("nestquiv") and "._" in a.name]
    assert private == []
