import json
import random
from fractions import Fraction

import pytest

from nestquiv import (
    BadPair,
    ChartUnavailable,
    ConeViolation,
    DomainError,
    ExcludedLocus,
    IllConditioned,
    IrregularPencil,
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

from conftest import nu


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
    ChartUnavailable: 3,
    ConeViolation: 3,
    DomainError: 3,
    ExcludedLocus: 3,
    IllConditioned: 3,
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
    paths = {}
    for name, obj in (
        ("good", good),
        ("rep", rep),
        ("pair_entry", pair_entry),
        ("pair_nu", pair_nu),
        ("pair_nu_str", pair_nu_str),
        ("pair_nu_short", pair_nu_short),
        ("pair_width", pair_width),
        ("rep_exponent", rep_exponent),
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
        ["check", paths["good"], "--theta", "1/0,1,1,1"],
        ["check", paths["rep_exponent"]],
        ["monad-check", paths["rep_exponent"]],
        ["check", paths["huge_int"]],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


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
