"""Command-line front end.

Subcommands: check, convert, roundtrip, count-fixed, monad-check.  All
reports are JSON with sorted keys, so a fixed --seed reproduces identical
bytes.  Exit codes: 0 success, 1 verification failure, 2 MalformedInput
(an input that cannot be read or parsed, or that a library reader
refuses, an --out that cannot be written, a malformed --theta or --nu),
3 precondition violation (bad parameter, singular chart, unsupported
colength).  --theta and --nu are parsed before the input is read; a
well-formed one that does not apply to the input is ignored.  Every
failure is a package error carrying its code as `exit_code`: main prints
it as the one stderr line `error: <message>`, prints nothing on stdout,
and returns the code, so no error reaches the user as a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .chart import CHART_FIRST, CHART_MIXED, CHART_SECOND, NuPoint, find_regular_nu, transform_chart
from .corpus import random_gauge, random_nested_pair
from .correspondence import nested_to_rep, rep_to_nested, same_orbit
from .errors import DomainError, MalformedInput, NestquivError
from .ideals import NestedIdealPair, adhm_from_ideal, enumerate_nested_monomial, ideal_from_adhm
from .monad import build_monad, fiber_ranks
from .quiver import EnhRep, HirzRep, act
from .ratmat import rat
from .stability import EnhThetaParam, default_theta, is_gamma_stable, is_theta_stable


def _read(path: str, parse, what: str):
    """parse applied to the JSON in the file at path; every way the file
    fails to give a `what` is MalformedInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise MalformedInput(f"cannot read {path}: {e}") from None
    except (ValueError, RecursionError) as e:  # bad JSON, a 4301-digit integer, deep nesting
        raise MalformedInput(f"{path} is not valid JSON: {e}") from None
    try:
        return parse(obj)
    except NestquivError as e:
        raise MalformedInput(f"malformed {what} JSON: {e}") from None


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise MalformedInput(f"cannot write {out}: {e}") from None


def _parse_rationals(text: str, count: int, what: str) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise MalformedInput(f"{what} needs {count} comma-separated rationals, got {text!r}")
    try:
        return [rat(p) for p in parts]
    except MalformedInput as e:
        raise MalformedInput(f"bad rational in {what}: {e}") from None


def _parse_nu(text: str) -> NuPoint:
    v = _parse_rationals(text, 2, "--nu")
    if v[0] == 0 and v[1] == 0:
        raise MalformedInput("--nu must be a nonzero direction")
    return NuPoint(v[0], v[1])


def _check_surface_index(n: int) -> None:
    if n < 1:
        raise DomainError(f"the surface index --n must be a positive integer, got {n}")


def _parse_theta(text: str) -> EnhThetaParam:
    return EnhThetaParam(*_parse_rationals(text, 4, "--theta"))


def _rep_from_json(obj):
    """EnhRep when the JSON object carries cp, plain HirzRep otherwise."""
    return EnhRep.from_json(obj) if isinstance(obj, dict) and "cp" in obj else HirzRep.from_json(obj)


def cmd_check(args) -> int:
    """The relations, then the stability verdict: exit 0 when both hold,
    else 1.  A chart pair that does not commute exits 1 with
    `error: extracted pair does not commute` (`chart.chart_extract`)."""
    theta = _parse_theta(args.theta) if args.theta else None
    x = _read(args.input, _rep_from_json, "representation")
    if isinstance(x, HirzRep) and x.c0 != x.c1:
        raise DomainError("stability needs c0 = c1")
    bad = list(x._nonzero_residuals)
    if isinstance(x, EnhRep):
        verdict = is_theta_stable(x, theta or default_theta(x.c, x.cp))
        report = {"kind": "enhanced", "n": x.n, "c": x.c, "cp": x.cp}
    else:
        verdict = is_gamma_stable(x)
        report = {"kind": "plain", "n": x.n, "c0": x.c0, "c1": x.c1}
    report["relations"] = "zero" if not bad else "nonzero"
    report["nonzero_residuals"] = bad
    report["stability"] = verdict.to_json()
    _emit(report, args.out)
    return 0 if not bad and verdict.stable else 1


def cmd_convert(args) -> int:
    theta = _parse_theta(args.theta) if args.theta else None
    nu = _parse_nu(args.nu) if args.nu else None
    if args.direction == "cycle-to-rep":
        _check_surface_index(args.n)
    if args.direction == "rep-to-cycle":
        x = _read(args.input, _rep_from_json, "representation")
        if not isinstance(x, EnhRep):
            raise MalformedInput("rep-to-cycle needs an enhanced representation (cp field)")
        pair = rep_to_nested(x, theta or default_theta(x.c, x.cp), nu=nu)
        _emit(pair.to_json(), args.out)
        return 0
    pair = _read(args.input, NestedIdealPair.from_json, "pair")
    x = nested_to_rep(pair, args.n)
    _emit(x.to_json(), args.out)
    return 0


def _roundtrip_case(pair: NestedIdealPair, n: int, rng: random.Random | None):
    """None when the pair survives the trip, else a reason string."""
    theta = default_theta(pair.big.c, pair.small.c)
    x = nested_to_rep(pair, n)
    back = rep_to_nested(x, theta)
    if back != pair:
        return "converted pair differs"
    if rng is not None:
        y = act(random_gauge(rng, pair.big.c, pair.big.c - pair.small.c), x)
        scrambled = rep_to_nested(y, theta)
        if scrambled != pair:
            return "gauge-scrambled pair differs"
        if not same_orbit(x, y, theta):
            return "same_orbit rejects a gauge pair"
    return None


def _monomial_pairs(cmax: int):
    for c in range(2, cmax + 1):
        for cp in range(1, c):
            for pair in enumerate_nested_monomial(cp, c, charts=1):
                yield pair
                yield NestedIdealPair(nu=CHART_SECOND, big=pair.big, small=pair.small)


def cmd_roundtrip(args) -> int:
    _check_surface_index(args.n)
    cases: list[tuple[str, NestedIdealPair]] = []
    if args.corpus:
        try:
            names = sorted(f for f in os.listdir(args.corpus) if f.endswith(".json"))
        except OSError as e:
            raise MalformedInput(f"cannot list {args.corpus}: {e}") from None
        for name in names:
            pair = _read(os.path.join(args.corpus, name), NestedIdealPair.from_json, "pair")
            cases.append((name, pair))
    else:
        for i, pair in enumerate(_monomial_pairs(args.cmax)):
            cases.append((f"monomial-{i}", pair))
    rng = random.Random(args.seed) if args.seed is not None else None
    if rng is not None and not args.corpus:
        charts = [CHART_FIRST, CHART_SECOND, CHART_MIXED]
        for i in range(24):
            c = rng.choice([2, 3, 4])
            cp = rng.randint(1, c - 1)
            pair = random_nested_pair(rng, c, cp, charts[i % 3])
            cases.append((f"random-{i}", pair))
    failures = []
    for label, pair in cases:
        try:
            reason = _roundtrip_case(pair, args.n, rng)
        except NestquivError as e:
            reason = f"{type(e).__name__}: {e}"
        if reason:
            failures.append({"case": label, "reason": reason})
    report = {
        "n": args.n,
        "total": len(cases),
        "passed": len(cases) - len(failures),
        "failed": len(failures),
        "failures": failures,
    }
    _emit(report, args.out)
    return 0 if not failures else 1


def _verify_enumerated(pair: NestedIdealPair, n: int):
    """cp >= 1: full conversion round trip; cp = 0: chart dictionary only."""
    if pair.small.c >= 1:
        return _roundtrip_case(pair, n, None)
    back = ideal_from_adhm(transform_chart(adhm_from_ideal(pair.big), pair.nu, pair.nu, n))
    return None if back == pair.big else "chart dictionary does not close"


def cmd_count_fixed(args) -> int:
    if args.cp < 0 or args.cp >= args.c:
        raise DomainError("need 0 <= cp < c")
    _check_surface_index(args.n)
    pairs = enumerate_nested_monomial(args.cp, args.c, charts=args.charts, n=args.n)
    failures = []
    for i, pair in enumerate(pairs):
        reason = _verify_enumerated(pair, args.n)
        if reason:
            failures.append({"case": i, "reason": reason})
    by_chart: dict[str, int] = {}
    for pair in pairs:
        key = ",".join(pair.nu.to_json())
        by_chart[key] = by_chart.get(key, 0) + 1
    report = {
        "n": args.n,
        "c": args.c,
        "cp": args.cp,
        "charts": args.charts,
        "count": len(pairs),
        "by_chart": by_chart,
        "verified": not failures,
        "failures": failures,
    }
    _emit(report, args.out)
    return 0 if not failures else 1


# Fiber sample for monad-check: the 20 products avoid the excluded loci
# y = (0,0) and s = (0,0), include the s_inf = 0 boundary and both base
# directions, and are part of the CLI contract (frozen in the tests).
_MONAD_Y = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))
_MONAD_S = ((1, 1), (2, 1), (1, 2), (1, 0))


def cmd_monad_check(args) -> int:
    nu = _parse_nu(args.nu) if args.nu else None
    x = _read(args.input, _rep_from_json, "representation")
    if isinstance(x, EnhRep):
        x = x.left
    if x.c0 != x.c1:
        raise DomainError("monad needs c0 = c1")
    nu = nu or find_regular_nu(x.A1, x.A2)
    monad = build_monad(x, nu)
    complex_zero = monad.composite.is_zero()
    points = [(y1, y2, se, si) for (se, si) in _MONAD_S for (y1, y2) in _MONAD_Y]
    ranks = [list(fiber_ranks(monad, pt)) for pt in points]
    full = all(ra == x.c0 and rb == x.c0 for ra, rb in ranks)
    report = {
        "n": x.n,
        "c": x.c0,
        "nu": nu.to_json(),
        "complex_zero": complex_zero,
        "points": [[str(v) for v in pt] for pt in points],
        "ranks": ranks,
        "full_rank": full,
    }
    _emit(report, args.out)
    return 0 if complex_zero and full else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once; main looks up cmd_<subcommand> at each call."""
    parser = argparse.ArgumentParser(
        prog="nestquiv",
        description="Exact tools for framed surface-quiver representations and nested 0-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="relation residuals and stability of a representation")
    p.add_argument("input", help="representation JSON file")
    p.add_argument("--theta", help="four comma-separated rationals (enhanced reps only)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("convert", help="translate between representations and nested cycles")
    p.add_argument("direction", choices=["rep-to-cycle", "cycle-to-rep"])
    p.add_argument("input", help="JSON file with the object to convert")
    p.add_argument("--n", type=int, default=1, help="surface index for cycle-to-rep (default 1)")
    p.add_argument("--theta", help="stability parameter for rep-to-cycle")
    p.add_argument("--nu", help="force this chart instead of scanning, e.g. --nu 1,0")
    p.add_argument("--out")

    p = sub.add_parser("roundtrip", help="batch conversion round trips")
    p.add_argument("corpus", nargs="?", help="directory of pair JSON files (default: generated)")
    p.add_argument("--cmax", type=int, default=3, help="largest colength in the generated sweep")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, help="also run seeded random pairs with gauge scrambles")
    p.add_argument("--out")

    p = sub.add_parser("count-fixed", help="enumerate and verify torus-fixed nested pairs")
    p.add_argument("--cp", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--charts", type=int, choices=[1, 2], default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("monad-check", help="composite and fiber ranks of the chart monad")
    p.add_argument("input", help="representation JSON file")
    p.add_argument("--nu", help="chart direction (default: first regular sample point)")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except NestquivError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
