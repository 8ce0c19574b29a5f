"""Command-line front end.

Subcommands: check, convert, roundtrip, count-fixed, monad-check.  All
reports are JSON with sorted keys, so a fixed --seed reproduces identical
bytes.  Exit codes: 0 success, 1 verification failure, 2 unreadable or
malformed input, 3 precondition violation (bad parameter, singular chart,
unsupported colength).  Every package error carries its code as
`exit_code`, so no error reaches the user as a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .chart import NuPoint, chart_embed, chart_extract, find_regular_nu
from .corpus import (
    CHART_FIRST,
    CHART_MIXED,
    CHART_SECOND,
    random_gauge,
    random_nested_pair,
)
from .correspondence import nested_to_rep, rep_to_nested, same_orbit
from .errors import DomainError, NestquivError, NotAnIdeal, ShapeMismatch
from .ideals import NestedIdealPair, adhm_from_ideal, enumerate_nested_monomial, ideal_from_adhm
from .monad import build_monad, check_complex, fiber_ranks
from .quiver import EnhRep, HirzRep, act, enh_residuals, hirz_residuals
from .ratmat import rat
from .stability import EnhThetaParam, default_theta, is_gamma_stable, is_theta_stable

_EXIT_LABELS = {1: "verification failed", 2: "malformed input", 3: "precondition violated"}


class _CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise _CliFailure(2, f"cannot read {path}: {e}") from None
    except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
        raise _CliFailure(2, f"{path} is not valid JSON: {e}") from None


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_rationals(text: str, count: int, what: str) -> list[Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise _CliFailure(2, f"{what} needs {count} comma-separated rationals, got {text!r}")
    try:
        return [rat(p) for p in parts]
    except ValueError as e:
        raise _CliFailure(2, f"bad rational in {what}: {e}") from None


def _parse_nu(text: str) -> NuPoint:
    v = _parse_rationals(text, 2, "--nu")
    if v[0] == 0 and v[1] == 0:
        raise _CliFailure(2, "--nu must be a nonzero direction")
    return NuPoint(v[0], v[1])


def _check_surface_index(n: int) -> None:
    if n < 1:
        raise DomainError(f"the surface index --n must be a positive integer, got {n}")


def _parse_theta(text: str) -> EnhThetaParam:
    return EnhThetaParam(*_parse_rationals(text, 4, "--theta"))


def _load_rep(obj):
    """EnhRep when the JSON carries cp, plain HirzRep otherwise."""
    try:
        if "cp" in obj:
            return EnhRep.from_json(obj)
        return HirzRep.from_json(obj)
    except (KeyError, TypeError, ValueError, ShapeMismatch) as e:
        raise _CliFailure(2, f"malformed representation JSON: {e}") from None


def _load_pair(obj) -> NestedIdealPair:
    try:
        return NestedIdealPair.from_json(obj)
    except (KeyError, TypeError, ValueError, ShapeMismatch, NotAnIdeal) as e:
        raise _CliFailure(2, f"malformed pair JSON: {e}") from None


def cmd_check(args) -> int:
    obj = _load_json(args.input)
    x = _load_rep(obj)
    if isinstance(x, EnhRep):
        theta = _parse_theta(args.theta) if args.theta else default_theta(x.c, x.cp)
        residuals = enh_residuals(x)
        verdict = is_theta_stable(x, theta)
        report = {"kind": "enhanced", "n": x.n, "c": x.c, "cp": x.cp}
    else:
        residuals = hirz_residuals(x)
        verdict = is_gamma_stable(x)
        report = {"kind": "plain", "n": x.n, "c0": x.c0, "c1": x.c1}
    bad = [i for i, r in enumerate(residuals) if not r.is_zero()]
    report["relations"] = "zero" if not bad else "nonzero"
    report["nonzero_residuals"] = bad
    report["stability"] = verdict.to_json()
    _emit(report, args.out)
    return 0 if not bad and verdict.stable else 1


def cmd_convert(args) -> int:
    if args.direction == "cycle-to-rep":
        _check_surface_index(args.n)
    obj = _load_json(args.input)
    if args.direction == "rep-to-cycle":
        x = _load_rep(obj)
        if not isinstance(x, EnhRep):
            raise _CliFailure(2, "rep-to-cycle needs an enhanced representation (cp field)")
        theta = _parse_theta(args.theta) if args.theta else default_theta(x.c, x.cp)
        nu = _parse_nu(args.nu) if args.nu else None
        pair = rep_to_nested(x, theta, nu=nu)
        _emit(pair.to_json(), args.out)
        return 0
    pair = _load_pair(obj)
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
            raise _CliFailure(2, f"cannot list {args.corpus}: {e}") from None
        for name in names:
            cases.append((name, _load_pair(_load_json(os.path.join(args.corpus, name)))))
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
    a = adhm_from_ideal(pair.big)
    back = ideal_from_adhm(chart_extract(chart_embed(a, pair.nu, n), pair.nu))
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
    obj = _load_json(args.input)
    x = _load_rep(obj)
    if isinstance(x, EnhRep):
        x = x.left
    if x.c0 != x.c1:
        raise DomainError("monad needs c0 = c1")
    nu = _parse_nu(args.nu) if args.nu else find_regular_nu(x.A1, x.A2)
    monad = build_monad(x, nu)
    composite = check_complex(monad)
    complex_zero = all(p.is_zero() for row in composite for p in row)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestquiv",
        description="Exact tools for framed surface-quiver representations and nested 0-cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="relation residuals and stability of a representation")
    p.add_argument("input", help="representation JSON file")
    p.add_argument("--theta", help="four comma-separated rationals (enhanced reps only)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="translate between representations and nested cycles")
    p.add_argument("direction", choices=["rep-to-cycle", "cycle-to-rep"])
    p.add_argument("input", help="JSON file with the object to convert")
    p.add_argument("--n", type=int, default=1, help="surface index for cycle-to-rep (default 1)")
    p.add_argument("--theta", help="stability parameter for rep-to-cycle")
    p.add_argument("--nu", help="force this chart instead of scanning, e.g. --nu 1,0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("roundtrip", help="batch conversion round trips")
    p.add_argument("corpus", nargs="?", help="directory of pair JSON files (default: generated)")
    p.add_argument("--cmax", type=int, default=3, help="largest colength in the generated sweep")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, help="also run seeded random pairs with gauge scrambles")
    p.add_argument("--out")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("count-fixed", help="enumerate and verify torus-fixed nested pairs")
    p.add_argument("--cp", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--charts", type=int, choices=[1, 2], default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_count_fixed)

    p = sub.add_parser("monad-check", help="composite and fiber ranks of the chart monad")
    p.add_argument("input", help="representation JSON file")
    p.add_argument("--nu", help="chart direction (default: first regular sample point)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_monad_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except NestquivError as e:
        print(f"{_EXIT_LABELS[e.exit_code]}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
