"""Spans around calls into nestquiv's public functions, recorded from outside.

The library has no instrumentation of its own yet, so the traced run wraps
each listed function in every module namespace that binds it (and
`RationalMatrix.__matmul__` on the class), which makes internal calls such
as `nestquiv.chart.rank` visible too.  Nothing under `src/` is edited; the
wrappers are removed again by `Tracer.uninstall`.

A span covers one call: name, start, end, parent span and case id.  Self
time is the span's duration minus the time its child spans cover; a child
covers its own bookkeeping as well, so wrapper cost lands in neither the
child's nor the parent's self time (only the few instructions around the
timer reads leak into the parent).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# Layer (module) -> wrapped public functions.  `matmul` is
# RationalMatrix.__matmul__.  `corpus` is used only in set-up.
TARGETS = {
    "cli": ("main",),
    "correspondence": ("nested_to_rep", "rep_to_nested", "same_orbit"),
    "stability": ("is_theta_stable", "is_gamma_stable", "is_costable", "kernel_subrep"),
    "chart": (
        "chart_embed",
        "chart_extract",
        "transform_chart",
        "closure_scan",
        "find_regular_nu",
        "build_nested_adhm",
    ),
    "ideals": (
        "contains",
        "inclusion_matrix",
        "ideal_from_adhm",
        "adhm_from_ideal",
        "enumerate_nested_monomial",
    ),
    "monad": ("build_monad", "check_complex", "fiber_ranks", "cox_mul"),
    "quiver": ("enh_residuals", "hirz_residuals", "act"),
    "ratmat": ("rank", "kernel_basis", "invert", "solve_right", "matmul"),
    "monomials": ("monomials_upto",),
}

C_BUCKETS = (4, 5, 6)
BUCKETED_LAYERS = ("ideals", "ratmat")

# Spans whose direct `rank` children are pencil tries of a chart scan.
_SCANS = ("correspondence.rep_to_nested", "correspondence.same_orbit", "chart.find_regular_nu")
_VERDICTS = ("stability.is_theta_stable", "stability.is_gamma_stable", "stability.is_costable")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, funcs in TARGETS.items():
        names += [f"{layer}.self_ms", f"{layer}.calls"]
        for f in funcs:
            names += [f"{layer}.{f}.self_ms", f"{layer}.{f}.calls"]
    for layer in BUCKETED_LAYERS:
        names += [f"{layer}.self_ms.c{c}" for c in C_BUCKETS]
    names += [
        "ratmat.max_entry_bits",
        "chart.scan_tries_per_hit",
        "stability.reject_frac",
        "trace.overhead_frac",
        "trace.unattributed_ms",
    ]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name == "ratmat.max_entry_bits":
        return "bits"
    if name in ("chart.scan_tries_per_hit", "stability.reject_frac", "trace.overhead_frac"):
        return "ratio"
    return "ms"


def _max_bits(m) -> int:
    best = 0
    for row in m.data:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
    return best


class _Frame:
    __slots__ = ("key", "index", "child_ns", "ranks")

    def __init__(self, key: int, index: int):
        self.key = key
        self.index = index
        self.child_ns = 0
        self.ranks = 0


class Tracer:
    """Records spans for one traced pass; create, install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._layer_of: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.bucket_ns = {(layer, c): 0 for layer in BUCKETED_LAYERS for c in C_BUCKETS}
        # span columns
        self.sp_name = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("i")
        self.sp_case = array("i")
        self.case_id = -1
        self.case_c: int | None = None
        self.max_bits = 0
        self.scan_tries = 0
        self.scan_hits = 0
        self.verdicts = 0
        self.rejects = 0
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []
        self._rank_key = -1
        self._scan_keys: set[int] = set()

    # -- installation --------------------------------------------------

    def install(self) -> None:
        ratmat = sys.modules["nestquiv.ratmat"]
        modules = [m for name, m in sys.modules.items() if name == "nestquiv" or name.startswith("nestquiv.")]
        for layer, funcs in TARGETS.items():
            for fname in funcs:
                key = len(self.names)
                full = f"{layer}.{fname}"
                self.names.append(full)
                self._layer_of.append(layer)
                self.self_ns.append(0)
                self.calls.append(0)
                if full == "ratmat.rank":
                    self._rank_key = key
                if full in _SCANS:
                    self._scan_keys.add(key)
                if fname == "matmul":
                    orig = ratmat.RationalMatrix.__matmul__
                    self._patch(ratmat.RationalMatrix, "__matmul__", orig, self._wrap(key, orig, full))
                    continue
                orig = getattr(sys.modules[f"nestquiv.{layer}"], fname)
                wrapper = self._wrap(key, orig, full)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr: str, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, key: int, fn, full: str):
        is_ratmat = full.startswith("ratmat.") and full != "ratmat.rank"
        is_verdict = full in _VERDICTS
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(key, fn, args, kwargs, is_ratmat, is_verdict)

        return wrapper

    # -- the span ------------------------------------------------------

    def _call(self, key, fn, args, kwargs, is_ratmat, is_verdict):
        t_enter = perf_counter_ns()
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.sp_name)
        self.sp_name.append(key)
        self.sp_parent.append(parent.index if parent is not None else -1)
        self.sp_case.append(self.case_id)
        self.sp_start.append(0)
        self.sp_end.append(0)
        frame = _Frame(key, index)
        stack.append(frame)
        result = None
        ok = False
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.sp_start[index] = t0
            self.sp_end[index] = t1
            own = t1 - t0 - frame.child_ns
            self.self_ns[key] += own
            self.calls[key] += 1
            c = self.case_c
            layer = self._layer_of[key]
            if (layer, c) in self.bucket_ns:
                self.bucket_ns[(layer, c)] += own
            if key == self._rank_key and parent is not None and parent.key in self._scan_keys:
                parent.ranks += 1
            if key in self._scan_keys and frame.ranks:
                self.scan_tries += frame.ranks
                if ok:
                    self.scan_hits += 1
            if ok and is_ratmat:
                bits = _max_bits(result)
                if bits > self.max_bits:
                    self.max_bits = bits
            if ok and is_verdict:
                self.verdicts += 1
                if not result.stable:
                    self.rejects += 1
            if parent is not None:
                parent.child_ns += perf_counter_ns() - t_enter

    # -- results -------------------------------------------------------

    def top_level_ns(self) -> int:
        return sum(e - s for s, e, p in zip(self.sp_start, self.sp_end, self.sp_parent) if p == -1)

    def metrics(self, traced_ms: float, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, funcs in TARGETS.items():
            keys = [self.names.index(f"{layer}.{f}") for f in funcs]
            out[f"{layer}.self_ms"] = sum(self.self_ns[k] for k in keys) / 1e6
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
            for f, k in zip(funcs, keys):
                out[f"{layer}.{f}.self_ms"] = self.self_ns[k] / 1e6
                out[f"{layer}.{f}.calls"] = self.calls[k]
        for layer in BUCKETED_LAYERS:
            for c in C_BUCKETS:
                out[f"{layer}.self_ms.c{c}"] = self.bucket_ns[(layer, c)] / 1e6
        out["ratmat.max_entry_bits"] = self.max_bits
        out["chart.scan_tries_per_hit"] = self.scan_tries / self.scan_hits if self.scan_hits else 0.0
        out["stability.reject_frac"] = self.rejects / self.verdicts if self.verdicts else 0.0
        out["trace.overhead_frac"] = overhead_frac
        out["trace.unattributed_ms"] = traced_ms - self.top_level_ns() / 1e6
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the name table, then one
        [name, start_ns, end_ns, parent, case] list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.sp_name)}) + "\n")
            for row in zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent, self.sp_case):
                fh.write(json.dumps(row) + "\n")
