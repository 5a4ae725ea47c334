"""Spans and counters around the calls into each layer of nkoszul.

The tracer wraps callables from outside the program: a wrapped function
is replaced in every ``nkoszul`` module namespace that holds it (so both
``cli.oracle_pbw`` and ``filtered.oracle_pbw`` record), and a wrapped
method is replaced on its class.  Spans stay in memory as
``[name, case, start_ns, end_ns, parent]`` and are written out once, when
the pass ends.  The field operations of ``cyclo`` are far too frequent for
spans (about 1.3M multiplications on the sl2 and non-Jacobi cases), so
they get counter-only wraps.

``layer_metrics`` turns a written trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

# span name -> callables ("module:qualname") whose calls it records
SPANS = {
    "jsonio.load_input": ("jsonio:load_input",),
    "elim.add": ("elim:SparseEliminator.add",),
    "elim.reduce": ("elim:SparseEliminator.reduce",),
    "filtered.oracle_run": ("filtered:OracleEngine.run",),
    "filtered.condition_J": ("filtered:check_condition_J",),
    "filtered.pbw_verdict": ("filtered:pbw_verdict",),
    "homogeneous.ec": ("homogeneous:check_ec",),
    "homogeneous.tor3": ("homogeneous:check_tor3_concentration",),
    "homogeneous.koszul_complex": ("homogeneous:koszul_complex_check",),
    "homogeneous.tower_ensure": ("homogeneous:_Tower.ensure",),
    "homogeneous.w_rows": ("homogeneous:w_rows",),
    "komplex.slice_build": ("komplex:NComplexSlice.__init__",),
    "komplex.truncated_u": ("komplex:TruncatedU.__init__",),
    "komplex.d_left": ("komplex:NComplexSlice.d_left",),
    "komplex.d_right": ("komplex:NComplexSlice.d_right",),
    "komplex.phi": ("komplex:NComplexSlice.phi_left", "komplex:NComplexSlice.phi_right"),
    "komplex.express": ("komplex:_XSpace.express",),
    "komplex.dN_zero": ("komplex:check_dN_zero",),
    "komplex.contraction": ("komplex:contracted_complex",),
    "komplex.wedge_agreement": ("komplex:wedge_agreement",),
    "smashtensor.intersect": (
        "smashtensor:Subbimodule.intersect",
        "smashtensor:FilteredSubspace.truncate_intersection",
    ),
    "smashtensor.product_EF": ("smashtensor:product_EF",),
    "smashtensor.from_elements": (
        "smashtensor:Subbimodule.from_elements",
        "smashtensor:FilteredSubspace.from_elements",
    ),
    "scalar.rref_raw": ("scalar:rref_raw",),
    "grouppres.theorem44": ("grouppres:theorem_44_verdict",),
    "grouppres.equivariance": ("grouppres:check_equivariance",),
}

# counter -> field methods it counts, on both field classes
FIELD_COUNTERS = {"mul": ("mul",), "addsub": ("add", "sub"), "inv": ("inv",)}
FIELD_CLASSES = ("RationalField", "CyclotomicField")


def height_bits(raw) -> int:
    """Largest numerator or denominator bit length of a raw field value."""
    if isinstance(raw, Fraction):
        return max(raw.numerator.bit_length(), raw.denominator.bit_length())
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in raw)


class Tracer:
    """Records spans and counters; ``install`` patches the program."""

    def __init__(self) -> None:
        self.names: list = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.max_height_bits = 0
        self.case = -1
        self._stack: list = []

    def span(self, name: str, fn, on_call=None, on_return=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            rec = [idx, self.case, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def counted(self, key: str, fn, track_height: bool = False):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args):
            counters[key] += 1
            result = fn(*args)
            if track_height:
                h = height_bits(result)
                if h > self.max_height_bits:
                    self.max_height_bits = h
            return result

        return wrapper

    def install(self) -> None:
        """Patch every callable named in SPANS and the cyclo field methods."""
        hooks = {
            "elim.add": (None, self._on_add_return),
            "homogeneous.w_rows": (self._on_w_rows_call, None),
        }
        for name, targets in SPANS.items():
            on_call, on_return = hooks.get(name, (None, None))
            for target in targets:
                _patch(target, lambda fn, n=name: self.span(n, fn, on_call, on_return))
        for cls_name in FIELD_CLASSES:
            for key, methods in FIELD_COUNTERS.items():
                for meth in methods:
                    _patch(
                        f"cyclo:{cls_name}.{meth}",
                        lambda fn, k=key: self.counted(k, fn, track_height=(k == "mul")),
                    )

    def _on_add_return(self, pivot) -> None:
        if pivot is not None:
            self.counters["elim.rows_inserted"] += 1

    def _on_w_rows_call(self, args, kwargs) -> None:
        n = args[1] if len(args) > 1 else kwargs["n"]
        cache = args[2] if len(args) > 2 else kwargs.get("cache")
        if cache is not None and n in cache:
            self.counters["homogeneous.w_cache_hits"] += 1

    def dump(self, path) -> None:
        counters = dict(self.counters)
        counters["cyclo.max_height_bits"] = self.max_height_bits
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": counters, "spans": self.spans}, fh)


def _patch(target: str, make) -> None:
    """Replace ``module:qualname`` by ``make(original)`` wherever it is bound."""
    mod_name, qualname = target.split(":")
    module = importlib.import_module(f"nkoszul.{mod_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        return
    original = getattr(module, qualname)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "nkoszul" or name.startswith("nkoszul."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


# -- from a written trace to per-layer metrics ------------------------------


def span_table(trace: dict) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls only) and
    self seconds (duration minus the direct child spans)."""
    names = trace["names"]
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child_ns[rec[4]] += rec[3] - rec[2]
    table = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in names}
    for i, rec in enumerate(spans):
        row = table[names[rec[0]]]
        dur = rec[3] - rec[2]
        row["calls"] += 1
        row["self_s"] += (dur - child_ns[i]) / 1e9
        parent = rec[4]
        outermost = True
        while parent >= 0:
            if spans[parent][0] == rec[0]:
                outermost = False
                break
            parent = spans[parent][4]
        if outermost:
            row["s"] += dur / 1e9
    return table


def _reduce_outside_add(trace: dict) -> tuple:
    """Calls and seconds of elim.reduce whose parent span is not elim.add."""
    names = trace["names"]
    spans = trace["spans"]
    calls, ns = 0, 0
    for rec in spans:
        if names[rec[0]] != "elim.reduce":
            continue
        if rec[4] >= 0 and names[spans[rec[4]][0]] == "elim.add":
            continue
        calls += 1
        ns += rec[3] - rec[2]
    return calls, ns / 1e9


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric name -> value, from a trace written by ``dump``."""
    t = span_table(trace)
    c = trace["counters"]

    def s(name):
        return t[name]["s"] if name in t else 0.0

    def calls(name):
        return t[name]["calls"] if name in t else 0

    def self_s(name):
        return t[name]["self_s"] if name in t else 0.0

    add_calls = calls("elim.add")
    reduce_calls, reduce_s = _reduce_outside_add(trace)
    w_calls = calls("homogeneous.w_rows")
    return {
        "jsonio.load_input_s": s("jsonio.load_input"),
        "cyclo.mul_calls": c.get("mul", 0),
        "cyclo.addsub_calls": c.get("addsub", 0),
        "cyclo.inv_calls": c.get("inv", 0),
        "cyclo.max_height_bits": c.get("cyclo.max_height_bits", 0),
        "elim.add_calls": add_calls,
        "elim.rows_inserted": c.get("elim.rows_inserted", 0),
        "elim.insert_ratio": c.get("elim.rows_inserted", 0) / add_calls if add_calls else 0.0,
        "elim.add_s": s("elim.add"),
        "elim.add_self_s": self_s("elim.add"),
        "elim.reduce_calls": reduce_calls,
        "elim.reduce_s": reduce_s,
        "filtered.oracle_runs": calls("filtered.oracle_run"),
        "filtered.oracle_run_s": s("filtered.oracle_run"),
        "filtered.oracle_self_s": self_s("filtered.oracle_run"),
        "filtered.condition_J_s": s("filtered.condition_J"),
        "filtered.pbw_verdict_s": s("filtered.pbw_verdict"),
        "homogeneous.tor3_s": s("homogeneous.tor3"),
        "homogeneous.koszul_complex_s": s("homogeneous.koszul_complex"),
        "homogeneous.ec_s": s("homogeneous.ec"),
        "homogeneous.tower_ensure_calls": calls("homogeneous.tower_ensure"),
        "homogeneous.tower_ensure_s": s("homogeneous.tower_ensure"),
        "homogeneous.w_rows_calls": w_calls,
        "homogeneous.w_rows_s": s("homogeneous.w_rows"),
        "homogeneous.w_cache_hit_ratio": (
            c.get("homogeneous.w_cache_hits", 0) / w_calls if w_calls else 0.0
        ),
        "komplex.slice_build_s": s("komplex.slice_build"),
        "komplex.truncated_u_s": s("komplex.truncated_u"),
        "komplex.d_left_s": s("komplex.d_left"),
        "komplex.d_right_s": s("komplex.d_right"),
        "komplex.phi_s": s("komplex.phi"),
        "komplex.express_calls": calls("komplex.express"),
        "komplex.express_s": s("komplex.express"),
        "komplex.dN_zero_s": s("komplex.dN_zero"),
        "komplex.contraction_s": s("komplex.contraction"),
        "komplex.wedge_agreement_s": s("komplex.wedge_agreement"),
        "smashtensor.intersect_calls": calls("smashtensor.intersect"),
        "smashtensor.intersect_s": s("smashtensor.intersect"),
        "smashtensor.product_EF_s": s("smashtensor.product_EF"),
        "smashtensor.from_elements_s": s("smashtensor.from_elements"),
        "scalar.rref_raw_calls": calls("scalar.rref_raw"),
        "scalar.rref_raw_s": s("scalar.rref_raw"),
        "grouppres.theorem44_s": s("grouppres.theorem44"),
        "grouppres.equivariance_s": s("grouppres.equivariance"),
    }
