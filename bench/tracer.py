"""Spans around the calls into each seacausal layer, for the traced run.

The program is not instrumented.  ``Tracer.install`` replaces every public
function of each layer module at every binding a caller uses: the
module's own namespace (which its internal calls go through), other
modules that imported it by name (``seacausal.kernel.bessel_k``), and
module-level dicts holding it (``verify.SUITES``).  Integrands handed to
``gk`` and sources handed to the EM convolutions are wrapped at that call
too, with the layer of the module that defines them.

Spans live in memory with parent ids and are written out at the end.
A span's self time is its duration minus its children's.  The tracer's
own cost, everything a wrapper does outside the wrapped call, is summed
into trace.overhead_s and kept out of every self time.  After
``SPAN_LIMIT`` calls of one function under one parent, further calls are
folded into one aggregate record per (parent, function), which keeps
per-element calls such as ``chain.classify_invariants`` (about 10^6 per
scan) from filling memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("bessel", "spinor", "kernel", "chain", "gk", "quadrature",
          "sea_variation", "abstract_cfs", "em_perturb", "verify", "cli")
SPAN_LIMIT = 64

# per-layer metrics and their units, in report order
PER_LAYER = (
    ("bessel.points", "count"), ("bessel.calls", "count"),
    ("bessel.points_per_call", "points/call"), ("bessel.self_s", "s"),
    ("kernel.points", "count"), ("kernel.calls", "count"),
    ("kernel.self_s", "s"),
    ("chain.points", "count"), ("chain.calls", "count"),
    ("chain.self_s", "s"),
    ("gk.calls", "count"), ("gk.panels_2d", "count"),
    ("gk.panels_1d", "count"), ("gk.points", "count"), ("gk.self_s", "s"),
    ("quadrature.interior_panels", "count"),
    ("quadrature.tail_panels", "count"), ("quadrature.interior_s", "s"),
    ("quadrature.tail_s", "s"), ("quadrature.self_s", "s"),
    ("quadrature.attempts", "count"),
    ("quadrature.useful_attempt_ratio", "ratio"),
    ("quadrature.err_budget_used", "ratio"),
    ("sea_variation.calls", "count"), ("sea_variation.self_s", "s"),
    ("em_perturb.convolutions", "count"), ("em_perturb.surface_s", "s"),
    ("em_perturb.volume_s", "s"), ("em_perturb.self_s", "s"),
    ("em_perturb.source_points", "count"),
    ("em_perturb.support_ratio", "ratio"),
    ("spinor.calls", "count"), ("spinor.self_s", "s"),
    ("cli.rows", "count"), ("cli.self_s", "s"),
    ("abstract_cfs.calls", "count"), ("abstract_cfs.self_s", "s"),
    ("verify.checks", "count"), ("verify.self_s", "s"),
    ("process.cpu_s", "s"), ("trace.overhead_s", "s"),
)

# the certified integrals, whose reports give the error-budget margin
_CERTIFIED = {"integrate_p4", "integrate_lagrangian", "ell_varied"}
# callers inside quadrature whose gk calls are the interior or the tail
_INTERIOR_CALLER = "_run_reduced"
_TAIL_CALLER = "_tail_estimate"
_VECTOR_ENTRIES = {"scalar_F", "scalar_G", "scalar_G_derivative",
                   "kernel_fg_radial", "invariants_from_radial",
                   "lagrangian_from_radial"}


def _points(layer: str, name: str, args) -> int:
    """Evaluation points carried by a call entering `layer`."""
    if layer == "bessel":
        return int(np.size(args[-1]))
    if name == "kernel_matrix_batch":
        return int(np.size(args[0])) // 4
    if name in _VECTOR_ENTRIES:
        return int(np.size(args[0]))
    return 1


def _layer_of(module_name: str) -> str:
    head, _, tail = module_name.partition(".")
    return tail if head == "seacausal" and tail in LAYERS else "other"


class _Frame:
    __slots__ = ("span_id", "layer", "tag", "child_s")

    def __init__(self, span_id, layer, tag):
        self.span_id = span_id
        self.layer = layer
        self.tag = tag
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.aggregates = {}
        self.counts = defaultdict(float)
        self._stack = []
        self._calls_under = defaultdict(int)
        self._next_id = 0
        self._patched = []

    # ------------------------------------------------------------ install
    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patched.append((vars(mod), name, obj))
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if isinstance(val, types.FunctionType) \
                                and val in wrappers:
                            self._patched.append((obj, key, val))
                            obj[key] = wrappers[val]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    # -------------------------------------------------------------- spans
    def _open(self, name: str, layer: str, tag=None):
        parent = self._stack[-1] if self._stack else None
        parent_id = parent.span_id if parent else None
        key = (parent_id, name)
        self._calls_under[key] += 1
        if self._calls_under[key] <= SPAN_LIMIT:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = "agg:%s:%s" % key
        frame = _Frame(span_id, layer, tag)
        self._stack.append(frame)
        return parent, frame, key

    def _close(self, parent, frame, key, name, start, end) -> float:
        self._stack.pop()
        dur = end - start
        self_s = dur - frame.child_s
        if parent is not None:
            parent.child_s += dur
        self.counts[frame.layer + ".self_s"] += self_s
        if isinstance(frame.span_id, int):
            self.spans.append({"id": frame.span_id, "parent": key[0],
                               "name": name, "start": start, "end": end,
                               "self_s": self_s})
        else:
            agg = self.aggregates.setdefault(frame.span_id, {
                "id": frame.span_id, "parent": key[0], "name": name,
                "calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += self_s
        return dur

    def _wrap(self, fn, layer: str):
        name = "%s.%s" % (layer, fn.__name__)
        short = fn.__name__
        sig = inspect.signature(fn) if short in _CERTIFIED else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            caller = sys._getframe(1).f_code.co_name
            parent, frame, key = tracer._open(name, layer)
            entering = parent is None or parent.layer != layer
            if layer == "gk" and entering and args and callable(args[0]):
                args = (tracer._callback(args[0], "gk"),) + args[1:]
            elif short in ("convolve_surface", "convolve_volume"):
                args = (args[0], tracer._callback(args[1], "em_source")) \
                    + args[2:]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                dur = tracer._close(parent, frame, key, name, start, end)
            tracer._count(layer, short, caller, entering, parent, args,
                          kwargs, result, dur, sig)
            tracer._overhead(parent, entered, dur)
            return result

        return wrapper

    def _callback(self, fn, tag: str):
        """Wrap an integrand or source handed to gk / the convolutions."""
        layer = _layer_of(getattr(fn, "__module__", "") or "")
        name = "%s.%s" % (layer, getattr(fn, "__qualname__", "callback"))
        tracer = self

        def callback(x, *rest):
            entered = time.perf_counter()
            parent, frame, key = tracer._open(name, layer, tag)
            start = time.perf_counter()
            try:
                return fn(x, *rest)
            finally:
                end = time.perf_counter()
                dur = tracer._close(parent, frame, key, name, start, end)
                tracer.counts["gk.points" if tag == "gk"
                              else "em_perturb.source_points"] += len(x)
                tracer._overhead(parent, entered, dur)

        return callback

    def _overhead(self, parent, entered: float, dur: float) -> None:
        """Book a wrapper's own time: to trace.overhead_s, and as child
        time of the parent, so it stays out of the parent's self time."""
        cost = time.perf_counter() - entered - dur
        self.counts["trace.overhead_s"] += cost
        if parent is not None:
            parent.child_s += cost

    # ------------------------------------------------------------- counts
    def _count(self, layer, short, caller, entering, parent, args, kwargs,
               result, dur, sig) -> None:
        c = self.counts
        if entering:
            c[layer + ".calls"] += 1
            if layer in ("bessel", "kernel", "chain"):
                pts = _points(layer, short, args)
                c[layer + ".points"] += pts
                if layer == "kernel" and parent is not None \
                        and parent.tag == "em_source":
                    c["em_perturb.support_points"] += pts
        if short in ("integrate_2d", "integrate_1d"):
            panels = result[2]
            c["gk.panels_2d" if short == "integrate_2d"
              else "gk.panels_1d"] += panels
            if caller == _INTERIOR_CALLER:
                c["quadrature.interior_panels"] += panels
                c["quadrature.interior_s"] += dur
                if kwargs.get("tol_abs", 0.0) > 0.0:
                    c["quadrature.attempts"] += 1
            elif caller == _TAIL_CALLER:
                c["quadrature.tail_panels"] += panels
                c["quadrature.tail_s"] += dur
        elif short in ("convolve_surface", "convolve_volume"):
            c["em_perturb.convolutions"] += 1
            c["em_perturb.surface_s" if short == "convolve_surface"
              else "em_perturb.volume_s"] += dur
        elif sig is not None and entering:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            budget = (result.abs_error_estimate + result.tail_bound) / (
                bound.arguments["tol"] * abs(result.value))
            c["quadrature.converged"] += 1
            c["quadrature.err_budget_used"] = max(
                c["quadrature.err_budget_used"], budget)
        elif short == "run_suite" and entering:
            c["verify.checks"] += len(result)

    # ------------------------------------------------------------ results
    def metrics(self) -> dict:
        c = self.counts
        derived = {
            "bessel.points_per_call":
                c["bessel.points"] / c["bessel.calls"]
                if c["bessel.calls"] else 0.0,
            "quadrature.useful_attempt_ratio":
                c["quadrature.converged"] / c["quadrature.attempts"]
                if c["quadrature.attempts"] else 0.0,
            "em_perturb.support_ratio":
                c["em_perturb.support_points"] / c["em_perturb.source_points"]
                if c["em_perturb.source_points"] else 0.0,
        }
        out = {}
        for name, unit in PER_LAYER:
            value = derived[name] if name in derived else c[name]
            if unit == "count":
                value = int(value) if float(value).is_integer() else value
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "counts": dict(self.counts),
                       "spans": self.spans,
                       "aggregates": list(self.aggregates.values())}, fh)
