"""Spans around the public calls of pnspredict, installed from outside.

The tracer replaces each traced function, class constructor and method with
a wrapper that records a span (name, start, end, parent, op) and adds the
call to per-name totals: calls, self time (duration minus the time covered
by child spans on the same thread), inclusive time and failed calls.  Spans
are kept in memory and written out by `dump`.  Nothing in src/ changes;
`uninstall` puts every original object back.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter

# Module name -> the names in that module's __all__ when the benchmark was
# defined.  The list is fixed here, not read from __all__, so the set of
# per-layer metrics stays the same when a later change renames or removes a
# name; a name that no longer exists reports zero calls.  CIS_THRESHOLD is
# a constant and has no calls to count.
LAYERS = {
    "generators": (
        "Generator", "BSplineGenerator", "DaubechiesGenerator",
        "TabulatedGenerator", "bspline_eval", "daubechies_eval",
        "daubechies_taps", "stability_bounds", "generator_from_descriptor"),
    "polyphase": (
        "SamplingScheme", "LaurentMatrix", "build_polyphase",
        "cis_determinant", "det_on_circle", "frame_bounds", "zak_transform"),
    "kernels": (
        "SingularSamplePointError", "ResidualError", "KernelSet",
        "invert_polyphase", "build_kernels", "evaluate_kernel", "reconstruct",
        "save_kernels", "load_kernels"),
    "moments": ("MomentReport", "moment_defect", "reproduction_order"),
    "prediction": (
        "PredictionScheme", "lagrange_weights", "equally_spaced_weights",
        "modify_kernels", "past_window", "window_bound", "predict",
        "save_prediction", "load_prediction"),
    "approximation": (
        "TestSignal", "ConvergenceReport", "builtin_signal", "approx_operator",
        "lp_error", "convergence_study", "tau_modulus_estimate"),
}
METHODS = (("generators", "BSplineGenerator", "eval"),
           ("generators", "DaubechiesGenerator", "eval"),
           ("kernels", "KernelSet", "kernel"),
           ("prediction", "PredictionScheme", "kernel"))
EVAL_KINDS = ("BSplineGenerator", "DaubechiesGenerator")
SUBCOMMANDS = ("table1", "predict", "convergence")
# One Simpson pass of lp_error; private, traced only to count passes.
SIMPSON_PASS = ("approximation", "_lp_once")
# Spans kept in memory; later ones are counted in `dropped` only.
MAX_SPANS = 200_000


def traced_names() -> list:
    """Span names in metric order; classes are traced through __init__."""
    names = []
    for mod, members in LAYERS.items():
        for name in members:
            suffix = ".init" if name[:1].isupper() else ""
            names.append(f"{mod}.{name}{suffix}")
    names += [f"{mod}.{cls}.{meth}" for mod, cls, meth in METHODS]
    return names


def per_layer_metric_units() -> dict:
    """Every per-layer metric of a traced run, mapped to its unit."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for kind in EVAL_KINDS:
        units[f"generators.{kind}.eval.ns_per_point"] = "ns"
        units[f"generators.{kind}.eval.points_per_call"] = "count"
    units["prediction.PredictionScheme.kernel.nonzero_frac"] = "ratio"
    units["approximation.lp_error.passes_per_call"] = "count"
    units["kernels.accept_frac"] = "ratio"
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.wall_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _points(args, kwargs, out):
    t = args[1] if len(args) > 1 else kwargs.get("t")
    return sys.modules["numpy"].size(t)


def _nonzero(args, kwargs, out):
    return int(sys.modules["numpy"].any(out != 0))


class Tracer:
    """Records spans and per-name totals for the calls it wraps."""

    def __init__(self):
        self.op = None          # identifier shared by the spans of one op
        self.active = True      # False while the benchmark makes inputs
        self.spans = []
        self.dropped = 0
        self._names = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_totals = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.totals = {}
            with self._lock:
                self._thread_totals.append(loc.totals)
        return loc

    def wrap(self, name: str, fn, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            loc = tracer._thread()
            stack = loc.stack
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            failed = False
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                rec = loc.totals.get(name)
                if rec is None:
                    rec = loc.totals[name] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += dur
                rec[3] += failed
                if extra is not None and not failed:
                    rec[4] += extra(args, kwargs, out)
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((name, start, end, frame[0], parent,
                                         tracer.op))
                else:
                    tracer.dropped += 1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def totals(self) -> dict:
        """name -> [calls, self_s, inclusive_s, failed, extra] over threads."""
        merged = {}
        with self._lock:
            tables = list(self._thread_totals)
        for table in tables:
            for name, rec in list(table.items()):
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for k in range(5):
                    acc[k] += rec[k]
        return merged

    def reset(self):
        with self._lock:
            for table in self._thread_totals:
                table.clear()

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, new):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the traced names in every loaded pnspredict module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("numpy")
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "pnspredict"
                                             or n.startswith("pnspredict."))]
        for modname, members in LAYERS.items():
            mod = importlib.import_module(f"pnspredict.{modname}")
            for name in members:
                obj = getattr(mod, name, None)
                if isinstance(obj, type):
                    self._patch(obj, "__init__",
                                self.wrap(f"{modname}.{name}.init", obj.__init__))
                elif callable(obj):
                    self._wrap_function(pkg_modules, f"{modname}.{name}", obj)
        for modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(f"pnspredict.{modname}"),
                          clsname, None)
            if cls is not None and meth in vars(cls):
                extra = _points if meth == "eval" else _nonzero
                self._patch(cls, meth, self.wrap(f"{modname}.{clsname}.{meth}",
                                                 vars(cls)[meth], extra))
        modname, name = SIMPSON_PASS
        obj = getattr(importlib.import_module(f"pnspredict.{modname}"), name, None)
        if callable(obj):
            self._wrap_function(pkg_modules, f"{modname}.{name}", obj)
        cli = sys.modules.get("pnspredict.cli")
        if cli is not None:
            for sub in SUBCOMMANDS:
                cmd = cli.main.commands.get(sub)
                if cmd is not None:
                    self._patch(cmd, "callback",
                                self.wrap(f"cli.{sub}", cmd.callback))

    def _wrap_function(self, modules, name, fn):
        wrapped = self.wrap(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ----------------------------------------------------------

    def dump(self, path):
        """Write the spans (JSON lines) and the per-name totals (JSON)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans.jsonl"), "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        doc = {"totals": self.totals(), "spans": len(self.spans),
               "dropped": self.dropped}
        path.write_text(json.dumps(doc) + "\n")


def merge_totals(into: dict, other: dict, scale: float = 1.0):
    for name, rec in other.items():
        acc = into.setdefault(name, [0, 0.0, 0.0, 0, 0])
        for k in range(5):
            acc[k] += scale * rec[k]


def per_layer_metrics(totals: dict, wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values from merged totals (see per_layer_metric_units)."""

    def rec(name):
        return totals.get(name, [0, 0.0, 0.0, 0, 0])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in traced_names():
        r = rec(name)
        out[f"{name}.calls"] = r[0]
        out[f"{name}.self_s"] = r[1]
    for kind in EVAL_KINDS:
        r = rec(f"generators.{kind}.eval")
        out[f"generators.{kind}.eval.ns_per_point"] = 1e9 * ratio(r[1], r[4])
        out[f"generators.{kind}.eval.points_per_call"] = ratio(r[4], r[0])
    r = rec("prediction.PredictionScheme.kernel")
    out["prediction.PredictionScheme.kernel.nonzero_frac"] = ratio(r[4], r[0])
    out["approximation.lp_error.passes_per_call"] = ratio(
        rec("approximation._lp_once")[0], rec("approximation.lp_error")[0])
    built = rec("kernels.build_kernels")
    out["kernels.accept_frac"] = ratio(built[0] - built[3],
                                       rec("polyphase.build_polyphase")[0])
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = rec(f"cli.{sub}")[2]
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = wall - untraced_wall
    return out
