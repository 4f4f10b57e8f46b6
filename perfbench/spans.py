"""Span tracing installed from outside the package, and per-layer metrics.

``install`` replaces public callables of the cayley8 layers with wrappers
that record one span per call: (id, parent id, name, start ns, end ns).
Wrappers go wherever callers look the name up at call time: ``KForm``
methods on the class, module attributes, and the names that other modules
imported by name.  Spans stay in memory; ``write`` dumps them at the end
and ``layer_metrics`` reduces them to the per-layer metrics of
``BENCHMARK.json``.  A layer's self time is its span duration minus the
durations of its child spans (children nest inside the parent on the same
thread, so they never overlap each other).
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from fractions import Fraction

#: Counters kept beside the spans: name -> (unit, how processes merge).
_COUNTERS = {
    "spin7.build_model.calls": ("count", "sum"),
    "spin7.build_model.exact_s": ("s", "sum"),
    "spin7.build_model.float_s": ("s", "sum"),
    "calib.sweep.planes": ("count", "sum"),
    "calib.comass.restarts": ("count", "sum"),
    "calib.comass.best_iterations": ("count", "sum"),
    "calib.comass.value_err_max": ("abs", "max"),
}

#: Every per-layer metric with its unit, in BENCHMARK.json order.  Names
#: ending in ``.calls``/``.self_s`` come from the span of that name; the
#: rest are counters, the CLI import time and the tracing overhead.  The
#: ``_linalg`` module's spans are named ``linalg.*`` (a metric name starts
#: with a letter or digit).
LAYER_METRICS = {}
for _op in ("wedge", "hodge", "contract", "evaluate", "inner"):
    LAYER_METRICS.update({f"multivec.{_op}.calls": "count",
                          f"multivec.{_op}.self_s": "s"})
for _op in ("nullspace", "orthogonalize", "independent_rows",
            "orthonormal_columns"):
    LAYER_METRICS.update({f"linalg.{_op}.calls": "count",
                          f"linalg.{_op}.self_s": "s"})
LAYER_METRICS.update({name: unit for name, (unit, _) in _COUNTERS.items()
                      if name.startswith("spin7.")})
for _op in ("cross2", "cross3", "tau"):
    LAYER_METRICS.update({f"spin7.{_op}.calls": "count",
                          f"spin7.{_op}.self_s": "s"})
LAYER_METRICS.update({
    "g2.build_g2.calls": "count",
    "g2.build_g2.self_s": "s",
    "dirac.build_cayley_model.self_s": "s",
    "dirac.clifford_check.self_s": "s",
    "dirac.sl_symbol_intertwine.self_s": "s",
    "dirac.coassoc_symbol_intertwine.self_s": "s",
    "dirac.symbol_D.calls": "count",
    "calib.sweep.planes": "count",
    "calib.sweep.self_s": "s",
    "calib.comass.restarts": "count",
    "calib.comass.self_s": "s",
    "calib.comass.best_iterations": "count",
    "calib.comass.value_err_max": "abs",
    "calib.frames.self_s": "s",
    "calib.cayley_test.calls": "count",
    "calib.cayley_test.self_s": "s",
    "verify.run_suite.self_s": "s",
    "index.evaluate_index.calls": "count",
    "index.evaluate_index.self_s": "s",
    "surgery.evaluate_surgery.calls": "count",
    "surgery.evaluate_surgery.self_s": "s",
    "reproduce.run_example.calls": "count",
    "reproduce.run_example.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
})


def _is_exact_form(phi) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in phi.coeffs.values())


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self):
        self.spans = []
        self.counters = {name: 0 for name in _COUNTERS}
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None):
        """A wrapper recording a span per call; ``after(counters, args,
        kwargs, result, duration_s)`` updates counters once the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(self.counters, args, kwargs, result, (t1 - t0) * 1e-9)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """Dump the spans as gzipped JSON lines [id, parent, name, t0_ns, t1_ns]."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def aggregate(self) -> dict:
        """Per-name call counts and self times plus the counters."""
        child_ns = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        calls, self_s = {}, {}
        for sid, _, name, t0, t1 in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_ns.get(sid, 0)) * 1e-9
        return {"calls": calls, "self_s": self_s, "counters": dict(self.counters)}


# -- counters attached to particular wrappers -------------------------------------


def _after_build_model(counters, args, kwargs, result, duration):
    phi = args[0] if args else kwargs["phi"]
    counters["spin7.build_model.calls"] += 1
    key = "exact_s" if _is_exact_form(phi) else "float_s"
    counters[f"spin7.build_model.{key}"] += duration


def _after_sweep(counters, args, kwargs, result, duration):
    frames = args[1] if len(args) > 1 else kwargs["frames"]
    counters["calib.sweep.planes"] += int(frames.shape[0])


def _after_comass(counters, args, kwargs, result, duration):
    counters["calib.comass.restarts"] += result.restarts
    counters["calib.comass.best_iterations"] += result.iterations
    counters["calib.comass.value_err_max"] = max(
        counters["calib.comass.value_err_max"], abs(result.value - 1.0))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every cayley8 layer in spans."""
    from cayley8 import (_linalg, calib, cli, dirac, g2, index, multivec,
                         reproduce, spin7, surgery, verify)

    def wrap_attr(module, attr, name, after=None, also=()):
        wrapper = tracer.wrap(name, getattr(module, attr), after)
        for target in (module,) + tuple(also):
            setattr(target, attr, wrapper)

    for method in ("wedge", "hodge", "contract", "evaluate", "inner"):
        wrap_attr(multivec.KForm, method, f"multivec.{method}")
    # the module-level wedge/hodge/contract/inner forward to the methods
    # above; flat and restrict do their own work, so they get spans too
    wrap_attr(multivec, "flat", "multivec.flat", also=(verify,))
    wrap_attr(multivec, "restrict", "multivec.restrict", also=(calib, verify))

    for attr in ("nullspace", "independent_rows", "orthonormal_columns"):
        wrap_attr(_linalg, attr, f"linalg.{attr}")
    wrap_attr(_linalg, "orthogonalize", "linalg.orthogonalize", also=(dirac,))
    wrap_attr(spin7, "build_model", "spin7.build_model", _after_build_model)
    wrap_attr(spin7, "cross3", "spin7.cross3")
    wrap_attr(spin7, "cross2", "spin7.cross2", also=(dirac,))
    wrap_attr(spin7, "tau", "spin7.tau", also=(dirac, calib))
    wrap_attr(g2, "build_g2", "g2.build_g2")
    for attr in ("build_cayley_model", "clifford_check", "sl_symbol_intertwine",
                 "coassoc_symbol_intertwine", "symbol_D"):
        wrap_attr(dirac, attr, f"dirac.{attr}")
    wrap_attr(calib.CayleySweep, "__call__", "calib.sweep", _after_sweep)
    wrap_attr(calib, "comass_estimate", "calib.comass", _after_comass)
    wrap_attr(calib, "random_orthonormal_frames", "calib.frames")
    wrap_attr(calib, "cayley_test", "calib.cayley_test")
    wrap_attr(verify, "run_suite", "verify.run_suite")
    wrap_attr(index, "evaluate_index", "index.evaluate_index")
    wrap_attr(surgery, "evaluate_surgery", "surgery.evaluate_surgery")
    wrap_attr(reproduce, "run_example", "reproduce.run_example")
    wrap_attr(cli, "main", "cli.main")


# -- merging processes into metrics -----------------------------------------------


def merge(parts) -> dict:
    """Merge the ``aggregate`` dicts of several processes."""
    total = {"calls": {}, "self_s": {}, "counters": {}}
    for part in parts:
        for key in ("calls", "self_s"):
            for name, value in part[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, value in part["counters"].items():
            how = _COUNTERS[name][1]
            prev = total["counters"].get(name, 0)
            total["counters"][name] = max(prev, value) if how == "max" else prev + value
    return total


def layer_metrics(merged: dict, import_s, overhead_ratio: float) -> dict:
    """Every per-layer metric as {"value", "unit"}; untouched layers read 0."""
    out = {}
    for name, unit in LAYER_METRICS.items():
        span, _, kind = name.rpartition(".")
        if name in _COUNTERS:
            value = merged["counters"].get(name, 0)
        elif kind == "calls":
            value = merged["calls"].get(span, 0)
        elif kind == "self_s":
            value = merged["self_s"].get(span, 0.0)
        elif name == "cli.import_s":
            value = statistics.median(import_s) if import_s else 0.0
        else:
            value = overhead_ratio
        out[name] = {"value": value, "unit": unit}
    return out
