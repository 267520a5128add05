"""Out-of-program tracing of the paretopool layers.

The tracer wraps, from outside, every public function of the traced modules
in every ``paretopool`` namespace that imported it, a few public methods, the
``linprog`` entry point the centralized solver imported (the HiGHS span) and
the thread pool of the sweep.  Each wrapper records one span: name, parent,
wall interval (``perf_counter``) and the thread CPU time (``thread_time``) of
the thread it ran on.  Spans stay in memory; :meth:`Tracer.op_metrics` folds
them into per-op metrics and the caller writes the raw spans out at the end.

Parenting: every thread keeps its own span stack.  A task submitted to the
sweep's pool opens a ``cli.sweep_point`` span whose parent is the span open
in the submitting thread, so pool work stays inside the op's tree.  A span
opened on any other thread with an empty stack is parented to the open root
span (the op's ``cli.main``).

``paretopool.oracle`` is test-only and never traced.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("ingest", "distortion", "riskmeasure", "posolver",
                  "centralized", "cli")
UNTRACED_MODULES = ("paretopool.oracle",)

# (module, class, method, span name)
TRACED_METHODS = (
    ("distortion", "Distortion", "__call__", "distortion.eval"),
    ("posolver", "LayerAllocation", "coverage", "posolver.coverage"),
    ("posolver", "LayerAllocation", "profiles", "posolver.profiles"),
    ("centralized", "CentralizedContract", "indemnity", "centralized.indemnity"),
    ("centralized", "CentralizedContract", "indemnity_profiles",
     "centralized.indemnity_profiles"),
)


def _digest(arr) -> bytes:
    import numpy as np
    return hashlib.blake2b(np.ascontiguousarray(arr, dtype=float).tobytes(),
                           digest_size=16).digest()


# -- per-span attribute capture (runs after the span's clocks stop) ----------


def _parse_attrs(args, kwargs, result):
    _, report = result
    return {"rows": report.total_rows, "rejected": len(report.rejected)}


def _eval_attrs(args, kwargs, result):
    import numpy as np
    return {"points": int(np.size(args[1]))}


def _choquet_attrs(args, kwargs, result):
    space, values, d = args[:3]
    return {"key": (_digest(values), _digest(space.weights), d)}


def _grid_attrs(args, kwargs, result):
    S, beliefs = args[:2]
    layers = result.layer_count
    return {"layers": layers, "cells": len(beliefs) * layers * len(S)}


def _robust_attrs(args, kwargs, result):
    return {"combos": math.prod(len(a.distortions) for a in args[0])}


def _linprog_attrs(args, kwargs, result):
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    rows = sum(a.shape[0] for a in (a_ub, a_eq) if a is not None)
    nnz = sum(int(getattr(a, "nnz", 0)) for a in (a_ub, a_eq) if a is not None)
    c = args[0] if args else kwargs["c"]
    return {"rows": rows, "cols": len(c), "nnz": nnz, "nit": int(result.nit),
            "method": kwargs.get("method", "highs")}


ATTRS = {
    "ingest.parse_losses": _parse_attrs,
    "distortion.eval": _eval_attrs,
    "riskmeasure.choquet": _choquet_attrs,
    "posolver.layer_decomposition": _grid_attrs,
    "posolver.solve_robust": _robust_attrs,
    "centralized.highs": _linprog_attrs,
}


class Tracer:
    """Installs span-recording wrappers and folds spans into metrics."""

    def __init__(self) -> None:
        # span: [id, parent, name, t0, t1, c0, c1, attrs]
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else self._root

    def run_span(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        elif parent is None and threading.current_thread() is not threading.main_thread():
            parent = self._root
        sid = next(self._ids)
        if parent is None:
            self._root = sid
        stack.append(sid)
        result = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            capture = ATTRS.get(name)
            attrs = capture(args, kwargs, result) if capture and result is not None else None
            self.spans.append([sid, parent, name, t0, t1, c0, c1, attrs])

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.run_span(name, fn, args, kwargs)
        return wrapper

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    return tracer.run_span("cli.sweep_point", fn, a, k, parent=parent)
                return super().submit(task, *args, **kwargs)
        return TracedPool

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced layers; the program's outputs are unchanged."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"paretopool.{short}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if (key == "paretopool" or key.startswith("paretopool."))
                      and key not in UNTRACED_MODULES]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        for short, cls_name, meth, span in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"paretopool.{short}"), cls_name)
            self._set(cls, meth, self._wrap(span, vars(cls)[meth]))
        central = importlib.import_module("paretopool.centralized")
        self._set(central, "linprog", self._wrap("centralized.highs", central.linprog))
        cli = importlib.import_module("paretopool.cli")
        self._set(cli, "ThreadPoolExecutor", self._pool_class(cli.ThreadPoolExecutor))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- folding spans into metrics --------------------------------------------

    def op_metrics(self) -> list[dict[str, float]]:
        """One metrics dict per root span (one CLI op), in op order."""
        by_id = {s[0]: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append(s)

        def root_of(s):
            while s[1] is not None:
                s = by_id[s[1]]
            return s[0]

        ops: dict[int, list] = defaultdict(list)
        for s in self.spans:
            ops[root_of(s)].append(s)
        return [_fold(ops[r], children) for r in sorted(ops)]


def _covered(lo: float, hi: float, kids) -> float:
    """Length of [lo, hi] covered by the union of the child intervals."""
    total, end = 0.0, lo
    for a, b in sorted((max(k[3], lo), min(k[4], hi)) for k in kids):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _fold(spans, children) -> dict[str, float]:
    calls = defaultdict(int)
    self_s = defaultdict(float)
    wall = defaultdict(float)
    cpu = defaultdict(float)
    attrs = defaultdict(list)
    lp_build = 0.0
    for s in spans:
        sid, _, name, t0, t1, c0, c1, a = s
        calls[name] += 1
        self_s[name] += (t1 - t0) - _covered(t0, t1, children.get(sid, ()))
        wall[name] += t1 - t0
        cpu[name] += c1 - c0
        if a is not None:
            attrs[name].append(a)
        if name == "centralized.solve_measure_lp":
            lp_build += (t1 - t0) - sum(k[4] - k[3] for k in children.get(sid, ())
                                        if k[2] == "centralized.highs")

    def total(name, key):
        return sum(a[key] for a in attrs[name])

    def biggest(name, key):
        return max((a[key] for a in attrs[name]), default=0)

    rows = total("ingest.parse_losses", "rows")
    choquet_calls = calls["riskmeasure.choquet"]
    distinct = len({a["key"] for a in attrs["riskmeasure.choquet"]})
    sweep_wall = wall["cli.sweep_rows"]
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update({
        "ingest.rows": rows,
        "ingest.rejected": total("ingest.parse_losses", "rejected"),
        "ingest.us_per_row": 1e6 * self_s["ingest.parse_losses"] / rows if rows else 0.0,
        "distortion.eval.points": total("distortion.eval", "points"),
        "riskmeasure.choquet.distinct_ratio": distinct / choquet_calls if choquet_calls else 0.0,
        "posolver.layers": biggest("posolver.layer_decomposition", "layers"),
        "posolver.layer_cells": total("posolver.layer_decomposition", "cells"),
        "posolver.coverage.self_s": self_s["posolver.coverage"] + self_s["posolver.profiles"],
        "posolver.robust_combos": total("posolver.solve_robust", "combos"),
        "centralized.lp_build.self_s": lp_build,
        "centralized.lp_rows": biggest("centralized.highs", "rows"),
        "centralized.lp_cols": biggest("centralized.highs", "cols"),
        "centralized.lp_nnz": biggest("centralized.highs", "nnz"),
        "centralized.lp_nit": total("centralized.highs", "nit"),
        "centralized.highs.wait_s": wall["centralized.highs"] - cpu["centralized.highs"],
        # The CLI's own work on the op's thread: config parsing, market
        # assembly, output formatting and writing.  The sweep's self time
        # is waiting on its pool; the pool tasks run the grid points.
        "cli.main.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")
                               and k not in ("cli.sweep_rows", "cli.sweep_point")),
        "cli.sweep_rows.parallelism": wall["cli.sweep_point"] / sweep_wall if sweep_wall else 0.0,
        "cli.sweep_rows.wait_s": wall["cli.sweep_point"] - cpu["cli.sweep_point"],
    })
    return out


@contextlib.contextmanager
def probe_linprog():
    """Record how the centralized solver calls ``linprog`` inside the block.

    Used around the untimed warm-up op, so a run's record names the LP
    method without tracing the timed ops.
    """
    central = importlib.import_module("paretopool.centralized")
    original, seen = central.linprog, []

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(_linprog_attrs(args, kwargs, result))
        return result
    central.linprog = spy
    try:
        yield seen
    finally:
        central.linprog = original
