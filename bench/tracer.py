"""Spans around gmtkit's public functions, recorded from outside the package.

`install()` replaces each public function named in TARGETS, in every gmtkit
module namespace that holds it (``gmtkit.cli.build_frostman`` and
``gmtkit.frostman.build_frostman`` alike), with a wrapper that records a span:
name, start, end, thread and parent span.  Spans stay in memory until the
worker writes them out.  A span opened on a pool thread with no open span of
its own takes the main thread's innermost open span as parent, so the
witness pool's `find_hole` calls nest under `witness_unrectifiability`.

A layer's self time is the sum over its spans of the span's length minus the
part of it that its child spans cover.  Spans on two threads can run at
once, so a pooled function's self time is busy time summed over threads.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from pathlib import Path

# (layer, defining module, function, counters taken from its result)
TARGETS = [
    ("frostman", "gmtkit.frostman", "build_frostman", None),
    ("frostman", "gmtkit.frostman", "verify_frostman", lambda r: {"saturated_cubes": r.saturated_count}),
    ("frostman", "gmtkit.frostman", "ball_frostman_check", None),
    ("content", "gmtkit.content", "dyadic_cover_cost", lambda r: {"cover_cubes": len(r.cover)}),
    ("content", "gmtkit.content", "measure_profile", None),
    (
        "sparsify",
        "gmtkit.sparsify",
        "build_sparse_construction",
        lambda r: {"nodes": len(r.result.nodes), "windows": len(r.result.windows)},
    ),
    ("sparsify", "gmtkit.sparsify", "verify_sparse_construction", None),
    ("sparsify", "gmtkit.sparsify", "estimate_c0", None),
    ("sparsify", "gmtkit.sparsify", "witness_unrectifiability", lambda r: {"witness_jobs": r.samples}),
    ("sparsify", "gmtkit.sparsify", "find_hole", None),
    ("sparsify", "gmtkit.sparsify", "distance_to_family", None),
    ("beta", "gmtkit.beta", "content_beta", None),
    ("beta", "gmtkit.beta", "square_function", None),
    ("carleson", "gmtkit.carleson", "epsilon_report", None),
    ("carleson", "gmtkit.carleson", "epsilon_square_function", None),
    ("cli", "gmtkit.cli", "write_bundle", None),
    ("utils", "gmtkit.utils", "write_canonical", lambda r: {"canonical_bytes": Path(r).stat().st_size}),
]
# functions whose process CPU time (all threads) is recorded beside wall time
CPU_TIMED = {"witness_unrectifiability"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, thread, name, start, end, counters)
        self.counts = {"gauge.calls": itertools.count(), "beta.content_calls": itertools.count()}
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, measure=None):
        cpu = name in CPU_TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            counters = {}
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if cpu:
                    counters["cpu_s"] = time.process_time() - c0
                stack.pop()
                self.spans.append((sid, parent, threading.get_ident(), name, t0, t1, counters))
            if measure is not None:
                counters.update(measure(result))
            return result

        return traced

    def counting(self, key: str, fn):
        counter = self.counts[key]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(counter)  # one C call, atomic under the interpreter lock
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        from gmtkit.beta import content
        from gmtkit.gauge import Gauge
        from gmtkit.lattice import CellSet
        from gmtkit.sparsify import SparseMeasure

        modules = [m for name, m in sys.modules.items() if name == "gmtkit" or name.startswith("gmtkit.")]
        for layer, module, name, measure in TARGETS:
            orig = getattr(sys.modules[module], name)
            wrapped = self.wrap(name, orig, measure)
            for mod in modules:
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapped)
        load = self.wrap("load", CellSet.load, lambda r: {"input_cells": len(r.cells)})
        CellSet.load = staticmethod(load)
        for name in ("sample_support_points", "support_sample_cells"):
            setattr(SparseMeasure, name, self.wrap(name, getattr(SparseMeasure, name)))
        Gauge.__call__ = self.counting("gauge.calls", Gauge.__call__)
        sys.modules["gmtkit.beta"].content = self.counting("beta.content_calls", content)

    def layer_metrics(self) -> dict:
        """Self time per function, call counts and summed counters, by metric name."""
        layer_of = {name: layer for layer, _, name, _ in TARGETS}
        layer_of.update(load="lattice", sample_support_points="sparsify", support_sample_cells="sparsify")
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _, _, t0, t1, _ in self.spans:
            children.setdefault(parent, []).append((t0, t1))
        out: dict[str, float] = {}
        for sid, _, _, name, t0, t1, counters in self.spans:
            layer = layer_of[name]
            key = f"{layer}.{name}"
            covered = _covered(t0, t1, children.get(sid, []))
            out[f"{key}_s"] = out.get(f"{key}_s", 0.0) + (t1 - t0 - covered)
            out[f"{key}_calls"] = out.get(f"{key}_calls", 0) + 1
            for cname, value in counters.items():
                metric = f"{key}_{cname}" if cname == "cpu_s" else f"{layer}.{cname}"
                out[metric] = out.get(metric, 0) + value
        for key, counter in self.counts.items():
            out[key] = next(counter)  # the counter's next value is the number of calls so far
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "thread": thread, "name": name, "start": t0, "end": t1, **counters}
            for sid, parent, thread, name, t0, t1, counters in self.spans
        ]


def _covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [t0, t1] covered by the union of the intervals."""
    total, reach = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total
