"""Span tracing of cpdist from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever another cpdist module imported the name, plus
``RationalMatrix.__mul__`` (matrix operands only) and
``StructuredBlockForm.materialize``.  Garbage-collector pauses arrive through
``gc.callbacks`` and become spans of the ``runtime`` layer.  Spans stay in
memory with their parent id; ``uninstall`` restores every original.

Self time is a span's duration minus the durations of its direct children,
so time spent in helpers that are not wrapped (``rational_str``, argparse,
``RationalMatrix.__eq__``) lands on the nearest wrapped caller.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "closed_form", "graphs", "spectra", "suites")
# Per-entry helpers are called millions of times per pass; a span each would
# cost more than the work, so their time shows on the caller.
UNWRAPPED = {"rational_str"}
KERNELS = ("linalg.det_exact", "linalg.inverse_exact", "linalg.char_poly_exact", "linalg.matmul")


def _shape(value):
    if hasattr(value, "rows") and hasattr(value, "cols"):
        return (value.rows, value.cols)
    if hasattr(value, "vertex_count"):
        return value.vertex_count
    if isinstance(value, (int, str)):
        return value
    return type(value).__name__


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # (id, parent id, name, start, end, params)
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo = []
        self._gc_start = None

    # -- recording ---------------------------------------------------------

    def call(self, name, params, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        sid = next(self._ids)
        stack = self._stack
        parent = stack[-1]
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, params))

    def _wrap(self, name, fn, params_of=None):
        call = self.call

        def wrapper(*args, **kwargs):
            params = params_of(args) if params_of else tuple(_shape(a) for a in args)
            return call(name, params, fn, *args, **kwargs)

        return wrapper

    def _on_gc(self, phase, info):
        # Only collections inside an op count; the benchmark's own
        # collections between ops run with no span open.
        if len(self._stack) == 1:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.spans.append((next(self._ids), self._stack[-1], "runtime.gc",
                               self._gc_start, perf_counter(), (info["generation"],)))
            self._gc_start = None

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [
            getattr(self.package, attr) for attr in dir(self.package)
            if inspect.ismodule(getattr(self.package, attr))
        ] + [self.package]
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    if vars(other).get(attr) is fn:
                        self._rebind(other, attr, wrapper)

        matrix = self.package.linalg.RationalMatrix
        mul = matrix.__mul__
        matmul = self._wrap("linalg.matmul", mul, lambda a: (a[0].rows, a[0].cols, a[1].cols))

        def traced_mul(left, right):
            if isinstance(right, matrix):
                return matmul(left, right)
            return mul(left, right)

        self._rebind(matrix, "__mul__", traced_mul)
        form = self.package.closed_form.StructuredBlockForm
        self._rebind(form, "materialize", self._wrap(
            "closed_form.materialize", form.materialize, lambda a: (a[0].order,)))
        gc.callbacks.append(self._on_gc)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, params in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end,
                                         "params": list(params)}) + "\n")


def self_times(spans):
    """(name, params, duration, self time) for each span."""
    children = defaultdict(float)
    for _sid, parent, _name, start, end, _params in spans:
        children[parent] += end - start
    return [(name, params, end - start, end - start - children[sid])
            for sid, _parent, name, start, end, params in spans]


def layer_metrics(rows, extra_counts):
    """Aggregate one pass's spans into per-layer metrics.

    ``rows`` come from ``self_times``; ``extra_counts`` carries counts
    the benchmark measured itself (cells run, bytes written)."""
    out = defaultdict(float)
    by_order = defaultdict(float)
    for name, params, duration, self_s in rows:
        key = name
        if name == "suites.run_suite":
            key = f"{name}.{params[0]}"
        out[f"{key}.calls"] += 1
        out[f"{key}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
        if name == "linalg.matmul":
            rows_, inner, cols = params
            out["linalg.matmul.mul_adds"] += rows_ * inner * cols
        elif name == "linalg.inverse_exact":
            out["linalg.inverse_exact.order3"] += params[0][0] ** 3
        elif name == "closed_form.materialize":
            out["closed_form.materialize.entries"] += params[0] ** 2
        elif name == "runtime.gc":
            out["runtime.gc.collections"] += 1
            out["runtime.gc.pause_s"] += duration
        if name in KERNELS:
            order = params[0] if name == "linalg.matmul" else params[0][0]
            by_order[f"{name}@{order}"] += self_s
    out.update(extra_counts)
    return dict(out), dict(by_order)
