"""Per-layer tracing of hankelkit from outside the package.

``Tracer.install`` wraps public functions and methods of each hankelkit module
and rebinds every module attribute that referred to the original, so a call
made through a name another module imported (``groebner`` imports
``nullspace`` and ``mono_divides``) is traced too.  Two kinds of wrapper:

* a span records name, parent span, pass, cell, start and end; spans stay in
  memory and ``write`` dumps them when the run ends.  A span opened inside a
  span of the same name is folded into it (``SpanEchelon.insert`` calls
  ``reduce``);
* a counter only counts, for functions called millions of times per cell
  (monomial order keys and divisibility), where a span would cost more than
  the call.

A pass is one set-up fill or one timed round of a workload's cells.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

# module -> [(attribute path, span name)]
SPANS = {
    "polyring": [("Polynomial.__mul__", "polyring.poly_mul")],
    "groebner": [("buchberger", "groebner.buchberger"),
                 ("radical_membership", "groebner.radical_membership"),
                 ("elimination", "groebner.elimination"),
                 ("ideal_equal", "groebner.ideal_equal"),
                 ("normal_form", "groebner.normal_form")],
    "linalg": [("nullspace", "linalg.nullspace"),
               ("SpanEchelon.reduce", "linalg.span_echelon"),
               ("SpanEchelon.insert", "linalg.span_echelon"),
               ("SpanEchelon.contains", "linalg.span_echelon"),
               ("SpanEchelon.insert_poly", "linalg.span_echelon"),
               ("SpanEchelon.contains_poly", "linalg.span_echelon"),
               ("SpanEchelon.basis_rows", "linalg.span_echelon"),
               ("solve_consistent", "linalg.solve_consistent"),
               ("poly_matrix_rank", "linalg.poly_matrix_rank")],
    "symmatrix": [("SymMatrix.determinant", "symmatrix.determinant"),
                  ("SymMatrix.minors", "symmatrix.minors")],
    "gradient": [("gradient", "gradient.gradient"),
                 ("cofactor_decomposition_check", "gradient.cofactor_decomposition_check"),
                 ("hessian", "gradient.hessian")],
    "minorposet": [("fiber_kernel_compare", "minorposet.fiber_kernel_compare"),
                   ("pluecker_relations", "minorposet.pluecker_relations"),
                   ("derivative_level_decomposition",
                    "minorposet.derivative_level_decomposition")],
    "cache": [("GroebnerCache.get", "cache.get"), ("GroebnerCache.put", "cache.put")],
    "cli": [("execute", "cli.execute")],
}

# (metric, unit, kind, key, phase): kind "calls", "s" and "self_s" read spans
# named key; "count" reads a counter.  Phase "timed" takes the median over the
# timed rounds, "setup" over the set-up fills (0 when a workload has none).
PER_LAYER = [
    ("polyring.order_key.calls", "count", "count", "polyring.order_key", "timed"),
    ("polyring.mono_divides.calls", "count", "count", "polyring.mono_divides", "timed"),
    ("polyring.poly_mul.calls", "count", "calls", "polyring.poly_mul", "timed"),
    ("polyring.poly_mul.s", "s", "s", "polyring.poly_mul", "timed"),
    ("groebner.buchberger.calls", "count", "calls", "groebner.buchberger", "timed"),
    ("groebner.buchberger.s", "s", "s", "groebner.buchberger", "timed"),
    ("groebner.buchberger.self_s", "s", "self_s", "groebner.buchberger", "timed"),
    ("groebner.pairs_processed", "count", "count", "groebner.pairs_processed", "timed"),
    ("groebner.basis_size", "count", "count", "groebner.basis_size", "timed"),
    ("groebner.radical_membership.s", "s", "s", "groebner.radical_membership", "timed"),
    ("groebner.elimination.s", "s", "s", "groebner.elimination", "timed"),
    ("groebner.ideal_equal.s", "s", "s", "groebner.ideal_equal", "timed"),
    ("groebner.normal_form.s", "s", "s", "groebner.normal_form", "timed"),
    ("linalg.nullspace.s", "s", "s", "linalg.nullspace", "timed"),
    ("linalg.nullspace.cells", "count", "count", "linalg.nullspace.cells", "timed"),
    ("linalg.span_echelon.s", "s", "s", "linalg.span_echelon", "timed"),
    ("linalg.solve_consistent.s", "s", "s", "linalg.solve_consistent", "timed"),
    ("linalg.poly_matrix_rank.s", "s", "s", "linalg.poly_matrix_rank", "timed"),
    ("symmatrix.determinant.calls", "count", "calls", "symmatrix.determinant", "timed"),
    ("symmatrix.determinant.s", "s", "s", "symmatrix.determinant", "timed"),
    ("symmatrix.minors.s", "s", "s", "symmatrix.minors", "timed"),
    ("gradient.gradient.s", "s", "s", "gradient.gradient", "timed"),
    ("gradient.cofactor_decomposition_check.calls", "count", "calls",
     "gradient.cofactor_decomposition_check", "timed"),
    ("gradient.cofactor_decomposition_check.s", "s", "s",
     "gradient.cofactor_decomposition_check", "timed"),
    ("gradient.hessian.s", "s", "s", "gradient.hessian", "timed"),
    ("minorposet.fiber_kernel_compare.self_s", "s", "self_s",
     "minorposet.fiber_kernel_compare", "timed"),
    ("minorposet.pluecker_relations.s", "s", "s", "minorposet.pluecker_relations", "timed"),
    ("minorposet.derivative_level_decomposition.s", "s", "s",
     "minorposet.derivative_level_decomposition", "timed"),
    ("cache.get.calls", "count", "calls", "cache.get", "timed"),
    ("cache.get.s", "s", "s", "cache.get", "timed"),
    ("cache.hits", "count", "count", "cache.hits", "timed"),
    ("cache.misses", "count", "count", "cache.misses", "timed"),
    ("cache.bytes_read", "B", "count", "cache.bytes_read", "timed"),
    ("cache.put.calls", "count", "calls", "cache.put", "setup"),
    ("cache.put.s", "s", "s", "cache.put", "setup"),
    ("cli.execute.calls", "count", "calls", "cli.execute", "timed"),
    ("cli.execute.self_s", "s", "self_s", "cli.execute", "timed"),
]


def _buchberger_stats(tracer, args, result):
    tracer.counts["groebner.pairs_processed"] += result.stats.get("pairs_processed", 0)
    tracer.counts["groebner.basis_size"] += result.stats.get("basis_size", 0)


def _nullspace_cells(tracer, args, result):
    rows, ncols = args[0], args[1]
    tracer.counts["linalg.nullspace.cells"] += len(rows) * ncols


def _cache_outcome(tracer, args, result):
    tracer.counts["cache.misses" if result is None else "cache.hits"] += 1


AFTER = {"groebner.buchberger": _buchberger_stats,
         "linalg.nullspace": _nullspace_cells,
         "cache.get": _cache_outcome}


def _resolve(module, path: str):
    owner = module
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, parent index, pass, cell, start_ns, end_ns)
        self.stack: list = []       # open spans: (name, index)
        self.passes: list = []      # (phase, label)
        self.cells: list = []
        self.pass_counts: list = []
        self.counts = defaultdict(int)
        self.pass_index = -1
        self.cell_index = -1
        self._hot: dict = {}        # counter name -> one-element list

    # -- wrapping ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the functions of ``modules`` (short name -> module), e.g. a
        freshly imported hankelkit."""
        for short, entries in SPANS.items():
            for path, name in entries:
                owner, attr = _resolve(modules[short], path)
                original = getattr(owner, attr)
                wrapper = self._span(original, name, AFTER.get(name))
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                else:
                    _rebind(modules.values(), original, wrapper)
        polyring = modules["polyring"]
        for cls in vars(polyring).values():
            if (isinstance(cls, type) and issubclass(cls, polyring.MonomialOrder)
                    and "key" in vars(cls)):
                cls.key = self._counter(cls.key, "polyring.order_key")
        _rebind(modules.values(), polyring.mono_divides,
                self._counter(polyring.mono_divides, "polyring.mono_divides"))
        cache_cls = modules["cache"].GroebnerCache
        load = cache_cls._load

        @functools.wraps(load)
        def counted_load(obj, path, fld):
            self.counts["cache.bytes_read"] += os.path.getsize(path)
            return load(obj, path, fld)

        cache_cls._load = counted_load

    def _span(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((name, idx))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                parent = stack[-1][1] if stack else -1
                tracer.spans[idx] = (name, parent, tracer.pass_index,
                                     tracer.cell_index, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapped

    def _counter(self, fn, name: str):
        box = self._hot.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            box[0] += 1
            return fn(*args)

        return counted

    # -- passes --------------------------------------------------------------

    def _flush(self) -> None:
        for name, box in self._hot.items():
            self.counts[name] += box[0]
            box[0] = 0

    def begin_pass(self, phase: str, label: str) -> None:
        self._flush()
        self.counts = defaultdict(int)
        self.pass_counts.append(self.counts)
        self.passes.append((phase, label))
        self.pass_index = len(self.passes) - 1

    def begin_cell(self, label: str) -> None:
        if label not in self.cells:
            self.cells.append(label)
        self.cell_index = self.cells.index(label)

    def end(self) -> None:
        self._flush()
        self.counts = defaultdict(int)
        self.pass_index = -1

    # -- results -------------------------------------------------------------

    def _pass_stats(self) -> list:
        """Per pass: {(kind, name): value} for spans and counters."""
        stats = [defaultdict(float) for _ in self.passes]
        child = defaultdict(int)
        for name, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, parent, pass_index, _, start, end) in enumerate(self.spans):
            if pass_index < 0:
                continue
            s = stats[pass_index]
            s[("calls", name)] += 1
            s[("s", name)] += (end - start) / 1e9
            s[("self_s", name)] += (end - start - child[idx]) / 1e9
        for s, counts in zip(stats, self.pass_counts):
            for name, value in counts.items():
                s[("count", name)] += value
        return stats

    def metrics(self) -> dict:
        stats = self._pass_stats()
        out = {}
        for metric, unit, kind, key, phase in PER_LAYER:
            values = [s[(kind, key)] for s, (ph, _) in zip(stats, self.passes) if ph == phase]
            out[metric] = {"value": statistics.median(values) if values else 0, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"passes": self.passes, "cells": self.cells,
                                 "counts": self.pass_counts}) + "\n")
            for name, parent, pass_index, cell, start, end in self.spans:
                fh.write(json.dumps([name, parent, pass_index, cell, start, end]) + "\n")


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
