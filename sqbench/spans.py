"""Layer spans recorded from outside the program.

The tracer replaces the program's public functions at the names its callers
look them up by (`cli.sample_grid3d`, `mesh_io.write_obj`, `cli.main` as
`recipes` calls it, ...) with wrappers that record a span per call. Spans are
kept in memory and reduced to per-layer numbers when the run ends. A name
that a later version of the program removes is skipped: its layer then
reports zero calls and the run goes on.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

_MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    depth: int
    parent: str
    info: object = None
    alloc: float = 0.0  # peak bytes allocated and alive during the call (memory mode only)


# -------------------------------------------------------------- observers
# Each observer turns (args, result) of one call into the counts its layer
# reports. They run after the span has ended, inside a `trace.observe` span,
# and a signature they do not recognise yields no counts instead of an error.


def _size(args, result):
    return int(np.size(result))


def _grid_samples(args, result):
    return int(result.samples.size)


def _cubes(args, result):
    inside = (args[0].view3d() < 0).view(np.int8)
    corners = sum(inside[k:k + inside.shape[0] - 1, j:j + inside.shape[1] - 1, i:i + inside.shape[2] - 1]
                  for k in (0, 1) for j in (0, 1) for i in (0, 1))
    active = int(np.count_nonzero((corners > 0) & (corners < 8)))
    return {"triangles": len(result.triangles), "active": active, "cells": corners.size}


def _squares(args, result):
    inside = (args[0].samples < 0).view(np.int8)
    corners = inside[:-1, :-1] + inside[:-1, 1:] + inside[1:, :-1] + inside[1:, 1:]
    active = int(np.count_nonzero((corners > 0) & (corners < 4)))
    return {"active": active, "cells": corners.size, "points": sum(len(p.points) for p in result)}


# (owner module, attribute, span name, observer, measures the file it writes)
TARGETS = (
    ("cli", "main", "cli.main", None, False),
    ("recipes", "run_recipe", "recipes.run_recipe", None, False),
    ("cli", "sample_grid2d", "contour2d.sample_grid2d", _grid_samples, False),
    ("cli", "marching_squares", "contour2d.marching_squares", _squares, False),
    ("cli", "sample_grid3d", "polygonize3d.sample_grid3d", _grid_samples, False),
    ("cli", "marching_cubes", "polygonize3d.marching_cubes", _cubes, False),
    ("mesh_io", "mesh_stats", "mesh_io.mesh_stats", None, False),
    ("mesh_io", "write_obj", "mesh_io.write_obj", None, True),
    ("mesh_io", "write_stl", "mesh_io.write_stl", None, True),
    ("mesh_io", "write_svg", "mesh_io.write_svg", None, True),
    ("mesh_io", "write_csv", "mesh_io.write_csv", None, True),
    ("oracle", "radial_profile_report", "oracle", None, False),
    ("oracle", "limit_convergence_check", "oracle", None, False),
    ("oracle", "periodicity_check", "oracle", None, False),
    ("oracle", "square_case_check", "oracle", None, False),
    ("oracle", "zero_set_residual", "oracle", None, False),
)
# field factories: the fields they return are wrapped, not the factories
FIELD_FACTORIES = (("cli", "make_field2d", "fields2d.eval"), ("cli", "make_field3d", "fields3d.eval"))


class Tracer:
    """Records spans from every thread.

    `memory` names spans whose calls run under tracemalloc, which is started
    at their entry and stopped at their exit so that it slows nothing else.
    """

    def __init__(self, modules: dict, memory: tuple = ()):
        self.modules = modules
        self.memory = memory
        self.spans: list[Span] = []
        self._main = threading.get_ident()
        self._main_stack: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for owner, attr, name, observe, writes in TARGETS:
            module = self.modules[owner]
            fn = getattr(module, attr, None)
            if callable(fn):
                self._patch(module, attr, self.wrap(name, fn, observe, writes))
        for owner, attr, name in FIELD_FACTORIES:
            module = self.modules[owner]
            factory = getattr(module, attr, None)
            if callable(factory):
                self._patch(module, attr, self._factory(name, factory))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _factory(self, name, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            field = factory(*args, **kwargs)
            return self.wrap(name, field, _size, False, observe_span=False)

        return make

    # ------------------------------------------------------------- spans

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack, 0
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # a sampling thread works for whatever the caller has open
        return stack, len(self._main_stack)

    def wrap(self, name, fn, observe=None, writes=False, observe_span=True):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, observe, writes, observe_span, args, kwargs)

        return traced

    def _call(self, name, fn, observe, writes, observe_span, args, kwargs):
        stack, base = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if base else "")
        depth = base + len(stack)
        sink = next((a for a in args if hasattr(a, "tell") and hasattr(a, "write")), None) if writes else None
        mark = sink.tell() if sink is not None else 0
        measure = name in self.memory and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        stack.append(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(name, start, end, depth, parent)
            if measure:
                span.alloc = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append(span)
        if sink is not None:
            span.info = sink.tell() - mark
        elif observe is not None:
            span.info = self._observe(observe, args, result, depth, parent, observe_span)
        return result

    def _observe(self, observe, args, result, depth, parent, as_span):
        start = time.perf_counter()
        try:
            return observe(args, result)
        except (AttributeError, TypeError, ValueError, IndexError):
            return None
        finally:
            if as_span:
                self.spans.append(Span("trace.observe", start, time.perf_counter(), depth, parent))


def self_times(spans: list[Span]) -> dict:
    """Seconds each span name spent as the deepest open span.

    Spans of one name on several threads that overlap count once, so the
    self times of a job's spans add up to the duration of its outermost span.
    """
    events = []
    for idx, sp in enumerate(spans):
        events.append((sp.start, 1, idx))
        events.append((sp.end, 0, idx))
    events.sort()
    open_spans: dict[int, tuple] = {}
    totals: dict[str, float] = defaultdict(float)
    prev = None
    for t, is_start, idx in events:
        if open_spans and t > prev:
            totals[max(open_spans.values())[1]] += t - prev
        prev = t
        if is_start:
            open_spans[idx] = (spans[idx].depth, spans[idx].name)
        else:
            del open_spans[idx]
    return totals


def layer_numbers(spans: list[Span]) -> dict:
    """Per-layer calls, self times and counts of one pass's spans."""
    out: dict[str, float] = defaultdict(float)
    for name, secs in self_times(spans).items():
        out[f"{name}.self_s"] += secs
    for sp in spans:
        if sp.name == "oracle":
            if sp.parent != "oracle":
                out["oracle.calls"] += 1
            continue
        out[f"{sp.name}.calls"] += 1
        info = sp.info
        if info is None:
            continue
        if sp.name.startswith("mesh_io.write_"):
            out[f"{sp.name}.bytes"] += info
        elif isinstance(info, dict):
            for key, value in info.items():
                out[f"{sp.name}.{key}"] += value
        else:
            out[f"{sp.name}.samples"] += info
    return out


def peak_alloc_mb(spans: list[Span]) -> dict:
    out: dict[str, float] = defaultdict(float)
    for sp in spans:
        out[sp.name] = max(out[sp.name], sp.alloc / _MB)
    return out
