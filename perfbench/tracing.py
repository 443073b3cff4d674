"""Spans around carpetdim's layers, installed from outside the package.

Each public function is replaced, at every module attribute its callers look
it up by, with a wrapper that records a span (name, start, end, parent span,
op id).  Spans stay in memory until ``write``.  A layer is the prefix of a
span name ("dimensions", "geometry", ...); its self time is the time of its
spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# span name -> module attributes that callers look the function up by
WRAPPED = {
    "cli.run": ["cli.run"],
    "systems.validate": ["systems.validate", "pointwise.validate"],
    "systems.system_from_config": ["systems.system_from_config",
                                   "cli.system_from_config"],
    "dimensions.gl_dims": ["dimensions.gl_dims", "cli.gl_dims",
                           "pointwise.gl_dims"],
    "dimensions.baranski_dims": ["dimensions.baranski_dims",
                                 "cli.baranski_dims", "pointwise.baranski_dims"],
    "dimensions.reduction_suprema": ["dimensions.reduction_suprema",
                                     "cli.reduction_suprema"],
    "moran.solve_moran": ["moran.solve_moran", "dimensions.solve_moran"],
    "moran.theta_window": ["moran.theta_window"],
    "moran.nonauto_assouad": ["moran.nonauto_assouad",
                              "pointwise.nonauto_assouad",
                              "cli.nonauto_assouad"],
    "pointwise.pointwise_assouad_gl": ["pointwise.pointwise_assouad_gl",
                                       "cli.pointwise_assouad_gl"],
    "pointwise.pointwise_assouad_baranski": [
        "pointwise.pointwise_assouad_baranski",
        "cli.pointwise_assouad_baranski"],
    "pointwise.symbolic_slice": ["pointwise.symbolic_slice",
                                 "cli.symbolic_slice"],
    "pointwise.level_set_dim": ["pointwise.level_set_dim",
                                "cli.level_set_dim"],
    "geometry.grid_count": ["geometry._grid_count"],
    "geometry.scale_count_table": ["geometry.scale_count_table",
                                   "cli.scale_count_table"],
    "geometry.box_dimension_estimate": ["geometry.box_dimension_estimate",
                                        "cli.box_dimension_estimate"],
    "geometry.box_count_ball": ["geometry.box_count_ball"],
}

_QUERIES = ("pointwise.pointwise_assouad_gl",
            "pointwise.pointwise_assouad_baranski")


class Tracer:
    """Records spans while installed; ``uninstall`` restores the package."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, op, fact]
        self._stack = []
        self._saved = []
        self.op = None
        geometry = importlib.import_module("carpetdim.geometry")
        # the lru_cache object itself, for its hit and miss counters
        self._estimate = geometry.box_dimension_estimate
        self._cache_before = None

    def install(self):
        self._cache_before = self._estimate.cache_info()
        for name, targets in WRAPPED.items():
            for target in targets:
                module_name, attr = target.split(".")
                module = importlib.import_module("carpetdim." + module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, clock(), 0, parent, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = _fact(name, result)
                return result
            finally:
                self._stack.pop()
                span[2] = clock()
        return wrapper

    def metrics(self):
        """Per-layer metrics (counts, inclusive and self milliseconds)."""
        calls = defaultdict(int)
        total = defaultdict(int)
        facts = defaultdict(int)
        child = defaultdict(int)
        for name, start, end, parent, _, fact in self.spans:
            calls[name] += 1
            total[name] += end - start
            if fact:
                facts[name] += fact
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            self_ns[name.split(".")[0]] += end - start - child[index]
        cache = self._estimate.cache_info()
        hits = cache.hits - self._cache_before.hits
        lookups = hits + cache.misses - self._cache_before.misses

        def ms(ns):
            return ns / 1e6

        return {
            "dimensions.gl_dims_calls": calls["dimensions.gl_dims"],
            "dimensions.gl_dims_ms": ms(total["dimensions.gl_dims"]),
            "dimensions.baranski_dims_calls":
                calls["dimensions.baranski_dims"],
            "dimensions.baranski_dims_ms":
                ms(total["dimensions.baranski_dims"]),
            "dimensions.reduction_suprema_ms":
                ms(total["dimensions.reduction_suprema"]),
            "dimensions.gl_iterations": facts["dimensions.gl_dims"],
            "dimensions.ms": ms(self_ns["dimensions"]),
            "geometry.scales_counted": calls["geometry.grid_count"],
            "geometry.cells_counted": facts["geometry.grid_count"],
            "geometry.grid_ms": ms(total["geometry.grid_count"]),
            "geometry.ball_count_calls": calls["geometry.box_count_ball"],
            "geometry.ball_count_ms": ms(total["geometry.box_count_ball"]),
            "geometry.box_estimate_calls":
                calls["geometry.box_dimension_estimate"],
            "geometry.box_estimate_hit_ratio":
                hits / lookups if lookups else 0.0,
            "moran.solve_moran_calls": calls["moran.solve_moran"],
            "moran.theta_window_calls": calls["moran.theta_window"],
            "moran.ms": ms(self_ns["moran"]),
            "pointwise.queries": sum(calls[q] for q in _QUERIES),
            "pointwise.query_ms": ms(sum(total[q] for q in _QUERIES)),
            "pointwise.level_set_calls": calls["pointwise.level_set_dim"],
            "pointwise.level_set_ms": ms(total["pointwise.level_set_dim"]),
            "systems.validate_calls": calls["systems.validate"],
            "systems.validate_ms": ms(total["systems.validate"]),
            "cli.commands": calls["cli.run"],
            "cli.self_ms": ms(self_ns["cli"]),
        }

    def write(self, path):
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, _) in enumerate(
                    self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start_ns": start,
                     "end_ns": end, "parent": parent, "op": op},
                    separators=(",", ":")) + "\n")


def _fact(name, result):
    """A count a span carries: optimiser iterations or cells counted."""
    if name == "dimensions.gl_dims":
        return result.diagnostics["optimizer"]["iterations"]
    if name == "geometry.grid_count":
        return result
    return None
