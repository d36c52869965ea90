"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps public functions of the natspace modules from outside the
program: every module namespace that binds a wrapped function gets the
wrapper, and methods are replaced on their class.  For each layer it keeps
an exact call count and the self time (span time minus the time of wrapped
calls made inside it); per query it keeps one span.  It keeps no record per
call, because the hot relations run millions of times.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
import weakref
from typing import Dict, List, Tuple

# layer -> the functions it covers, as (module, attribute path)
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "morphisms.round_hull": (("natspace.morphisms", "round_hull"),),
    "morphisms.strict_trail_of": (("natspace.morphisms", "strict_trail_of"),),
    "points.dot": (("natspace.points", "Point.dot"),),
    "points.approximate": (("natspace.points", "approximate"),),
    "points.ancestor_at": (("natspace.points", "ancestor_at"),),
    "points.point_apart": (("natspace.points", "point_apart"),),
    "spaces.relations": tuple(
        ("natspace.spaces", f"Space.{name}")
        for name in ("apart", "touch", "refines", "strictly_refines")
    ),
    "spaces.enumerate_dot": (("natspace.spaces", "Space.enumerate_dot"),),
    "spaces.index_of": (("natspace.spaces", "Space.index_of"),),
    "spaces.level": (("natspace.spaces", "Space.level"),),
    "spaces.predecessors": (("natspace.spaces", "Space.predecessors"),),
    "dots.endpoints": (("natspace.dots", "endpoints"),),
    "dots.interval_relations": tuple(
        ("natspace.dots", name)
        for name in ("intervals_apart", "interval_contains", "interval_gap")
    ),
    "metric.evaluate_metric": (("natspace.metric", "evaluate_metric"),),
    "metric.value_bounds": (("natspace.metric", "UrysohnFunction.value_bounds"),),
    "metric.splitting_depth": (("natspace.metric", "splitting_depth"),),
    "metric.star_dots": (("natspace.metric", "star_dots"),),
    "metric.urysohn_fan": (("natspace.metric", "urysohn_fan"),),
    "encodings.cover_trails": (("natspace.encodings", "cover_trails"),),
    "encodings.hat": (("natspace.encodings", "hat"),),
    "encodings.level_member": (("natspace.encodings", "BaireEncoding.level_member"),),
    "encodings.h_inverse_trail": (("natspace.encodings", "BaireEncoding.h_inverse_trail"),),
    "induction.finite_subcover": (("natspace.induction", "finite_subcover"),),
    "induction.flatten": (("natspace.induction", "flatten"),),
    "induction.bar_walk": tuple(
        ("natspace.induction", name)
        for name in ("bar_contains", "min_bars", "reduce_bar", "expand_bar")
    ),
    "cli.main": (("natspace.cli", "main"),),
    "cli.parse_expression": (("natspace.cli", "parse_expression"),),
    "cli.compile_expression": (("natspace.cli", "compile_expression"),),
}

# Layers whose only reported figure is a count of their own.
COUNT_ONLY = {"metric.urysohn_fan": "metric.separators_built"}

# Counts kept beside the calls: (layer, stat).
COUNTS = (
    "points.dot.pulls",
    "spaces.enum_max_index",
    "encodings.cover_trails.trails",
    "metric.separators_built",
)


def layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out: List[Tuple[str, str]] = []
    for layer in LAYERS:
        if layer in COUNT_ONLY:
            continue
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self._open: List[float] = [0.0]  # wrapped time inside each open span
        self.stats: Dict[str, List[float]] = {layer: [0, 0.0] for layer in LAYERS}
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.spans: List[dict] = []
        self.originals: List[object] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, stat: List[float], fn):
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_spans.pop()
                stat[0] += 1
                stat[1] += elapsed - inner
                open_spans[-1] += elapsed

        return traced

    def _observe(self, layer: str, fn):
        """Wrappers that keep the counts beside the calls."""
        counts = self.counts
        if layer == "points.dot":
            highest = weakref.WeakKeyDictionary()

            def dot(point, k):
                seen = highest.get(point, -1)
                if k > seen:
                    counts["points.dot.pulls"] += k - seen
                    highest[point] = k
                return fn(point, k)

            return dot
        if layer == "spaces.enumerate_dot":

            def enumerate_dot(space, i):
                if i > counts["spaces.enum_max_index"]:
                    counts["spaces.enum_max_index"] = i
                return fn(space, i)

            return enumerate_dot
        if layer == "encodings.cover_trails":
            depth = [0]

            def cover_trails(space, a):
                depth[0] += 1
                try:
                    trails = fn(space, a)
                finally:
                    depth[0] -= 1
                if not depth[0]:
                    counts["encodings.cover_trails.trails"] += len(trails)
                return trails

            return cover_trails
        return fn

    def install(self) -> None:
        """Wrap every function of LAYERS wherever natspace binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "natspace" or name.startswith("natspace.")]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                original = getattr(owner, attr)
                wrapper = self._observe(layer, self._wrap(self.stats[layer], original))
                self.originals.append(original)
                if cls:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)

    def unbound(self) -> List[str]:
        """Module or class bindings that still hold an unwrapped function."""
        left = []
        originals = {id(f) for f in self.originals}
        for name, module in sorted(sys.modules.items()):
            if name != "natspace" and not name.startswith("natspace."):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    left.append(f"{name}.{attr}")
                elif isinstance(value, type):
                    left += [f"{name}.{attr}.{k}" for k, v in vars(value).items()
                             if id(v) in originals]
        return left

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, query: int):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            inner = self._open.pop()
            self._open[-1] += elapsed
            self.spans.append({"query": query, "wall_s": elapsed, "self_s": elapsed - inner})

    def snapshot(self) -> dict:
        out: Dict[str, float] = {}
        for layer, (calls, self_s) in self.stats.items():
            if layer in COUNT_ONLY:
                self.counts[COUNT_ONLY[layer]] = calls
                continue
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        out.update(self.counts)
        return out
