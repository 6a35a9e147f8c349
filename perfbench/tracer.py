"""Spans around the public functions of each adawass module, from outside.

Each function is wrapped at the module attribute its caller looks up (a
module that imports a name by ``from .x import f`` has its own attribute),
so the program itself is unchanged.  A span records its name, start, end,
parent span and request id; spans stay in memory until the run writes them
out.  Counts come from call arguments and results, so they repeat exactly.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute its caller looks up, span name)
TARGETS = (
    ("adawass.cli", "tree_from_dict", "trees.tree_from_dict"),
    ("adawass.cli", "validate", "trees.validate"),
    ("adawass.cli", "tree_to_dict", "trees.tree_to_dict"),
    ("adawass.cli", "aw_distance", "bicausal.aw_distance"),
    ("adawass.cli", "check_bicausal", "bicausal.check_bicausal"),
    ("adawass.cli", "geodesic", "curves.geodesic"),
    ("adawass.cli", "represent_curve", "curves.represent_curve"),
    ("adawass.cli", "flow_energy", "curves.flow_energy"),
    ("adawass.cli", "canonicalize", "canonical.canonicalize"),
    ("adawass.cli", "equivalent", "canonical.equivalent"),
    ("adawass.curves", "aw_distance", "bicausal.aw_distance"),
    ("adawass.curves", "glue", "bicausal.glue"),
    ("adawass.curves", "process_with_values", "trees.process_with_values"),
    ("adawass.canonical", "canonicalize", "canonical.canonicalize"),
    ("adawass.bicausal", "aw_distance", "bicausal.aw_distance"),
    ("adawass.bicausal", "aw_distance_lp", "bicausal.aw_distance_lp"),
    ("adawass.bicausal", "solve_transport", "discrete_ot.solve_transport"),
    ("adawass.bicausal", "lp_solve", "discrete_ot.lp_solve"),
    ("adawass.discrete_ot", "lp_solve", "discrete_ot.lp_solve"),
)


def _count_solve(c, args, result):
    n, m = len(args[0]), len(args[1])
    kind = "trivial" if n == 1 or m == 1 else "2x2" if n == m == 2 else "general"
    c["discrete_ot.solve_transport.calls_" + kind] += 1
    c["discrete_ot.solve_transport.max_cells"] = max(c["discrete_ot.solve_transport.max_cells"], n * m)


def _count_lp(c, args, result):
    rows, cols = np.shape(args[1])
    c["discrete_ot.lp_solve.max_rows"] = max(c["discrete_ot.lp_solve.max_rows"], rows)
    c["discrete_ot.lp_solve.max_cols"] = max(c["discrete_ot.lp_solve.max_cols"], cols)


def _count_aw(c, args, result):
    x, y = args[0], args[1]
    c["bicausal.aw_distance.node_pairs"] += sum(
        len(x.level(t)) * len(y.level(t)) for t in range(x.depth))


def _count_glue(c, args, result):
    c["bicausal.glue.product_leaves"] += len(result.product.leaves)


def _count_from_dict(c, args, result):
    c["trees.tree_from_dict.nodes"] += len(result.nodes)


def _count_validate(c, args, result):
    c["trees.validate.failed"] += bool(result)


def _count_canon(c, args, result):
    c["canonical.canonicalize.nodes_in"] += len(args[0].nodes)
    c["canonical.canonicalize.nodes_out"] += len(result.nodes)


COUNTERS = {
    "discrete_ot.solve_transport": _count_solve,
    "discrete_ot.lp_solve": _count_lp,
    "bicausal.aw_distance": _count_aw,
    "bicausal.glue": _count_glue,
    "trees.tree_from_dict": _count_from_dict,
    "trees.validate": _count_validate,
    "canonical.canonicalize": _count_canon,
}

# per-layer metrics: (name, unit, better); shares are of traced request time.
# The oracle (bicausal.aw_distance_lp) is wrapped but has no metric: only the
# unlisted oracle-xcheck workload calls it.
COUNTS = (
    "discrete_ot.solve_transport.calls", "discrete_ot.solve_transport.calls_trivial",
    "discrete_ot.solve_transport.calls_2x2", "discrete_ot.solve_transport.calls_general",
    "discrete_ot.lp_solve.calls", "discrete_ot.lp_solve.failed",
    "bicausal.aw_distance.calls", "bicausal.aw_distance.node_pairs",
    "bicausal.check_bicausal.calls",
    "bicausal.glue.calls", "bicausal.glue.product_leaves",
    "curves.geodesic.calls", "curves.represent_curve.calls", "curves.flow_energy.calls",
    "trees.tree_from_dict.calls", "trees.tree_from_dict.nodes", "trees.validate.failed",
    "canonical.canonicalize.calls", "canonical.canonicalize.nodes_in",
    "canonical.canonicalize.nodes_out", "canonical.equivalent.calls",
)
MAXIMA = (
    "discrete_ot.solve_transport.max_cells", "discrete_ot.lp_solve.max_rows",
    "discrete_ot.lp_solve.max_cols",
)
BUSY = (
    "discrete_ot.solve_transport", "discrete_ot.lp_solve", "bicausal.aw_distance",
    "bicausal.check_bicausal", "bicausal.glue", "curves.geodesic",
    "curves.represent_curve", "curves.flow_energy", "trees.tree_from_dict", "trees.validate",
    "trees.tree_to_dict", "trees.process_with_values", "canonical.canonicalize",
    "canonical.equivalent",
)
MODULES = ("trees", "canonical", "discrete_ot", "bicausal", "curves")
SELF = (
    "discrete_ot.solve_transport", "bicausal.aw_distance", "curves.geodesic", "curves.represent_curve", "cli.request",
)
PER_LAYER = (
    [(n, "count", "lower") for n in COUNTS + MAXIMA]
    + [(n + ".busy_share", "ratio", "lower") for n in MODULES + BUSY]
    + [(n + ".self_share", "ratio", "lower") for n in SELF]
    + [("cli.output_bytes", "bytes", "lower"),
       ("trace.request_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


class Tracer:
    """Collects spans and counts while installed; restores every attribute on removal."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1, request id]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.request: int = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        self.counts[name + ".calls"] += 1
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts, args, result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def times(self) -> tuple[dict, dict, float]:
        """Busy and self seconds per span name, and total root-span seconds.

        Busy time counts a span only when no ancestor has the same name, and
        for a module (the name's first part) only when no ancestor is in the
        same module; self time is a span's duration minus its direct
        children's.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        roots = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
            if parent < 0:
                roots += end - start
            module = name.split(".")[0]
            same_name = same_module = False
            p = parent
            while p >= 0:
                same_name |= self.spans[p][0] == name
                same_module |= self.spans[p][0].split(".")[0] == module
                p = self.spans[p][3]
            if not same_name:
                busy[name] += end - start
            if not same_module:
                busy[module] += end - start
        return busy, own, roots

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def layer_metrics(tracer: Tracer, passes: int, traced_s: float, untraced_s: float,
                  output_bytes: int) -> dict:
    """Every per-layer metric: counts and bytes per pass over one request
    cycle, maxima over all passes, shares of traced request time."""
    busy, own, roots = tracer.times()
    values = {n: tracer.counts[n] / passes for n in COUNTS}
    values.update({n: tracer.counts[n] for n in MAXIMA})
    for n in MODULES + BUSY:
        values[n + ".busy_share"] = busy[n] / roots
    for n in SELF:
        values[n + ".self_share"] = own[n] / roots
    values["cli.output_bytes"] = output_bytes / passes
    values["trace.request_s"] = traced_s / passes
    values["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    units = {n: u for n, u, _ in PER_LAYER}
    return {n: {"value": values[n], "unit": units[n]} for n, _, _ in PER_LAYER}
