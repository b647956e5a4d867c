"""Outside tracer: spans around secat's public functions, installed by patching.

No code under `src/` changes.  Each traced function is replaced, in every
`secat` module namespace that holds it (so `semifree.solve_sparse` and
`homology.kernel_combos` are traced too), by a wrapper that records a span
(id, parent, query, name, start, end, nested).  Methods are patched on their
class.  Times are computed at the end, on the same machine-speed scale as
the end-to-end `wall_s`: a span's duration is its normalized time from
calibrate.SpeedClock (kernel samples that ran inside it excluded), and its
self time is that duration minus its direct children's.  `total_s` counts
only outermost spans of a name (`nested` false), so recursion is not
counted twice.  Spans keep their raw perf_counter times and stay in memory
until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

MODULES = ("lang", "cli", "core", "linalg", "homology", "construct",
           "semifree", "invariants")


def _solve_sparse_sizes(args, kwargs):
    equations, nunknowns = list(args[0]), args[1]
    nnz = sum(1 for coeffs, _ in equations for c in coeffs.values() if c)
    sizes = {"rows": len(equations), "cols": nunknowns, "nnz": nnz}
    return (equations,) + tuple(args[1:]), kwargs, sizes


def _kernel_combos_sizes(args, kwargs):
    images, width = list(args[0]), args[1]
    sizes = {"cells": len(images) * (width + len(images))}
    return (images,) + tuple(args[1:]), kwargs, sizes


def _found(result):
    return {"found": int(result is not None)}


def _degrees(report):
    return {"degrees": report.hi - report.lo + 1}


def _generators(result):
    return {"generators": len(result.model.generators)}


def _verdict(result):
    accepted = bool(result[0])
    return {"accepted": int(accepted), "rejected": int(not accepted)}


# span name -> (size recorder on the arguments, outcome recorder on the result)
TARGETS = {
    "lang.parse_document": (None, None),
    "lang.make_presentation": (None, None),
    "cli.main": (None, None),
    "core.Presentation.basis": (None, None),
    "core.Presentation.top_degree_if_finite": (None, None),
    "core.quotient_by_ideal": (None, None),
    "linalg.solve_sparse": (_solve_sparse_sizes, None),
    "linalg.kernel_combos": (_kernel_combos_sizes, None),
    "linalg.solve_combo": (None, None),
    "linalg.Echelon.add": (None, None),
    "linalg.Echelon.reduce": (None, None),
    "homology.homology": (None, _degrees),
    "homology.quasi_iso_failure": (None, None),
    "homology.kernel_ideal_generators": (None, None),
    "homology.IdealPowers.level": (None, None),
    "construct.sullivan_model_of": (None, _generators),
    "construct.diagonal_model": (None, None),
    "semifree.find_module_retraction": (None, _found),
    "semifree.resolve_quotient": (None, None),
    "semifree.verify_module_retraction": (None, None),
    "invariants.cat_bounds": (None, None),
    "invariants.tc_bounds": (None, None),
    "invariants.surjection_bounds": (None, None),
    "invariants.verify_certificate": (None, _verdict),
}

EXTRA_STATS = {
    "linalg.solve_sparse": ("rows", "cols", "nnz"),
    "linalg.kernel_combos": ("cells",),
    "homology.homology": ("degrees",),
    "construct.sullivan_model_of": ("generators",),
    "semifree.find_module_retraction": ("found",),
    "invariants.verify_certificate": ("accepted", "rejected"),
}

VERIFY = "invariants.verify_certificate"
PER_CERT = ("construct.sullivan_model_of", "construct.diagonal_model")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
        for stat in EXTRA_STATS.get(name, ()):
            units[f"{name}.{stat}"] = "count"
    for name in PER_CERT:
        units[f"{name}.calls_per_cert"] = "calls/cert"
    for module in MODULES:
        units[f"layer.{module}.self_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, query, name, start, end, nested)
        self.stack: list[int] = []     # ids of the open spans
        self.open = defaultdict(int)   # name -> open spans of that name
        self.stats = defaultdict(lambda: defaultdict(float))
        self.query = None

    def wrap(self, name, fn):
        sizes, outcome = TARGETS[name]
        stats = self.stats[name]
        per_cert = name in PER_CERT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizes is not None:
                args, kwargs, counts = sizes(args, kwargs)
                for k, v in counts.items():
                    stats[k] += v
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else None
            nested = self.open[name] > 0
            self.stack.append(span_id)
            self.open[name] += 1
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.open[name] -= 1
                stats["calls"] += 1
                if per_cert and self.open[VERIFY]:
                    stats["calls_in_verify"] += 1
                if outcome is not None and not raised:
                    for k, v in outcome(result).items():
                        stats[k] += v
                elif raised and name == VERIFY:
                    stats["rejected"] += 1  # a structural error is a rejection
                self.spans[span_id] = (span_id, parent, self.query, name,
                                       start, end, nested)

        return traced

    def install(self) -> None:
        """Patch every target in each loaded secat module that holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "secat" or key.startswith("secat.")]
        for name in TARGETS:
            module, *path = name.split(".")
            owner = sys.modules[f"secat.{module}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            traced = self.wrap(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], traced)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def metrics(self, clock, passes: int) -> dict[str, float]:
        """Per-pass layer metrics (all but trace.overhead_frac), with span
        times normalized by `clock`, a finished calibrate.SpeedClock."""
        self_s = [0.0] * len(self.spans)
        for span_id, parent, _, name, start, end, nested in self.spans:
            duration = clock.normalize(start, end)[1]
            self_s[span_id] += duration
            if parent is not None:
                self_s[parent] -= duration
            if not nested:
                self.stats[name]["total_s"] += duration
        for span in self.spans:
            self.stats[span[3]]["self_s"] += self_s[span[0]]
        out = {}
        layer = defaultdict(float)
        for name in TARGETS:
            stats = self.stats[name]
            out[f"{name}.calls"] = stats["calls"] / passes
            out[f"{name}.self_s"] = stats["self_s"] / passes
            out[f"{name}.total_s"] = stats["total_s"] / passes
            for stat in EXTRA_STATS.get(name, ()):
                out[f"{name}.{stat}"] = stats[stat] / passes
            layer[name.split(".")[0]] += stats["self_s"] / passes
        verified = self.stats[VERIFY]["calls"]
        for name in PER_CERT:
            inside = self.stats[name]["calls_in_verify"]
            out[f"{name}.calls_per_cert"] = inside / verified if verified else 0.0
        for module in MODULES:
            out[f"layer.{module}.self_s"] = layer[module]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "query", "name", "start",
                                  "end", "nested"], "spans": self.spans}, fh)
