"""Wrapper-based spans around the public functions of each skewchar layer.

`Tracer.install` replaces each traced function by a wrapper, both in the
module that defines it and in every skewchar module that imported it, so
calls between layers are seen too.  Each call records a span (function,
start, end, parent span, operation) in memory; `uninstall` puts the
original functions back.  A generator's span runs from the call until the
generator is exhausted.  A span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter
from typing import Callable


# (module, function, per-call counts from (args, result) or None); the
# wrapper adds the counts to Tracer.counts.
TRACED = (
    ("cli", "parse_args", None),
    ("cli", "run", lambda args, result: {"cli.output_bytes": len(result[1].encode())}),
    ("partitions", "parse_partition", None),
    ("skew", "skew_from_boxes", None),
    (
        "lr",
        "decompose_skew",
        lambda args, result: {"lr.decompose_skew.boxes": args[0].size, "lr.decompose_skew.terms": len(result)},
    ),
    ("lr", "outer_product", lambda args, result: {"lr.outer_product.terms": len(result)}),
    ("lr", "schubert_product", None),
    ("lr", "enumerate_lr_fillings", None),
    ("ribbons", "nw_labeling", lambda args, result: {"ribbons.nw_labeling.boxes": args[0].size}),
    ("ribbons", "strip_nw_ribbons", None),
    ("extremal", "max_hl_characters", None),
    ("equality", "necessary_conditions", lambda args, result: {"equality.necessary_conditions.levels": len(result.levels)}),
    ("durfeemax", "verify_complementation", None),
    ("durfeemax", "max_durfee_product", None),
    ("durfeemax", "max_durfee_special_skew", None),
    ("render", "render", None),
)
# per-call counts kept beside the spans, each with its unit
COUNTS = {
    "cli.output_bytes": "B",
    "lr.decompose_skew.boxes": "count",
    "lr.decompose_skew.terms": "count",
    "lr.outer_product.terms": "count",
    "lr.enumerate_lr_fillings.fillings": "count",
    "ribbons.nw_labeling.boxes": "count",
    "equality.necessary_conditions.levels": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for module, function, _ in TRACED:
        units[f"{module}.{function}.calls"] = "count"
        units[f"{module}.{function}.self_s"] = "s"
    units.update(COUNTS)
    units["lr.enumerate_lr_fillings.hit_ratio"] = "ratio"
    units["lr.decompose_skew.peak_alloc_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


def _replace(original, wrapper) -> list[tuple]:
    """Rebind every skewchar module attribute bound to `original`; return what to undo."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name == "skewchar" or name.startswith("skewchar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


class Tracer:
    """Records spans and counts of the traced functions while installed."""

    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, f, _ in TRACED]
        self.spans: list[list] = []  # [function index, start, end, parent index, operation]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> None:
        for fid, (module, function, count) in enumerate(TRACED):
            original = getattr(sys.modules[f"skewchar.{module}"], function)
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(fid, original)
            else:
                wrapper = self._wrap(fid, original, count)
            self._undo.extend(_replace(original, wrapper))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    def _open(self, fid: int) -> int:
        idx = len(self.spans)
        self.spans.append([fid, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            self._stack.remove(idx)
        span = self.spans[idx]
        span[1], span[2] = start, end

    def _wrap(self, fid: int, fn: Callable, count) -> Callable:
        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return wrapper

    def _wrap_generator(self, fid: int, fn: Callable) -> Callable:
        prefix = self.names[fid]

        def drive(idx, start, inner):
            produced = 0
            try:
                for item in inner:
                    produced += 1
                    yield item
            finally:
                self._close(idx, start, time.perf_counter())
                self.counts[prefix + ".fillings"] += produced
                self.counts[prefix + ".hits"] += produced > 0

        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            return drive(idx, time.perf_counter(), fn(*args, **kwargs))

        return wrapper

    def self_times(self) -> list[float]:
        """Self time per traced function, summed over the recorded spans."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = [0.0] * len(self.names)
        for idx, (fid, start, end, _, _) in enumerate(self.spans):
            totals[fid] += max(0.0, end - start - child[idx])
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans, except peak memory and overhead."""
        calls = [0] * len(self.names)
        for span in self.spans:
            calls[span[0]] += 1
        out: dict[str, float] = {}
        for fid, (name, self_s) in enumerate(zip(self.names, self.self_times())):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_s"] = self_s
        out.update({name: self.counts[name] for name in COUNTS})
        fills = calls[self.names.index("lr.enumerate_lr_fillings")]
        out["lr.enumerate_lr_fillings.hit_ratio"] = self.counts["lr.enumerate_lr_fillings.hits"] / fills if fills else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON: function names and one row per span."""
        with open(path, "w") as fh:
            json.dump({"functions": self.names, "columns": ["function", "start", "end", "parent", "op"], "spans": self.spans}, fh)


class PeakAlloc:
    """Largest tracemalloc peak seen inside any one call of a wrapped function."""

    def __init__(self, module: str, function: str) -> None:
        self.module, self.function = module, function
        self.peak_bytes = 0
        self._undo: list[tuple] = []

    def install(self) -> None:
        original = getattr(sys.modules[f"skewchar.{self.module}"], self.function)

        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self._undo = _replace(original, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []
