"""In-memory span tracer that times confae's layers from outside.

Each traced layer is a public function that the package reaches through a
module attribute (``net.jvp``, ``training.adamw_step``, ...). Installing the
tracer replaces those attributes with wrappers that record one span per call:
``(span_id, parent_id, name, start, end, counts)``. The package itself is
not modified, and uninstalling restores the original functions.

A span's self time is its duration minus the time its children cover. Calls
are strictly nested (one thread), so the children of a span never overlap
and the self time is the set of gaps between them. ``window_stats`` splits
self time and counts into caller-defined time windows, one per benchmark
operation.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import math
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    counts: dict | None


def _jvp_counts(args, kwargs, result):
    rows = result.trace.batch
    return {"rows": rows, "pullback_rows": rows if result.pullback is not None else 0}


def _graph_counts(args, kwargs, graph):
    arrays = [v for v in vars(graph).values() if hasattr(v, "nbytes")]
    return {"edges": int(graph.edge_rows.size), "dense_bytes": sum(a.nbytes for a in arrays)}


def _kappa_counts(args, kwargs, kappas):
    return {"inf_sentinels": int(math.isinf(kappas[0]))}


# (module, function, counter). The counter maps (args, kwargs, result) to
# extra per-call counts recorded on the span.
LAYERS = (
    ("net", "jvp", _jvp_counts),
    ("net", "backward", None),
    ("net", "forward_tape", None),
    ("net", "forward", None),
    ("net", "jacobian", None),
    ("regularizers", "nonlinear_conformal_loss_and_grad", None),
    ("regularizers", "recon_loss", None),
    ("training", "adamw_step", None),
    ("training", "init_networks", None),
    ("training", "train", None),
    ("geometry", "conformal_field", None),
    ("geometry", "build_graph", _graph_counts),
    ("geometry", "scalar_curvature", None),
    ("geometry", "condition_numbers", _kappa_counts),
    ("geometry", "summarize_kappa", None),
    ("geometry", "write_diagnostics_csv", None),
    ("linalg", "condition_number", None),
    ("data", "swiss_roll", None),
    ("data", "standardize", None),
    ("data", "split", None),
    ("data", "from_csv", None),
    ("cli", "main", None),
)


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._originals = {}
        self._wrappers = {}
        for mod_name, fn_name, counter in LAYERS:
            module = importlib.import_module(f"confae.{mod_name}")
            fn = getattr(module, fn_name)
            key = f"{mod_name}.{fn_name}"
            self._originals[key] = (module, fn_name, fn)
            self._wrappers[key] = self._wrap(key, fn, counter)
        self.layer_names = tuple(self._originals)

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append(Span(sid, parent, name, start, clock(), None))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans.append(Span(sid, parent, name, start, end, counts))
            return result

        return wrapper

    def install(self, names=None) -> None:
        for key in names or self._originals:
            module, fn_name, _ = self._originals[key]
            setattr(module, fn_name, self._wrappers[key])

    def uninstall(self, names=None) -> None:
        for key in names or self._originals:
            module, fn_name, fn = self._originals[key]
            setattr(module, fn_name, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def window_stats(spans: list[Span], windows: list[tuple[float, float]]) -> list[dict]:
    """Per-window ``{layer: {"self_s", "total_s", "calls", <count>...}}``.

    ``windows`` are disjoint ``(start, end)`` intervals in increasing order.
    Self time (without children) and total time (with children) are split
    exactly at window edges; a call and its counts belong to the window its
    span starts in.
    """
    starts = [w[0] for w in windows]
    out = [defaultdict(lambda: defaultdict(float)) for _ in windows]

    def credit(name, lo, hi, field="self_s"):
        i = max(bisect.bisect_right(starts, lo) - 1, 0)
        while i < len(windows) and windows[i][0] < hi:
            overlap = min(hi, windows[i][1]) - max(lo, windows[i][0])
            if overlap > 0:
                out[i][name][field] += overlap
            i += 1

    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    for s in spans:
        cursor = s.start
        for child in sorted(children[s.sid], key=lambda c: c.start):
            credit(s.name, cursor, child.start)
            cursor = child.end
        credit(s.name, cursor, s.end)
        credit(s.name, s.start, s.end, "total_s")
        i = bisect.bisect_right(starts, s.start) - 1
        if i >= 0 and s.start < windows[i][1]:
            stats = out[i][s.name]
            stats["calls"] += 1
            for key, value in (s.counts or {}).items():
                stats[key] += value
    return out
