"""Span tracing around the public entry points of each engine layer.

The engine itself is never edited: :func:`traced` patches the methods
named in :data:`LAYERS` with thin wrappers for the duration of a
``with`` block and restores the originals on exit.  Spans stay in
memory as plain tuples; :func:`ledger` turns them into per-layer call
counts and self times, and :func:`chrome_trace` into Chrome trace-event
JSON (opens in Perfetto or ``about:tracing``).

A layer's self time is its span time minus the time its child spans
cover.  The run itself is the root span (layer ``core.serving``), so
the self times of all layers partition the traced run's wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.journal import JournalKind

#: The root span's layer: the harness's ``run()`` call plus the event
#: loop, i.e. dispatch, queues and loop mechanics.
ROOT_LAYER = "core.serving"

# Argument extractors: request id and row count of one call.  ``args``
# includes ``self`` (or ``cls``) at index 0.


def _record_id(args, kwargs) -> Optional[int]:
    return getattr(args[1], "request_id", None) if len(args) > 1 else None


def _first_record_id(args, kwargs) -> Optional[int]:
    records = args[1] if len(args) > 1 else ()
    return getattr(records[0], "request_id", None) if records else None


#: Journal kinds whose ``a`` payload is a request id.
_REQUEST_KINDS = frozenset(
    int(kind)
    for kind in (
        JournalKind.ARRIVAL,
        JournalKind.DECISION,
        JournalKind.DISPATCH,
        JournalKind.COMPLETE,
        JournalKind.SHED,
        JournalKind.ROUTE,
    )
)


def _journal_request_id(args, kwargs) -> Optional[int]:
    kind = args[2] if len(args) > 2 else kwargs.get("kind")
    if int(kind) in _REQUEST_KINDS:
        return kwargs.get("a", args[3] if len(args) > 3 else None)
    return None


def _one_row(args, kwargs) -> int:
    return 1


def _batch_rows(args, kwargs) -> int:
    return len(args[1]) if len(args) > 1 else 0


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``module.cls.method``."""

    module: str
    cls: str
    method: str
    request_id: Optional[Callable] = None
    rows: Optional[Callable] = None

    @property
    def label(self) -> str:
        return f"{self.cls}.{self.method}"


def _entries(module: str, cls: str, *methods: str, **kw) -> Tuple[Entry, ...]:
    return tuple(Entry(module, cls, m, **kw) for m in methods)


#: Layer (named by module) -> entry points.  A layer missing from a
#: workload's run simply records no calls.
LAYERS: Dict[str, Tuple[Entry, ...]] = {
    "embedding": (
        Entry("repro.embedding.text_encoder", "ClipLikeTextEncoder",
              "encode", rows=_one_row),
        Entry("repro.embedding.text_encoder", "ClipLikeTextEncoder",
              "encode_batch", rows=_batch_rows),
        Entry("repro.embedding.image_encoder", "ClipLikeImageEncoder",
              "encode", rows=_one_row),
        Entry("repro.embedding.image_encoder", "ClipLikeImageEncoder",
              "encode_batch", rows=_batch_rows),
    ),
    "core.scheduler": (
        Entry("repro.core.scheduler", "RequestScheduler", "decide_batch",
              rows=_batch_rows),
        Entry("repro.core.scheduler", "RequestScheduler", "admit"),
    ),
    "core.cache": _entries(
        "repro.core.cache", "VectorCache",
        "retrieve", "retrieve_topk", "retrieve_batch", "insert",
        "snapshot", "restore",
    ),
    "core.tiering": _entries(
        "repro.core.tiering", "TieredVectorCache",
        "retrieve", "retrieve_topk", "retrieve_batch", "insert",
        "snapshot", "restore",
    ),
    "diffusion": _entries(
        "repro.diffusion.model", "DiffusionModelSim", "generate", "refine"
    ),
    "rng": _entries(
        "repro._rng", "DirectionCache",
        "unit", "units", "normal", "fresh_unit", "fresh_normal",
    ),
    ROOT_LAYER: _entries("repro.cluster.events", "EventLoop", "run"),
    "core.monitor": _entries(
        "repro.core.monitor", "GlobalMonitor", "allocate"
    ),
    "cluster.stats": _entries(
        "repro.cluster.stats", "StatsCollector", "window", "slo_window"
    ),
    "core.slo": _entries(
        "repro.core.slo", "SloGate", "admit", "record_completion",
        request_id=_record_id,
    ),
    "core.cluster_router": (
        Entry("repro.core.cluster_router", "ClusterRouter", "route_batch",
              request_id=_first_record_id, rows=_batch_rows),
        Entry("repro.core.cluster_router", "ReplicaAutoscaler", "targets"),
    ),
    "core.journal": (
        Entry("repro.core.journal", "EventJournal", "append",
              request_id=_journal_request_id),
        Entry("repro.core.journal", "Snapshot", "capture"),
        Entry("repro.core.journal", "ReplicaState", "capture"),
    ),
}

#: One span: (layer, label, start_s, end_s, parent index or -1,
#: request id or None, rows or None).
Span = Tuple[str, str, float, float, int, Optional[int], Optional[int]]


class Tracer:
    """In-memory span recorder; single-threaded, stack-nested."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, layer: str, label: str) -> Iterator[None]:
        """Record a span around a ``with`` block (the root span)."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (layer, label, start, end, parent, None, None)

    def wrap(self, layer: str, entry: Entry, fn: Callable) -> Callable:
        label = entry.label
        rid_of = entry.request_id
        rows_of = entry.rows
        perf_counter = time.perf_counter
        spans = self.spans
        stack = self._stack

        def traced_call(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (
                    layer, label, start, end, parent,
                    rid_of(args, kwargs) if rid_of else None,
                    rows_of(args, kwargs) if rows_of else None,
                )

        return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer, layers: Dict[str, Sequence[Entry]] = LAYERS):
    """Patch every entry point in ``layers`` for the ``with`` block."""
    patched = []
    try:
        for layer, entries in layers.items():
            for entry in entries:
                cls = getattr(importlib.import_module(entry.module), entry.cls)
                original = cls.__dict__[entry.method]
                if isinstance(original, (classmethod, staticmethod)):
                    fn = tracer.wrap(layer, entry, original.__func__)
                    wrapped = type(original)(fn)
                else:
                    wrapped = tracer.wrap(layer, entry, original)
                setattr(cls, entry.method, wrapped)
                patched.append((cls, entry.method, original))
        yield tracer
    finally:
        for cls, method, original in reversed(patched):
            setattr(cls, method, original)


@dataclass
class LayerCost:
    calls: int = 0
    self_s: float = 0.0
    rows: int = 0


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest properly (one thread, stack discipline), so direct
    children cover disjoint parts of their parent's interval.
    """
    self_s = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def ledger(spans: Sequence[Span]) -> Dict[str, LayerCost]:
    """Per-layer calls, self seconds and rows over ``spans``.

    The root span counts toward its layer's self time but not its calls.
    """
    costs: Dict[str, LayerCost] = {}
    for span, own in zip(spans, self_times(spans)):
        layer, _, _, _, parent, _, rows = span
        cost = costs.setdefault(layer, LayerCost())
        cost.self_s += own
        if parent >= 0:
            cost.calls += 1
        if rows is not None:
            cost.rows += rows
    return costs


def rows_per_call(spans: Sequence[Span], label: str) -> float:
    """Mean rows per call of the entry point ``label`` (0 if uncalled)."""
    rows = [s[6] for s in spans if s[1] == label]
    return sum(rows) / len(rows) if rows else 0.0


def durations_us(
    spans: Sequence[Span], layers: Sequence[str], prefix: str
) -> List[float]:
    """Durations (µs) of ``layers``' spans whose label method starts
    with ``prefix``."""
    wanted = set(layers)
    return [
        (end - start) * 1e6
        for layer, label, start, end, _, _, _ in spans
        if layer in wanted and label.split(".", 1)[1].startswith(prefix)
    ]


def chrome_trace(spans: Sequence[Span], metadata: Dict) -> Dict:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    t0 = min((s[2] for s in spans), default=0.0)
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": metadata.get("workload", "perfbench")}},
    ]
    for layer, label, start, end, _, rid, rows in spans:
        event = {
            "name": label,
            "cat": layer,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round((start - t0) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
        }
        args = {}
        if rid is not None:
            args["request_id"] = int(rid)
        if rows is not None:
            args["rows"] = rows
        if args:
            event["args"] = args
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata,
    }
