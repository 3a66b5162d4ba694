"""Span tracing with JSONL and Chrome trace-event export.

A :class:`Tracer` records nested, attributed spans around the hot
operations — ``image_diff`` dispatch, the batched engine's step loop,
``measure_row_phases``, shard worker requests, and the inspection
pipeline's align/diff/extract stages.  Finished spans export as JSONL
(one object per line, grep-friendly) or as Chrome trace-event JSON
(complete ``"X"`` events) that loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``.

The disabled path must cost nothing: every instrumented call site takes
``tracer=None`` and branches once on it, and :data:`NULL_TRACER` — for
callers that want to thread a tracer unconditionally — answers
:meth:`span` with a shared no-op span, so a disabled span costs one
attribute lookup and one call.  ``benchmarks/bench_obs_overhead.py``
keeps that claim honest.

Span taxonomy (see docs/OBSERVABILITY.md for the full catalogue):

====================  ================================================
``image_diff``        one whole-image differencing call
``row_batch``         one :class:`BatchedXorEngine` batch run
``step``              one systolic iteration of a batch
``row``               one row diffed by a per-row engine loop
``measure_row_phases``  the timing model's measurement pass
``inspect`` / ``align`` / ``diff`` / ``extract``  inspection stages
====================  ================================================

Tracers are single-process, single-threaded objects; worker processes
measure durations locally and the parent re-records them via
:meth:`Tracer.record_span`: shard workers ship measured spans back
inside their replies, the
front-end re-records them with ``lane=k+1`` (its own spans stay on lane
0), and :class:`TraceStore` keeps the stitched per-request span sets the
``{"op": "trace"}`` server op serves — one request, one timeline, N
processes side by side in Perfetto.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ObservabilityError

__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "TraceStore",
    "spans_to_chrome_trace",
    "NullSpan",
    "NullTracer",
    "NULL_TRACER",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.  Times are seconds relative to the tracer's
    epoch (its construction time)."""

    span_id: int
    parent_id: int  # -1 = root
    name: str
    start: float
    duration: float
    attributes: Dict[str, object] = field(default_factory=dict)
    #: Rendering lane: 0 = the recording process itself; the sharded
    #: front-end re-records worker ``k``'s spans with ``lane=k+1`` so
    #: the Chrome export (``tid = lane + 1``) shows each process on its
    #: own track of one shared timeline.
    lane: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration


class Span:
    """A live span; use as a context manager.

    Attributes set at open time (``tracer.span("step", index=3)``) or
    later via :meth:`set_attribute` land in the record's ``attributes``.
    """

    __slots__ = ("_tracer", "_span_id", "_parent_id", "name", "attributes", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int,
        name: str,
        attributes: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._span_id = span_id
        self._parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self._start = 0.0

    def set_attribute(self, name: str, value: object) -> None:
        self.attributes[name] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._stack.append(self._span_id)
        self._start = tracer._clock() - tracer._epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._clock() - tracer._epoch
        if not tracer._stack or tracer._stack[-1] != self._span_id:
            raise ObservabilityError(
                f"span {self.name!r} exited out of order (spans must nest)"
            )
        tracer._stack.pop()
        tracer.spans.append(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self.name,
                start=self._start,
                duration=end - self._start,
                attributes=self.attributes,
            )
        )
        return False


class Tracer:
    """Collects spans for one process/run.

    Parameters
    ----------
    clock:
        Monotonic second-resolution clock; defaults to
        :func:`time.perf_counter`.  Injectable for deterministic tests.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._next_id = 0
        self._stack: List[int] = []
        self.spans: List[SpanRecord] = []

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attributes: object) -> Span:
        """Open a nested span: ``with tracer.span("step", index=i): ...``"""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else -1
        return Span(self, span_id, parent_id, name, dict(attributes))

    def record_span(
        self, name: str, duration_s: float, *, lane: int = 0, **attributes: object
    ) -> SpanRecord:
        """Record an already-measured span (ending now).

        Shard workers time their requests with a local clock; the
        sharded front-end re-records the reported durations here, with
        ``lane`` placing each span on the originating worker's track —
        only the duration crosses the wire, so clock skew between
        processes never distorts the timeline.
        """
        span_id = self._next_id
        self._next_id += 1
        end = self._clock() - self._epoch
        record = SpanRecord(
            span_id=span_id,
            parent_id=self._stack[-1] if self._stack else -1,
            name=name,
            start=max(0.0, end - duration_s),
            duration=duration_s,
            attributes=dict(attributes),
            lane=lane,
        )
        self.spans.append(record)
        return record

    # ------------------------------------------------------------------ #
    def durations(self, *names: str) -> Dict[str, float]:
        """Total recorded seconds per span name (filtered to ``names``
        when given) — how the inspection pipeline derives its
        ``stage_seconds`` without hand-rolled timing."""
        totals: Dict[str, float] = {}
        for record in self.spans:
            if names and record.name not in names:
                continue
            totals[record.name] = totals.get(record.name, 0.0) + record.duration
        return totals

    # Exporters -------------------------------------------------------- #
    def to_jsonl(self) -> str:
        """One JSON object per finished span, in completion order."""
        lines = [
            json.dumps(
                {
                    "span_id": r.span_id,
                    "parent_id": r.parent_id,
                    "name": r.name,
                    "start_s": r.start,
                    "duration_s": r.duration,
                    "attributes": r.attributes,
                },
                sort_keys=True,
            )
            for r in self.spans
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome_trace(self) -> Dict:
        """Chrome trace-event JSON (complete events), Perfetto-loadable.

        Timestamps and durations are microseconds per the trace-event
        spec.  Single-process spans all carry ``lane=0`` and land on one
        track (``tid=1``, exactly the pre-sharding layout); spans
        re-recorded from shard workers render on ``tid = lane + 1`` so N
        processes share one timeline without overlapping.
        """
        return spans_to_chrome_trace(self.spans)

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


def spans_to_chrome_trace(spans: Sequence[SpanRecord]) -> Dict:
    """Render finished spans as a ``repro.trace/v1`` document
    (shared by :meth:`Tracer.to_chrome_trace` and :class:`TraceStore`)."""
    events = [
        {
            "name": r.name,
            "cat": "repro",
            "ph": "X",
            "ts": r.start * 1e6,
            "dur": r.duration * 1e6,
            "pid": 1,
            "tid": r.lane + 1,
            "args": dict(r.attributes),
        }
        for r in spans
    ]
    return {"schema": "repro.trace/v1", "traceEvents": events}


class TraceStore:
    """A bounded, thread-safe store of stitched per-request span sets.

    The sharded front-end finishes a request with spans from up to N+1
    processes already re-recorded onto one timeline; this store indexes
    those finished sets by request id so the ``{"op": "trace"}`` server
    op (and tests) can fetch one request's distributed trace after the
    fact.  Capacity-bounded: the oldest requests are evicted first.

    Mutation and reads run under the instance lock — the TCP server's
    executor threads and the caller thread share one store (RLE101).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        # insertion-ordered dict doubles as the eviction queue
        self._traces: Dict[str, List[SpanRecord]] = {}

    def add(self, request_id: str, spans: Sequence[SpanRecord]) -> None:
        """Append ``spans`` under ``request_id`` (evicting the oldest
        request if this id is new and the store is full)."""
        if not request_id:
            raise ObservabilityError("request_id must be a non-empty string")
        with self._lock:
            existing = self._traces.get(request_id)
            if existing is None:
                while len(self._traces) >= self._capacity:
                    self._traces.pop(next(iter(self._traces)))
                self._traces[request_id] = list(spans)
            else:
                existing.extend(spans)

    def get(self, request_id: str) -> List[SpanRecord]:
        """The stored spans for ``request_id`` (empty when unknown)."""
        with self._lock:
            return list(self._traces.get(request_id, ()))

    def request_ids(self) -> List[str]:
        """Stored request ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def to_chrome_trace(self, request_id: Optional[str] = None) -> Dict:
        """One request's stitched trace, or every stored span when
        ``request_id`` is ``None``."""
        with self._lock:
            if request_id is None:
                spans = [s for trace in self._traces.values() for s in trace]
            else:
                spans = list(self._traces.get(request_id, ()))
        return spans_to_chrome_trace(spans)


class NullSpan:
    """The shared do-nothing span."""

    __slots__ = ()

    def set_attribute(self, name: str, value: object) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """Tracing disabled: every call answers the shared no-op span.

    ``span()`` is one attribute access plus returning a preallocated
    object — the overhead benchmark pins this.
    """

    __slots__ = ()
    enabled = False

    _NULL_SPAN = NullSpan()

    def span(self, name: str, **attributes: object) -> NullSpan:
        return self._NULL_SPAN

    def record_span(
        self, name: str, duration_s: float, *, lane: int = 0, **attributes: object
    ) -> None:
        return None

    def durations(self, *names: str) -> Dict[str, float]:
        return {}


#: The shared disabled tracer — thread this where ``None`` is awkward.
NULL_TRACER = NullTracer()
