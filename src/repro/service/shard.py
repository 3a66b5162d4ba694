"""Sharding primitives: the consistent-hash ring, the wire codecs, and
the worker process loop.

The paper's premise — compressed rows are cheap to fingerprint — is
what makes scale-out routing nearly free: the front-end already pays
O(k) to key a row for the cache, and the same 128-bit
:func:`~repro.service.cache.row_fingerprint` digest doubles as the
routing key.  Requests are placed on a consistent-hash ring keyed by
``row_fingerprint(row_a)``, so

* identical content always lands on the same worker — each shard's
  :class:`~repro.service.cache.DiffCache` stays hot on *its slice* of
  the content space instead of every worker caching everything;
* adding or removing a worker remaps only ``~1/N`` of the key space
  (the classic consistent-hashing property), preserved here by the
  virtual-node ring.

Everything that crosses the process boundary is builtin-typed wire
tuples: rows travel as
``(pairs, width)``, results as ``(pairs, width, iterations, k1, k2,
n_cells, stats_items)``, and errors as ``(class_name, message)`` pairs
rehydrated into the same typed :mod:`repro.errors` hierarchy on the
other side — a worker's ``ServiceOverloadError`` (queue full, breaker
open) is a ``ServiceOverloadError`` to the front-end's caller too.
Metrics cross the boundary as data too: a worker snapshots its private
registry into a picklable
:class:`~repro.obs.metrics.MetricsSnapshot` on demand and the front-end
merges them (see :class:`repro.service.frontend.ShardedDiffService`).

The protocol itself is deliberately tiny: length-ordered request/reply
over a :func:`multiprocessing.Pipe`, messages are ``(kind, seq,
payload)`` tuples, and every request gets exactly one reply tagged with
its ``seq`` (``"ok"`` or ``"err"``).  See ``docs/SERVING.md`` for the
message table.
"""

from __future__ import annotations

from bisect import bisect_left
from hashlib import blake2b
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError, ServiceError
from repro.rle.row import RLERow
from repro.core.machine import XorRunResult
from repro.core.options import DiffOptions, validate_engine
from repro.service.cache import row_fingerprint
from repro.systolic.stats import ActivityStats

__all__ = [
    "DEFAULT_REPLICAS",
    "MAX_SPANS_PER_REPLY",
    "MAX_EVENTS_PER_REPLY",
    "ShardRing",
    "OptionsWire",
    "RowWire",
    "ResultWire",
    "ErrorWire",
    "SpanWire",
    "encode_options",
    "decode_options",
    "encode_row",
    "decode_row",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
    "encode_span",
    "decode_span",
    "worker_main",
]

#: Virtual nodes per shard on the ring.  More replicas smooth the key
#: distribution (stddev ~ 1/sqrt(replicas)); 64 keeps the imbalance a
#: few percent while the ring stays tiny (N*64 points).
DEFAULT_REPLICAS = 64

#: Semantic options plus cache-placement plumbing in wire form:
#: ``(engine, n_cells, canonical, paranoid, record_trace, cache_dir,
#: disk_budget)``.  Observability handles never cross the boundary —
#: each worker owns a private registry.  ``cache_dir``/``disk_budget``
#: ride along so each worker can open its own persistent tier (the
#: front-end partitions the directory per worker — see
#: :class:`repro.service.frontend.ShardedDiffService`).
OptionsWire = Tuple[
    str, Optional[int], bool, bool, bool, Optional[str], Optional[int]
]

#: One row on the wire: its run pairs and declared width.
RowWire = Tuple[Tuple[Tuple[int, int], ...], Optional[int]]

#: One result on the wire: output run pairs, width, iterations, k1, k2,
#: n_cells, and the activity counters as sorted (name, count) tuples.
ResultWire = Tuple[
    Tuple[Tuple[int, int], ...],
    Optional[int],
    int,
    int,
    int,
    int,
    Tuple[Tuple[str, int], ...],
]

#: One error on the wire: the :mod:`repro.errors` class name and the
#: message.  :func:`decode_error` rehydrates it.
ErrorWire = Tuple[str, str]

#: One measured span on the wire: ``(name, duration_s, sorted
#: (key, value) attribute pairs)``.  Only the duration crosses — the
#: front-end re-records it on its own clock
#: (:meth:`repro.obs.tracing.Tracer.record_span`), so clock skew
#: between processes never distorts the stitched timeline.
SpanWire = Tuple[str, float, Tuple[Tuple[str, object], ...]]

#: Per-reply shipping bounds: a pathological request cannot flood the
#: pipe with observability payload — excess spans/events stay behind
#: (events ride out with later replies; spans past the cap are dropped).
MAX_SPANS_PER_REPLY = 32
MAX_EVENTS_PER_REPLY = 64


# --------------------------------------------------------------------- #
# The consistent-hash ring                                              #
# --------------------------------------------------------------------- #
class ShardRing:
    """A consistent-hash ring mapping content digests to shard indices.

    Each of the ``n_shards`` shards owns ``replicas`` virtual points,
    placed by hashing ``shard:<index>:<replica>``; a key is routed to
    the first point clockwise from its own position (wrapping).  The
    placement is deterministic — every front-end computes the same
    ring, and the routing tests pin the distribution.

    Parameters
    ----------
    n_shards:
        Number of shards (worker processes) on the ring.
    replicas:
        Virtual nodes per shard.
    """

    def __init__(self, n_shards: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if n_shards < 1:
            raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
        if replicas < 1:
            raise ServiceError(f"replicas must be >= 1, got {replicas}")
        self.n_shards = n_shards
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(replicas):
                digest = blake2b(
                    f"shard:{shard}:{replica}".encode("ascii"), digest_size=8
                ).digest()
                points.append((int.from_bytes(digest, "big"), shard))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    def shard_for_digest(self, digest: bytes) -> int:
        """The shard owning ``digest`` (any byte string; the first 8
        bytes place it on the ring)."""
        position = int.from_bytes(digest[:8], "big")
        index = bisect_left(self._keys, position)
        if index == len(self._points):  # wrap past the last point
            index = 0
        return self._points[index][1]

    def preference(self, digest: bytes) -> List[int]:
        """Every shard, in ring-walk order from ``digest``'s position.

        The first element is :meth:`shard_for_digest`; the rest are the
        fallbacks a key remaps to if earlier choices are gone — the
        front-end uses this to place a streaming session on the first
        *alive* shard, so a session lost with its worker deterministically
        reopens on the next shard around the ring.
        """
        position = int.from_bytes(digest[:8], "big")
        start = bisect_left(self._keys, position)
        order: List[int] = []
        seen = set()
        for offset in range(len(self._points)):
            shard = self._points[(start + offset) % len(self._points)][1]
            if shard not in seen:
                seen.add(shard)
                order.append(shard)
                if len(order) == self.n_shards:
                    break
        return order

    def shard_for_row(self, row: RLERow) -> int:
        """The shard owning ``row``'s content — the routing key is
        :func:`~repro.service.cache.row_fingerprint`, the same digest
        the shard's cache will key the result under."""
        return self.shard_for_digest(row_fingerprint(row))


# --------------------------------------------------------------------- #
# Wire codecs (builtin types only)                                      #
# --------------------------------------------------------------------- #
def encode_options(options: DiffOptions) -> OptionsWire:
    """The semantic fields of ``options`` as a wire tuple (the
    observability handles stay on their side of the boundary)."""
    return (
        options.engine,
        options.n_cells,
        options.canonical,
        options.paranoid,
        options.record_trace,
        options.cache_dir,
        options.disk_budget,
    )


def decode_options(wire: OptionsWire) -> DiffOptions:
    engine, n_cells, canonical, paranoid, record_trace, cache_dir, disk_budget = wire
    return DiffOptions(
        # The wire carries the engine as a plain string; re-validate it
        # into the EngineName literal on the way back in (a corrupted
        # wire fails typed here rather than deep in dispatch).
        engine=validate_engine(engine),
        n_cells=n_cells,
        canonical=canonical,
        paranoid=paranoid,
        record_trace=record_trace,
        cache_dir=cache_dir,
        disk_budget=disk_budget,
    )


def encode_row(row: RLERow) -> RowWire:
    return (tuple((r.start, r.length) for r in row.runs), row.width)


def decode_row(wire: RowWire) -> RLERow:
    pairs, width = wire
    return RLERow.from_pairs(pairs, width=width)


def encode_result(result: XorRunResult) -> ResultWire:
    return (
        tuple(result.result.to_pairs()),
        result.result.width,
        result.iterations,
        result.k1,
        result.k2,
        result.n_cells,
        result.stats.items(),
    )


def decode_result(wire: ResultWire) -> XorRunResult:
    pairs, width, iterations, k1, k2, n_cells, stat_items = wire
    return XorRunResult(
        result=RLERow.from_pairs(pairs, width=width),
        iterations=iterations,
        k1=k1,
        k2=k2,
        n_cells=n_cells,
        stats=ActivityStats.from_items(stat_items),
    )


def encode_span(
    name: str, duration_s: float, attributes: Dict[str, object]
) -> SpanWire:
    """One measured span as a builtin-typed wire tuple.  Attribute
    values are clamped to JSON scalars (stringified otherwise) so the
    tuple stays pickle-free and trace exports stay schema-valid."""
    items = []
    for key, value in sorted(attributes.items()):
        if value is not None and not isinstance(value, (bool, int, float, str)):
            value = str(value)
        items.append((str(key), value))
    return (str(name), float(duration_s), tuple(items))


def decode_span(wire: SpanWire) -> Tuple[str, float, Dict[str, object]]:
    """``(name, duration_s, attributes)`` ready for
    :meth:`~repro.obs.tracing.Tracer.record_span`."""
    name, duration_s, items = wire
    return (str(name), float(duration_s), {str(k): v for k, v in items})


def encode_error(exc: BaseException) -> ErrorWire:
    """``(class_name, message)`` — enough to rehydrate the typed error
    on the other side of the boundary."""
    return (type(exc).__name__, str(exc))


def decode_error(wire: ErrorWire) -> ReproError:
    """Rehydrate a worker-side error into the same typed class.

    The name is resolved against :mod:`repro.errors`; anything outside
    the :class:`~repro.errors.ReproError` hierarchy (or unknown — a
    version-skewed worker) degrades to :class:`ServiceError` with the
    original name preserved in the message, so nothing untyped ever
    escapes the IPC boundary.
    """
    import repro.errors as _errors

    name, message = wire
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:
            # constructors with a different signature (InvariantViolation)
            return ServiceError(f"{name}: {message}")
    return ServiceError(f"worker raised {name}: {message}")


# --------------------------------------------------------------------- #
# The worker process                                                    #
# --------------------------------------------------------------------- #
def worker_main(
    conn: Any,
    worker_id: int,
    options_wire: OptionsWire,
    policy: Any,
    cache_bytes: int,
) -> None:
    """One shard: a :class:`~repro.service.resilience.ResilientDiffService`
    behind a request/reply pipe.  Runs in a child process.

    Messages are ``(kind, seq, payload)`` tuples; every request gets
    exactly one ``("ok", seq, result)`` or ``("err", seq,
    (name, message))`` reply:

    ``("diff_rows", seq, (rows_a, rows_b, ctx))``
        Rows in :data:`RowWire` form plus the request's
        :data:`~repro.obs.context.ContextWire`.  The reply payload is
        ``(results, spans,
        events)``: a tuple of :data:`ResultWire`, the worker's measured
        :data:`SpanWire` spans for this request (empty when the context
        is unsampled, capped at :data:`MAX_SPANS_PER_REPLY`), and up to
        :data:`MAX_EVENTS_PER_REPLY` drained structured log events in
        :data:`~repro.obs.log.EventWire` form.  Failures — including
        backpressure (``ServiceOverloadError``) and breaker trips —
        come back as typed :data:`ErrorWire` errors; the events they
        generate ship with the worker's next successful reply.
    ``("stream_open", seq, (session_id, policy_wire))``
        Open a streaming session (see :mod:`repro.service.stream`);
        ``policy_wire`` is a
        :data:`~repro.service.stream.StreamPolicyWire` or ``None`` for
        the worker default.  Replies with the session id.
    ``("stream_frame", seq, (session_id, image_wire, ctx_wire))``
        Append one frame (:data:`~repro.service.stream.ImageWire`) to a
        session.  The reply payload mirrors ``diff_rows``:
        ``(frame_delta, spans, events)`` with the delta in
        :data:`~repro.service.stream.FrameDeltaWire` form.  Unknown
        sessions come back as typed
        :class:`~repro.errors.UnknownSessionError`; breaker sheds as
        :class:`~repro.errors.ServiceOverloadError`.
    ``("stream_close", seq, session_id)``
        End a session; replies with its final stats dict.
    ``("stream_stats", seq, session_id_or_None)``
        One session's stats dict, or the worker's aggregate streaming
        stats when the payload is ``None``.
    ``("stats", seq, None)``
        The service's ``stats()`` dict (plain floats).
    ``("snapshot", seq, None)``
        The worker's :class:`~repro.obs.metrics.MetricsSnapshot`
        (frozen builtin dataclasses — picklable by design).
    ``("close", seq, None)``
        Drain, reply, and exit the loop.

    The worker never raises across the pipe: every exception is encoded
    and the loop continues (except ``close``/EOF, which end it).
    """
    from repro.obs.context import decode_context
    from repro.obs.log import StructuredLog, encode_event
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer
    from repro.service.resilience import ResilientDiffService
    from repro.service.stream import (
        StreamingDiffService,
        decode_image,
        decode_stream_policy,
        encode_frame_delta,
    )

    registry = MetricsRegistry()
    worker_gauge = registry.gauge(
        "repro_shard_worker", "shard worker identity (value = worker index)",
        ("worker",),
    )
    worker_gauge.labels(worker=str(worker_id)).set(float(worker_id))
    options = decode_options(options_wire).replace(metrics=registry)
    log = StructuredLog()
    tracer = Tracer()
    service = ResilientDiffService(
        options, policy=policy, cache_bytes=cache_bytes, log=log
    )
    streams = StreamingDiffService(service, metrics=registry, log=log)

    def traced_reply(
        span_name: str,
        ctx_wire: Any,
        serve: Callable[[str], Any],
        encode: Callable[[Any], Any],
        **attributes: object,
    ) -> Any:
        """``serve(request_id)`` under a worker span, then the
        ``(payload, spans, events)`` reply every traced op returns."""
        ctx = decode_context(ctx_wire)
        try:
            with tracer.span(
                span_name, request_id=ctx.request_id, worker=worker_id, **attributes
            ):
                result = serve(ctx.request_id)
        except BaseException:
            # the typed error crosses as ErrorWire below; the failure's
            # spans are dropped (nothing to stitch) and its log events
            # ride the next ok reply
            del tracer.spans[:]
            raise
        finished = tracer.spans[:MAX_SPANS_PER_REPLY]
        del tracer.spans[:]
        spans_wire = (
            tuple(encode_span(s.name, s.duration, s.attributes) for s in finished)
            if ctx.sampled
            else ()
        )
        events_wire = tuple(
            encode_event(r) for r in log.drain(MAX_EVENTS_PER_REPLY)
        )
        return (encode(result), spans_wire, events_wire)

    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:  # front-end died — nothing left to serve
                break
            kind, seq, payload = message
            if kind == "close":
                streams.close()
                service.close()
                conn.send(("ok", seq, None))
                break
            try:
                if kind == "diff_rows":
                    rows_a_wire, rows_b_wire, ctx_wire = payload
                    reply: Any = traced_reply(
                        "shard_diff_rows",
                        ctx_wire,
                        lambda request_id: service.diff_rows(
                            [decode_row(w) for w in rows_a_wire],
                            [decode_row(w) for w in rows_b_wire],
                            request_id=request_id,
                        ),
                        lambda results: tuple(encode_result(r) for r in results),
                        rows=len(rows_a_wire),
                    )
                elif kind == "stream_open":
                    session_id, policy_wire = payload
                    reply = streams.open(
                        session_id=session_id,
                        policy=(
                            decode_stream_policy(policy_wire)
                            if policy_wire is not None
                            else None
                        ),
                    )
                elif kind == "stream_frame":
                    session_id, image_wire, ctx_wire = payload
                    reply = traced_reply(
                        "shard_stream_frame",
                        ctx_wire,
                        lambda request_id: streams.append_frame(
                            session_id, decode_image(image_wire), request_id=request_id
                        ),
                        encode_frame_delta,
                        session_id=session_id,
                    )
                elif kind == "stream_close":
                    reply = streams.close_session(payload)
                elif kind == "stream_stats":
                    if payload is None:
                        reply = streams.stats()
                    else:
                        reply = streams.session_stats(payload)
                elif kind == "stats":
                    reply = service.stats()
                elif kind == "snapshot":
                    reply = registry.snapshot()
                elif kind == "ping":
                    reply = worker_id
                else:
                    raise ServiceError(f"unknown request kind {kind!r}")
            except BaseException as exc:  # everything crosses as ErrorWire
                conn.send(("err", seq, encode_error(exc)))
            else:
                conn.send(("ok", seq, reply))
    finally:
        conn.close()
