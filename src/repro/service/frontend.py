"""The sharded serving front-end: worker pool, router, and TCP server.

Three layers, each usable on its own:

:class:`ShardedDiffService`
    N worker processes, each running a private
    :class:`~repro.service.resilience.ResilientDiffService`, behind the
    :class:`~repro.service.shard.ShardRing`.  ``diff_rows`` routes every
    pair by ``row_fingerprint(row_a)``, scatters one bulk request per
    shard, and reassembles results in input order — byte-identical to a
    single-process :class:`~repro.service.DiffService` (asserted by the
    integration tests and the sharded benchmark).  Worker errors come
    back as the same typed :mod:`repro.errors` classes the in-process
    services raise, and per-worker
    :class:`~repro.obs.metrics.MetricsSnapshot`\\ s merge into one
    registry for the existing JSON/Prometheus exporters.

:class:`ShardedServer` / :class:`ServerThread`
    An asyncio TCP front-end speaking newline-delimited JSON (one
    request object per line, one response per line), dispatching into a
    :class:`ShardedDiffService` via the event loop's executor so the
    loop never blocks on a compute.  ``ServerThread`` hosts the loop in
    a daemon thread for the CLI and the tests.

:class:`ShardClient`
    A small blocking client for the same protocol (the CLI selftest and
    the integration tests drive the server with it).

Failure semantics across the boundary (see ``docs/SERVING.md``):
a worker's backpressure (``ServiceOverloadError``), breaker trips,
deadline expiries and validation failures all arrive typed; a worker
process dying mid-request fails that request's future with
:class:`~repro.errors.ServiceError` rather than hanging the caller.
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import socket
import threading
from concurrent.futures import Future
from operator import index
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from hashlib import blake2b

from repro.errors import (
    GeometryError,
    ProtocolError,
    ReproError,
    ServiceError,
    UnknownSessionError,
)
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.machine import XorRunResult
from repro.core.options import IMAGE_DEFAULTS, DiffOptions, checked_options
from repro.core.pipeline import ImageDiffResult
from repro.obs.context import RequestContext, encode_context, new_request_id
from repro.obs.log import EventWire, StructuredLog, decode_event
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.tracing import Tracer, TraceStore
from repro.service.cache import DEFAULT_CACHE_BYTES
from repro.service.lifecycle import DEFAULT_SLO_SECONDS, RequestLifecycle
from repro.service.resilience import ResiliencePolicy
from repro.service.shard import (
    DEFAULT_REPLICAS,
    OptionsWire,
    ShardRing,
    SpanWire,
    decode_error,
    decode_result,
    decode_span,
    encode_options,
    encode_result,
    encode_row,
    worker_main,
)
from repro.service.stream import (
    FrameDelta,
    StreamPolicy,
    decode_frame_delta,
    encode_frame_delta,
    encode_image,
    encode_stream_policy,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ShardedDiffService",
    "ShardedServer",
    "ServerThread",
    "ShardClient",
]

#: The line-JSON wire protocol version.  Every response carries
#: ``"v": PROTOCOL_VERSION``; requests may carry ``"v"`` and a value
#: other than this one is rejected with a typed
#: :class:`~repro.errors.ProtocolError` (a missing ``"v"`` is accepted
#: as the current version, so pre-versioning clients keep working).
#: See the op-vocabulary table in ``docs/SERVING.md``.
PROTOCOL_VERSION = 1

#: The longest request line the TCP server reads, in bytes (newline
#: excluded).  A longer line gets one typed
#: :class:`~repro.errors.ProtocolError` reply naming this limit, and its
#: bytes are dropped as they arrive rather than buffered whole.
MAX_REQUEST_LINE = 4 * 1024 * 1024

#: Per-worker ``stats()`` fields that do not add up across workers (a
#: breaker state code, a failure rate): the fleet reports the worst
#: worker's value.
_WORST_WORKER_STATS = frozenset({"breaker_state", "breaker_failure_rate"})


# --------------------------------------------------------------------- #
# One worker process, seen from the front-end                           #
# --------------------------------------------------------------------- #
class _WorkerHandle:
    """A shard worker: the child process, its pipe, and the receiver
    thread that resolves request futures by sequence number.

    ``request`` may be called from any thread (sends are serialized
    under a lock); replies are read by the single receiver thread, so
    the pipe never sees concurrent reads.  If the worker process dies,
    every pending future fails with a typed
    :class:`~repro.errors.ServiceError` — no caller is left hanging.
    """

    def __init__(
        self,
        worker_id: int,
        options_wire: OptionsWire,
        policy: Optional[ResiliencePolicy],
        cache_bytes: int,
        ctx: Any,
    ) -> None:
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._process = ctx.Process(
            target=worker_main,
            args=(child_conn, worker_id, options_wire, policy, cache_bytes),
            name=f"repro-shard-{worker_id}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()  # the child owns its end now
        self._lock = threading.Lock()
        self._pending: Dict[int, "Future[Any]"] = {}
        self._next_seq = 0
        self._closed = False
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"repro-shard-recv-{worker_id}",
            daemon=True,
        )
        self._receiver.start()

    # -- request/reply -------------------------------------------------- #
    def request(self, kind: str, payload: Any = None) -> "Future[Any]":
        future: "Future[Any]" = Future()
        with self._lock:
            if self._closed:
                raise ServiceError(
                    f"shard worker {self.worker_id} is closed; no further "
                    f"requests accepted"
                )
            seq = self._next_seq
            self._next_seq += 1
            self._pending[seq] = future
            try:
                self._conn.send((kind, seq, payload))
            except (OSError, BrokenPipeError) as exc:
                self._pending.pop(seq, None)
                raise ServiceError(
                    f"shard worker {self.worker_id} pipe is broken "
                    f"({type(exc).__name__}) — worker presumed dead"
                ) from exc
        return future

    def call(self, kind: str, payload: Any = None, timeout: Optional[float] = None) -> Any:
        """Synchronous request (submit + wait)."""
        return self.request(kind, payload).result(timeout=timeout)

    def _receive_loop(self) -> None:
        while True:
            try:
                status, seq, payload = self._conn.recv()
            except (EOFError, OSError):
                break
            with self._lock:
                future = self._pending.pop(seq, None)
            if future is None:  # cancelled/duplicate — nothing to resolve
                continue
            if status == "ok":
                future.set_result(payload)
            else:
                future.set_exception(decode_error(payload))
        # the pipe is gone: fail everything still in flight
        with self._lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        if pending:
            # let the exit settle so the error names it (-N: signal N)
            self._process.join(timeout=1.0)
        for future in pending:
            if not future.done():
                future.set_exception(
                    ServiceError(
                        f"shard worker {self.worker_id} exited with the request "
                        f"still pending (exit code {self._process.exitcode})"
                    )
                )

    # -- lifecycle ------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        return bool(self._process.is_alive())

    def close(self, timeout: float = 5.0) -> None:
        """Ask the worker to drain and exit; escalate to terminate if it
        does not comply within ``timeout`` seconds.  Idempotent."""
        future: "Optional[Future[Any]]" = None
        with self._lock:
            already_closed = self._closed
        if not already_closed:
            try:
                future = self.request("close")
            except ServiceError:
                future = None
        if future is not None:
            try:
                future.result(timeout=timeout)
            except (ReproError, Exception):  # worker died mid-close: fine
                pass
        with self._lock:
            self._closed = True
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=timeout)
        # The receiver ends on EOF once the child's end is gone; closing
        # the pipe under its recv() makes CPython read a None handle.
        self._receiver.join(timeout=timeout)
        try:
            self._conn.close()
        except OSError:  # already closed by the receiver's EOF
            pass


# --------------------------------------------------------------------- #
# The sharded service                                                   #
# --------------------------------------------------------------------- #
class ShardedDiffService:
    """N shard workers behind a consistent-hash router.

    Parameters
    ----------
    options:
        The :class:`~repro.core.options.DiffOptions` every worker serves
        under.  Observability handles are stripped before crossing the
        process boundary — each worker records into a private registry;
        use :meth:`merged_registry` / :meth:`merged_snapshot` for the
        fleet-wide view.
    workers:
        Shard count (one process per shard).
    policy:
        :class:`~repro.service.resilience.ResiliencePolicy` for every
        worker's resilient service (``None``: the defaults).
    cache_bytes:
        Per-worker cache budget.  Shards cache disjoint content slices,
        so the effective fleet budget is ``workers * cache_bytes``.
    replicas:
        Virtual nodes per shard on the ring.
    trace_sample_rate:
        Fraction of requests whose spans are recorded and shipped back
        from the workers (decided deterministically per request id by
        :meth:`~repro.obs.context.RequestContext.sample`, so every
        process agrees).  1.0 traces everything; 0.0 disables span
        shipping without touching logs or metrics.

    Distributed observability: every request carries a
    :class:`~repro.obs.context.RequestContext`; the front-end records
    its own span (lane 0), re-records worker spans on lanes ``k+1``,
    stores the stitched set in :attr:`trace_store`, ingests
    worker-shipped log events into :attr:`log`, and measures end-to-end
    latency into the ``repro_request_latency_seconds`` family of
    :attr:`registry` (tier ``frontend``) with SLO-breach accounting
    against ``policy.slo_seconds``.
    """

    def __init__(
        self,
        options: Optional[DiffOptions] = None,
        workers: int = 2,
        policy: Optional[ResiliencePolicy] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        replicas: int = DEFAULT_REPLICAS,
        trace_sample_rate: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self.options = checked_options(
            options, IMAGE_DEFAULTS, "ShardedDiffService"
        ).without_observability()
        self.policy = policy
        self.trace_sample_rate = trace_sample_rate
        self.ring = ShardRing(workers, replicas)
        # Front-end observability: its own registry (the workers' merge
        # separately — see merged_registry), the fleet log, and the
        # stitched per-request trace store behind {"op": "trace"}.
        self.registry = MetricsRegistry()
        self.log = StructuredLog()
        self.trace_store = TraceStore()
        self._lifecycle = RequestLifecycle(
            "frontend",
            log=self.log,
            metrics=self.registry,
            slo_seconds=(
                policy.slo_seconds if policy is not None else DEFAULT_SLO_SECONDS
            ),
        )
        ctx = multiprocessing.get_context()
        # Partition the persistent tier per worker: the ring already
        # gives each shard a disjoint content slice, so sharing one
        # store directory would only serialize the workers on its
        # single-writer lock.  `<cache_dir>/worker-<i>` keeps every
        # worker a writer of its own slice, and a restarted fleet with
        # the same worker count re-opens the same partitions warm.
        self._workers = []
        for i in range(workers):
            worker_opts = self.options
            if worker_opts.cache_dir is not None:
                worker_opts = worker_opts.replace(
                    cache_dir=os.path.join(
                        worker_opts.cache_dir, f"worker-{i}"
                    )
                )
            self._workers.append(
                _WorkerHandle(
                    i, encode_options(worker_opts), policy, cache_bytes, ctx
                )
            )
        self._close_lock = threading.Lock()
        self._closed = False
        # Streaming session placement: session id -> shard index.  A
        # session sticks to one shard (its key frame stays hot in that
        # worker's cache); placement walks the ring's preference order
        # and skips dead workers, so a session lost with its shard
        # deterministically reopens on the next shard around the ring.
        self._stream_lock = threading.Lock()
        self._stream_shards: Dict[str, int] = {}

    # -- introspection -------------------------------------------------- #
    @property
    def workers(self) -> int:
        return len(self._workers)

    def ping(self, timeout: Optional[float] = 10.0) -> List[int]:
        """Round-trip every worker; returns their ids (readiness probe)."""
        futures = [handle.request("ping") for handle in self._workers]
        return [future.result(timeout=timeout) for future in futures]

    def worker_stats(self, timeout: Optional[float] = 10.0) -> List[Dict[str, float]]:
        """Each worker's ``stats()`` dict, in shard order."""
        futures = [handle.request("stats") for handle in self._workers]
        return [future.result(timeout=timeout) for future in futures]

    def stats(self, timeout: Optional[float] = 10.0) -> Dict[str, float]:
        """Fleet-wide stats: worker counters summed, ``hit_rate``
        recomputed from the summed hit/miss totals (a mean of per-shard
        rates would weight idle shards equally with hot ones), and
        ``breaker_state``/``breaker_failure_rate`` — a state code and a
        rate, which do not add — the worst (largest) worker's value.

        ``latency_*`` keys are quantiles, not counters — the per-worker
        values are dropped rather than summed, and the reported
        ``latency_p50``/``latency_p99`` are the *front-end's* end-to-end
        view (the ``repro_request_latency_seconds`` frontend series of
        :attr:`registry`, pooled over ops).
        ``slo_breaches`` sums the workers' service-side breaches with
        the front-end's end-to-end ones.
        """
        per_worker = self.worker_stats(timeout=timeout)
        totals: Dict[str, float] = {"workers": float(len(per_worker))}
        for stats in per_worker:
            for key, value in stats.items():
                if key == "hit_rate" or key.startswith("latency_"):
                    continue
                if key in _WORST_WORKER_STATS:
                    totals[key] = max(totals.get(key, value), value)
                else:
                    totals[key] = totals.get(key, 0.0) + value
        seen = totals.get("hits", 0.0) + totals.get("misses", 0.0)
        totals["hit_rate"] = totals.get("hits", 0.0) / seen if seen else 0.0
        totals["latency_p50"] = self._lifecycle.latency_quantile(0.5)
        totals["latency_p99"] = self._lifecycle.latency_quantile(0.99)
        totals["slo_breaches"] = (
            totals.get("slo_breaches", 0.0) + self._lifecycle.slo_breach_total()
        )
        return totals

    def health(self) -> Dict[str, Any]:
        """A cheap liveness/latency probe (the ``{"op": "health"}``
        server op): worker process liveness plus the front-end's p99
        and SLO burn.  Does not round-trip the workers — a hung worker
        shows up as ``alive`` until its process dies; use :meth:`ping`
        for a synchronous readiness check."""
        with self._close_lock:
            closed = self._closed
        alive = sum(1 for handle in self._workers if handle.alive)
        if closed:
            status = "closed"
        elif alive == len(self._workers):
            status = "healthy"
        else:
            status = "degraded"
        return {
            "status": status,
            "workers": len(self._workers),
            "workers_alive": alive,
            "latency_p99": self._lifecycle.latency_quantile(0.99),
            "slo_breaches": self._lifecycle.slo_breach_total(),
            "log_records": float(len(self.log)),
            "traces_stored": float(len(self.trace_store)),
        }

    def worker_snapshots(
        self, timeout: Optional[float] = 10.0
    ) -> List[MetricsSnapshot]:
        """Each worker's cumulative metrics snapshot, in shard order."""
        futures = [handle.request("snapshot") for handle in self._workers]
        return [future.result(timeout=timeout) for future in futures]

    def merged_registry(
        self, timeout: Optional[float] = 10.0
    ) -> MetricsRegistry:
        """A *fresh* registry holding every worker's snapshot merged.

        Fresh on every call because worker snapshots are cumulative —
        merging them into a long-lived registry twice would double every
        counter.  Export with the registry's existing ``to_json()`` /
        ``to_prometheus_text()``.
        """
        registry = MetricsRegistry()
        for snapshot in self.worker_snapshots(timeout=timeout):
            registry.merge_snapshot(snapshot)
        return registry

    def merged_snapshot(
        self, timeout: Optional[float] = 10.0
    ) -> MetricsSnapshot:
        """The fleet-wide :class:`~repro.obs.metrics.MetricsSnapshot`
        (equals the fold of the per-worker snapshots under
        :meth:`MetricsSnapshot.merge` — asserted by the benchmark)."""
        return self.merged_registry(timeout=timeout).snapshot()

    # -- requests ------------------------------------------------------- #
    def diff_rows(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        ctx: Optional[RequestContext] = None,
    ) -> List[XorRunResult]:
        """Scatter the pairs over the shards by content, gather, and
        reassemble in input order.

        All scattered slices are drained even when one fails, so no
        worker is left computing into an abandoned pipe; the first
        failure (in shard order) is then re-raised, typed.

        Every call runs under a :class:`~repro.obs.context.RequestContext`
        (a fresh one is generated when ``ctx`` is ``None``): the request
        id rides the pipe to every touched worker, worker spans and log
        events come back with the replies, and the stitched trace lands
        in :attr:`trace_store` under that id.
        """
        if ctx is None:
            ctx = RequestContext.new(sample_rate=self.trace_sample_rate)
        with self._lifecycle.track("diff_rows", ctx.request_id, len(rows_a)):
            return self._serve(list(rows_a), list(rows_b), ctx)

    def diff_images(self, image_a: RLEImage, image_b: RLEImage) -> ImageDiffResult:
        """Whole-image diff through the shards: :meth:`diff_rows` over
        the images' rows, with the same assembly contract as
        :meth:`DiffService.diff_images
        <repro.service.DiffService.diff_images>` (honours
        ``canonical``)."""
        ctx = RequestContext.new(sample_rate=self.trace_sample_rate)
        with self._lifecycle.track("diff_images", ctx.request_id, image_a.height):
            if image_a.shape != image_b.shape:
                raise GeometryError(
                    f"image shapes differ: {image_a.shape} vs {image_b.shape}"
                )
            rows = self._serve(list(image_a), list(image_b), ctx)
        return ImageDiffResult.assemble(rows, image_a.width, self.options.canonical)

    def _serve(
        self,
        rows_a: List[RLERow],
        rows_b: List[RLERow],
        ctx: RequestContext,
    ) -> List[XorRunResult]:
        if len(rows_a) != len(rows_b):
            raise GeometryError(
                f"row sequences differ in length: {len(rows_a)} vs {len(rows_b)}"
            )
        with self._close_lock:
            if self._closed:
                raise ServiceError("ShardedDiffService is closed")
        if not rows_a:
            return []
        # A per-request tracer (concurrent requests from the TCP
        # executor threads must not share one span stack); its spans are
        # stitched into the store when the request finishes.
        tracer = Tracer()
        try:
            with tracer.span(
                "sharded_diff_rows", request_id=ctx.request_id, rows=len(rows_a)
            ):
                return self._scatter_gather(rows_a, rows_b, ctx, tracer)
        finally:
            if ctx.sampled and tracer.spans:
                self.trace_store.add(ctx.request_id, tracer.spans)

    def _scatter_gather(
        self,
        rows_a: List[RLERow],
        rows_b: List[RLERow],
        ctx: RequestContext,
        tracer: Tracer,
    ) -> List[XorRunResult]:
        by_shard: Dict[int, List[int]] = {}
        for index, row_a in enumerate(rows_a):
            by_shard.setdefault(self.ring.shard_for_row(row_a), []).append(index)
        ctx_wire = encode_context(ctx)
        scattered: List[Tuple[int, List[int], "Future[Any]"]] = []
        first_error: Optional[BaseException] = None
        for shard, indices in sorted(by_shard.items()):
            payload = (
                tuple(encode_row(rows_a[i]) for i in indices),
                tuple(encode_row(rows_b[i]) for i in indices),
                ctx_wire,
            )
            try:
                future = self._workers[shard].request("diff_rows", payload)
            except ServiceError as exc:
                # the worker was already gone at send time (broken pipe
                # or receiver-marked closed) — same observability as a
                # death mid-flight; keep scattering so the surviving
                # shards are still driven and drained
                self._note_death(shard, ctx.request_id, exc)
                if first_error is None:
                    first_error = exc
                continue
            scattered.append((shard, indices, future))
        served: List[Optional[XorRunResult]] = [None] * len(rows_a)
        for shard, indices, future in scattered:
            try:
                wires, spans_wire, events_wire = future.result()
            except BaseException as exc:
                self._note_death(shard, ctx.request_id, exc)
                if first_error is None:
                    first_error = exc
                continue
            self._stitch(tracer, shard, spans_wire, events_wire)
            if len(wires) != len(indices):
                if first_error is None:
                    first_error = ServiceError(
                        f"shard {shard} returned {len(wires)} result(s) for "
                        f"{len(indices)} routed pair(s)"
                    )
                continue
            for index, wire in zip(indices, wires):
                served[index] = decode_result(wire)
        if first_error is not None:
            raise first_error
        # every index was routed exactly once and every shard returned a
        # full slice, so nothing can be unserved here — but the bulk
        # path's contract is checked, not assumed
        unfilled = [i for i, r in enumerate(served) if r is None]
        if unfilled:
            raise ServiceError(
                f"sharded serve left {len(unfilled)} of {len(served)} rows "
                f"unserved (first unfilled index {unfilled[0]})"
            )
        return [r for r in served if r is not None]

    def _note_death(self, shard: int, request_id: str, exc: BaseException) -> None:
        """Log ``worker_death`` when a failed shard call left its worker
        process dead."""
        if not self._workers[shard].alive:
            self.log.log(
                "worker_death",
                request_id=request_id,
                level="error",
                worker=shard,
                error=type(exc).__name__,
            )

    def _stitch(
        self,
        tracer: Tracer,
        shard: int,
        spans_wire: Sequence[SpanWire],
        events_wire: Sequence[EventWire],
    ) -> None:
        """Fold a worker reply's observability into the request: its log
        events into the fleet log, its spans onto lane ``shard + 1`` of
        the request's timeline (re-recorded from their durations, so
        clock skew cannot distort it)."""
        for event_wire in events_wire:
            self.log.ingest(decode_event(event_wire))
        for span_wire in spans_wire:
            name, duration_s, attributes = decode_span(span_wire)
            tracer.record_span(name, duration_s, lane=shard + 1, **attributes)

    # -- streaming sessions --------------------------------------------- #
    @staticmethod
    def _session_digest(session_id: str) -> bytes:
        return blake2b(session_id.encode("utf-8"), digest_size=8).digest()

    def _place_session(self, session_id: str) -> int:
        """The first *alive* shard in the session's ring-walk preference
        order — the consistent-hash placement with dead-worker failover."""
        for shard in self.ring.preference(self._session_digest(session_id)):
            if self._workers[shard].alive:
                return shard
        raise ServiceError("no shard worker is alive to host the session")

    def _session_shard(self, session_id: str) -> int:
        with self._stream_lock:
            shard = self._stream_shards.get(session_id)
        if shard is None:
            raise UnknownSessionError(
                f"unknown stream session {session_id!r} — it was never "
                f"opened on this front-end or was already closed; open a "
                f"session first"
            )
        return shard

    def _session_call(
        self, session_id: str, shard: int, kind: str, payload: Any
    ) -> Any:
        """One session op on the session's shard.  A shard that died
        under the session drops the placement, logs the death and
        raises a typed :class:`~repro.errors.UnknownSessionError`; the
        client recovers by reopening — placement then walks past the
        dead shard."""
        try:
            return self._workers[shard].call(kind, payload)
        except ReproError as exc:
            if self._workers[shard].alive:
                raise
            with self._stream_lock:
                if self._stream_shards.get(session_id) == shard:
                    del self._stream_shards[session_id]
            self._note_death(shard, session_id, exc)
            raise UnknownSessionError(
                f"stream session {session_id!r} was lost with shard worker "
                f"{shard} ({type(exc).__name__}); reopen the session — it "
                f"will remap to a live shard"
            ) from exc

    def stream_open(
        self,
        session_id: Optional[str] = None,
        policy: Optional[StreamPolicy] = None,
    ) -> str:
        """Open a streaming session on the shard its id hashes to.

        Routing is by session id on the same consistent-hash ring that
        routes ``diff_rows`` content, so every frame of the session
        lands on one worker and its key frame rows stay hot in that
        worker's cache.  Returns the session id (generated when
        ``None``); reuse it as the ``request_id`` parent when stitching
        stream traffic into a wider trace.
        """
        with self._close_lock:
            if self._closed:
                raise ServiceError("ShardedDiffService is closed")
        if session_id is None:
            session_id = new_request_id()
        shard = self._place_session(session_id)
        policy_wire = (
            encode_stream_policy(policy) if policy is not None else None
        )
        self._session_call(session_id, shard, "stream_open", (session_id, policy_wire))
        with self._stream_lock:
            self._stream_shards[session_id] = shard
        self.log.log(
            "stream_opened",
            request_id=session_id,
            level="info",
            tier="frontend",
            worker=shard,
        )
        return session_id

    def stream_frame(
        self,
        session_id: str,
        frame: RLEImage,
        ctx: Optional[RequestContext] = None,
    ) -> FrameDelta:
        """Append one frame to a session; returns its
        :class:`~repro.service.stream.FrameDelta`.

        Runs under a :class:`~repro.obs.context.RequestContext` whose
        ``parent_id`` is the session id (generated when ``ctx`` is
        ``None``), with the same end-to-end latency/SLO accounting,
        span stitching and log ingestion as :meth:`diff_rows`.  A shard
        dying mid-session surfaces as a typed
        :class:`~repro.errors.UnknownSessionError` telling the caller
        to reopen; breaker sheds arrive as
        :class:`~repro.errors.ServiceOverloadError`.
        """
        with self._close_lock:
            if self._closed:
                raise ServiceError("ShardedDiffService is closed")
        shard = self._session_shard(session_id)
        if ctx is None:
            ctx = RequestContext.new(
                parent_id=session_id, sample_rate=self.trace_sample_rate
            )
        tracer = Tracer()
        try:
            with self._lifecycle.track(
                "stream_frame", ctx.request_id, frame.height
            ), tracer.span(
                "sharded_stream_frame",
                request_id=ctx.request_id,
                session_id=session_id,
                worker=shard,
            ):
                payload = (session_id, encode_image(frame), encode_context(ctx))
                wire, spans_wire, events_wire = self._session_call(
                    session_id, shard, "stream_frame", payload
                )
                self._stitch(tracer, shard, spans_wire, events_wire)
                return decode_frame_delta(wire)
        finally:
            if ctx.sampled and tracer.spans:
                self.trace_store.add(ctx.request_id, tracer.spans)

    def stream_close(self, session_id: str) -> Dict[str, float]:
        """End a session; returns its final stats dict."""
        shard = self._session_shard(session_id)
        with self._stream_lock:
            self._stream_shards.pop(session_id, None)
        stats = self._session_call(session_id, shard, "stream_close", session_id)
        self.log.log(
            "stream_closed",
            request_id=session_id,
            level="info",
            tier="frontend",
            worker=shard,
            frames=int(stats.get("frames", 0.0)),
            rekeys=int(stats.get("rekeys", 0.0)),
        )
        return dict(stats)

    def stream_stats(
        self, session_id: Optional[str] = None
    ) -> Dict[str, float]:
        """One session's stats, or (with ``None``) the fleet-wide
        aggregate over every worker's open sessions."""
        if session_id is not None:
            shard = self._session_shard(session_id)
            return dict(
                self._session_call(session_id, shard, "stream_stats", session_id)
            )
        futures = []
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                futures.append(handle.request("stream_stats", None))
            except ServiceError:
                continue
        totals: Dict[str, float] = {}
        for future in futures:
            try:
                stats = future.result()
            except ReproError:
                continue
            for key, value in stats.items():
                if key == "compression_ratio":
                    continue
                totals[key] = totals.get(key, 0.0) + value
        shipped = totals.get("shipped_runs", 0.0)
        totals["compression_ratio"] = (
            totals.get("raw_runs", 0.0) / shipped if shipped else 1.0
        )
        return totals

    def stream_sessions(self) -> List[str]:
        """The ids of every session this front-end currently routes."""
        with self._stream_lock:
            return sorted(self._stream_shards)

    # -- lifecycle ------------------------------------------------------ #
    def close(self, timeout: float = 5.0) -> None:
        """Drain and stop every worker.  Idempotent."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for handle in self._workers:
            handle.close(timeout=timeout)

    def __enter__(self) -> "ShardedDiffService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
# The TCP front-end (newline-delimited JSON)                            #
# --------------------------------------------------------------------- #
class ShardedServer:
    """An asyncio TCP server over a :class:`ShardedDiffService`.

    Protocol: one JSON object per line in, one per line out.  Requests
    carry an ``op``; responses carry ``ok`` plus either the result
    fields or ``error``/``message`` (the error name matching the typed
    :mod:`repro.errors` class a local caller would have caught).  A
    client-supplied ``id`` field is echoed verbatim on *every* response
    to that request — success or error — so pipelined clients can match
    replies without counting lines:

    ``{"op": "ping"}``
        ``{"ok": true, "workers": N}``
    ``{"op": "diff_rows", "rows_a": [[pairs, width], ...], "rows_b": ...,
    "request_id": "<optional parent trace id>"}``
        ``{"ok": true, "request_id": "<server-assigned id>",
        "results": [[pairs, width, iterations, k1, k2, n_cells,
        stats_items], ...]}`` — the returned ``request_id`` keys the
        stitched trace behind ``{"op": "trace"}``; a client-supplied
        ``request_id`` becomes the context's ``parent_id``
    ``{"op": "stats"}``
        ``{"ok": true, "stats": {...}}`` (fleet-wide, counters summed)
    ``{"op": "health"}``
        ``{"ok": true, "health": {...}}`` (liveness + p99 + SLO burn)
    ``{"op": "trace", "request_id": "<id>"}``
        ``{"ok": true, "trace": {...}}`` — the stitched
        ``repro.trace/v1`` Chrome document for that request; without
        ``request_id``, ``{"ok": true, "request_ids": [...]}``
    ``{"op": "logs"}``
        ``{"ok": true, "logs": [...]}`` — the front-end's structured
        log records (``repro.log/v1``), worker events included
    ``{"op": "metrics", "format": "json" | "prometheus"}``
        the merged cross-worker registry through the existing exporters
    ``{"op": "stream_open"}`` / ``{"op": "stream_frame"}`` /
    ``{"op": "stream_close"}`` / ``{"op": "stream_stats"}``
        the streaming session vocabulary (see
        :mod:`repro.service.stream` and the table in ``docs/SERVING.md``)

    The protocol is versioned: every response carries
    ``"v": PROTOCOL_VERSION``; a request may declare its version the
    same way, and an unsupported one — like an unknown ``op``, a
    non-JSON line or one longer than :data:`MAX_REQUEST_LINE` — is
    rejected with a typed :class:`~repro.errors.ProtocolError` rather
    than a generic failure or a closed connection.

    Dispatch runs in the loop's default executor so a long engine batch
    never blocks other connections' reads.
    """

    def __init__(
        self,
        service: ShardedDiffService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._rejects = service.registry.counter(
            "repro_protocol_rejects_total",
            "typed ProtocolError replies sent, by reason",
            ("reason",),
        )

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_REQUEST_LINE
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # server shutdown cancels handlers parked on a read or a
            # close; ending the task normally (instead of cancelled)
            # keeps asyncio's stream callback from logging a traceback
            pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                # lines that never reach _dispatch (over the limit, bad
                # UTF-8, invalid or too deeply nested JSON) get their
                # version stamp here
                if line is None:
                    response = self._rejected(
                        ProtocolError(
                            f"request line exceeds the {MAX_REQUEST_LINE}-byte "
                            f"limit (see docs/SERVING.md); the line was discarded",
                            reason="line_too_long",
                        )
                    )
                    response["v"] = PROTOCOL_VERSION
                else:
                    try:
                        request = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        response = self._rejected(
                            ProtocolError(
                                f"request is not valid JSON: {exc}",
                                reason=(
                                    "nesting_too_deep"
                                    if isinstance(exc, RecursionError)
                                    else "invalid_json"
                                ),
                            )
                        )
                        response["v"] = PROTOCOL_VERSION
                    else:
                        response = await loop.run_in_executor(
                            None, self._dispatch, request
                        )
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # peer already gone
                pass

    def _rejected(self, exc: ProtocolError) -> Dict[str, Any]:
        """The reply to a request the protocol rejects, counted by reason."""
        self._rejects.labels(reason=exc.reason).inc()
        return _error_response(exc)

    def _dispatch(self, request: Any) -> Dict[str, Any]:
        response = self._dispatch_inner(request)
        # every response — errors included — declares the protocol
        # version it speaks, and echoes a client-supplied id so
        # pipelined clients can match replies
        response["v"] = PROTOCOL_VERSION
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        return response

    def _dispatch_inner(self, request: Any) -> Dict[str, Any]:
        try:
            if not isinstance(request, dict):
                raise ProtocolError(
                    f"request must be a JSON object, got {type(request).__name__}",
                    reason="not_object",
                )
            version = request.get("v", PROTOCOL_VERSION)
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {version!r}; this server "
                    f"speaks v{PROTOCOL_VERSION} (see docs/SERVING.md)",
                    reason="unsupported_version",
                )
            op = request.get("op")
            if op == "ping":
                self.service.ping()
                return {"ok": True, "workers": self.service.workers}
            if op == "diff_rows":
                rows_a = _field(request, "rows_a", _rows_from_json, ())
                rows_b = _field(request, "rows_b", _rows_from_json, ())
                parent = request.get("request_id")
                ctx = RequestContext.new(
                    parent_id=str(parent) if parent is not None else None,
                    sample_rate=self.service.trace_sample_rate,
                )
                results = self.service.diff_rows(rows_a, rows_b, ctx=ctx)
                return {
                    "ok": True,
                    "request_id": ctx.request_id,
                    "results": [encode_result(r) for r in results],
                }
            if op == "stats":
                return {"ok": True, "stats": self.service.stats()}
            if op == "health":
                return {"ok": True, "health": self.service.health()}
            if op == "trace":
                request_id = request.get("request_id")
                if request_id is None:
                    return {
                        "ok": True,
                        "request_ids": self.service.trace_store.request_ids(),
                    }
                return {
                    "ok": True,
                    "trace": self.service.trace_store.to_chrome_trace(
                        str(request_id)
                    ),
                }
            if op == "logs":
                return {"ok": True, "logs": self.service.log.records()}
            if op == "metrics":
                registry = self.service.merged_registry()
                if request.get("format") == "prometheus":
                    return {"ok": True, "prometheus": registry.to_prometheus_text()}
                return {"ok": True, "metrics": registry.to_json()}
            if op == "stream_open":
                session_id = request.get("session_id")
                policy = None
                if "rekey_ratio" in request or "max_chain" in request:
                    defaults = StreamPolicy()
                    policy = StreamPolicy(
                        rekey_ratio=_field(
                            request, "rekey_ratio", _json_real, defaults.rekey_ratio
                        ),
                        max_chain=_field(
                            request, "max_chain", _json_int, defaults.max_chain
                        ),
                    )
                opened = self.service.stream_open(
                    session_id=(
                        str(session_id) if session_id is not None else None
                    ),
                    policy=policy,
                )
                return {"ok": True, "session_id": opened}
            if op == "stream_frame":
                session_id = _required_session_id(request)
                if request.get("frame") is None:
                    raise ProtocolError(
                        'stream_frame requires a "frame" field', reason="missing_field"
                    )
                frame = _field(request, "frame", _frame_from_json)
                ctx = RequestContext.new(
                    parent_id=session_id,
                    sample_rate=self.service.trace_sample_rate,
                )
                delta = self.service.stream_frame(session_id, frame, ctx=ctx)
                return {
                    "ok": True,
                    "session_id": session_id,
                    "request_id": ctx.request_id,
                    "delta": encode_frame_delta(delta),
                }
            if op == "stream_close":
                session_id = _required_session_id(request)
                return {
                    "ok": True,
                    "session_id": session_id,
                    "stats": self.service.stream_close(session_id),
                }
            if op == "stream_stats":
                session_id = request.get("session_id")
                return {
                    "ok": True,
                    "stats": self.service.stream_stats(
                        str(session_id) if session_id is not None else None
                    ),
                }
            raise ProtocolError(
                f"unknown op {op!r}; see the op-vocabulary table in "
                f"docs/SERVING.md",
                reason="unknown_op",
            )
        except ProtocolError as exc:
            return self._rejected(exc)
        except ReproError as exc:
            return _error_response(exc)
        except Exception as exc:  # nothing untyped crosses the socket
            return _error_response(
                ServiceError(f"untyped {type(exc).__name__}: {exc}")
            )


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at end of stream), or ``None`` for
    a line over :data:`MAX_REQUEST_LINE`, whose bytes are dropped as they
    arrive instead of being buffered."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


def _error_response(exc: ReproError) -> Dict[str, Any]:
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def _required_session_id(request: Dict[str, Any]) -> str:
    session_id = request.get("session_id")
    if session_id is None:
        raise ProtocolError(
            f'op {request.get("op")!r} requires a "session_id" field',
            reason="missing_field",
        )
    return str(session_id)


_T = TypeVar("_T")


def _field(
    request: Dict[str, Any],
    name: str,
    convert: Callable[[Any], _T],
    default: Any = None,
) -> _T:
    """``convert`` applied to the request's ``name`` field (``default``
    when absent).  A value of the wrong shape or type — whatever
    ``convert`` fails on with ``TypeError``, ``ValueError`` or
    ``OverflowError`` — is a typed ``ProtocolError`` naming the field
    (reason ``malformed_field``); a well-shaped value with invalid runs
    keeps its own typed error (``EncodingError``, ``GeometryError``)."""
    try:
        return convert(request.get(name, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(
            f"malformed {name!r} field ({type(exc).__name__}: {exc}); see "
            f"the op-vocabulary table in docs/SERVING.md",
            reason="malformed_field",
        ) from exc


def _json_int(value: Any) -> int:
    """A JSON integer.  Floats, strings and ``null`` fail ``index``;
    ``true``/``false``, which Python reads as ints, are refused here."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return index(value)


def _json_real(value: Any) -> float:
    """A JSON number.  ``NaN`` and ``Infinity``, which Python's ``json``
    reads but JSON does not define, are refused, as are booleans."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def _row_from_json(pairs: Any, width: int) -> RLERow:
    # ``index``, not ``int()``: a float run value is refused, not truncated
    return RLERow.from_pairs(
        [(index(start), index(length)) for start, length in pairs], width=width
    )


def _rows_from_json(wires: Any) -> List[RLERow]:
    """``rows_a``/``rows_b`` in wire form: ``[[pairs, width], ...]``."""
    return [_row_from_json(pairs, _json_int(width)) for pairs, width in wires]


def _frame_from_json(wire: Any) -> RLEImage:
    """``frame`` in wire form: ``[[pairs, ...], width]``."""
    rows, width = wire
    width = _json_int(width)
    return RLEImage((_row_from_json(pairs, width) for pairs in rows), width=width)


class ServerThread:
    """A :class:`ShardedServer` hosted on a background event loop.

    ``start()`` blocks until the listening socket is bound (so the
    caller can read ``port`` immediately); ``stop()`` shuts down the
    server, the loop and the thread.  The service itself is *not*
    closed — the owner constructed it, the owner closes it.
    """

    def __init__(
        self,
        service: ShardedDiffService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = ShardedServer(service, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-shard-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=timeout):
            raise ServiceError(
                f"server did not start listening within {timeout:g}s"
            )
        if self._startup_error is not None:
            raise ServiceError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            # connection handlers may still be parked on a readline();
            # cancel them so the loop closes clean
            pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


# --------------------------------------------------------------------- #
# A blocking client for the line-JSON protocol                          #
# --------------------------------------------------------------------- #
class ShardClient:
    """A minimal synchronous client for :class:`ShardedServer`.

    One persistent connection, requests answered in order.  Worker-side
    typed errors are re-raised locally via
    :func:`~repro.service.shard.decode_error`, so remote and in-process
    callers handle the same exception classes.

    After a :meth:`diff_rows` (or :meth:`diff_images`) round-trip,
    :attr:`last_request_id` holds the server-assigned request id — feed
    it to :meth:`trace` to fetch that request's stitched distributed
    trace.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        #: the server-assigned request id of the most recent diff call
        self.last_request_id: Optional[str] = None

    def _roundtrip(self, request: Dict[str, Any]) -> Dict[str, Any]:
        request.setdefault("v", PROTOCOL_VERSION)
        self._sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        line = self._reader.readline()
        if not line:
            raise ServiceError("server closed the connection mid-request")
        response = json.loads(line)
        if not response.get("ok"):
            raise decode_error(
                (response.get("error", "ServiceError"), response.get("message", ""))
            )
        return response

    def ping(self) -> int:
        """Round-trip the server and every worker; returns worker count."""
        return int(self._roundtrip({"op": "ping"})["workers"])

    def diff_rows(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        request_id: Optional[str] = None,
    ) -> List[XorRunResult]:
        """Diff row pairs; an optional ``request_id`` becomes the
        server-side context's ``parent_id`` (for callers stitching this
        call into their own trace)."""
        request: Dict[str, Any] = {
            "op": "diff_rows",
            "rows_a": [encode_row(r) for r in rows_a],
            "rows_b": [encode_row(r) for r in rows_b],
        }
        if request_id is not None:
            request["request_id"] = request_id
        response = self._roundtrip(request)
        self.last_request_id = response.get("request_id")
        return [_result_from_json(wire) for wire in response["results"]]

    def diff_images(self, image_a: RLEImage, image_b: RLEImage) -> List[XorRunResult]:
        """Row results for two equal-shape images (the caller assembles
        an image if it wants one — the wire carries row results)."""
        if image_a.shape != image_b.shape:
            raise GeometryError(
                f"image shapes differ: {image_a.shape} vs {image_b.shape}"
            )
        return self.diff_rows(list(image_a), list(image_b))

    # -- streaming sessions --------------------------------------------- #
    def stream_open(
        self,
        session_id: Optional[str] = None,
        rekey_ratio: Optional[float] = None,
        max_chain: Optional[int] = None,
    ) -> str:
        """Open a streaming session; returns its id (server-generated
        when ``session_id`` is ``None``).  ``rekey_ratio``/``max_chain``
        override the server's default
        :class:`~repro.service.stream.StreamPolicy`."""
        request: Dict[str, Any] = {"op": "stream_open"}
        if session_id is not None:
            request["session_id"] = session_id
        if rekey_ratio is not None:
            request["rekey_ratio"] = rekey_ratio
        if max_chain is not None:
            request["max_chain"] = max_chain
        return str(self._roundtrip(request)["session_id"])

    def stream_frame(self, session_id: str, frame: RLEImage) -> FrameDelta:
        """Append one frame; returns the
        :class:`~repro.service.stream.FrameDelta` to apply client-side
        (XOR the delta onto the previous decoded frame; frame 0's delta
        *is* the key frame)."""
        response = self._roundtrip(
            {
                "op": "stream_frame",
                "session_id": session_id,
                "frame": encode_image(frame),
            }
        )
        self.last_request_id = response.get("request_id")
        return decode_frame_delta(response["delta"])

    def stream_close(self, session_id: str) -> Dict[str, float]:
        """End a session; returns its final stats dict."""
        return dict(
            self._roundtrip({"op": "stream_close", "session_id": session_id})[
                "stats"
            ]
        )

    def stream_stats(self, session_id: Optional[str] = None) -> Dict[str, float]:
        """One session's stats, or the fleet aggregate with ``None``."""
        request: Dict[str, Any] = {"op": "stream_stats"}
        if session_id is not None:
            request["session_id"] = session_id
        return dict(self._roundtrip(request)["stats"])

    def stats(self) -> Dict[str, float]:
        return dict(self._roundtrip({"op": "stats"})["stats"])

    def health(self) -> Dict[str, Any]:
        """The server's health probe (status, liveness, p99, SLO burn)."""
        return dict(self._roundtrip({"op": "health"})["health"])

    def trace(self, request_id: Optional[str] = None) -> Any:
        """One request's stitched ``repro.trace/v1`` Chrome document, or
        the list of stored request ids when ``request_id`` is ``None``."""
        if request_id is None:
            return list(self._roundtrip({"op": "trace"})["request_ids"])
        return self._roundtrip({"op": "trace", "request_id": request_id})["trace"]

    def logs(self) -> List[Dict[str, Any]]:
        """The front-end's structured ``repro.log/v1`` records (worker
        events already stitched in)."""
        return list(self._roundtrip({"op": "logs"})["logs"])

    def metrics_json(self) -> Dict[str, Any]:
        return dict(self._roundtrip({"op": "metrics", "format": "json"})["metrics"])

    def metrics_prometheus(self) -> str:
        return str(
            self._roundtrip({"op": "metrics", "format": "prometheus"})["prometheus"]
        )

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _result_from_json(wire: Any) -> XorRunResult:
    pairs, width, iterations, k1, k2, n_cells, stat_items = wire
    return decode_result(
        (
            tuple((int(s), int(l)) for s, l in pairs),
            width,
            int(iterations),
            int(k1),
            int(k2),
            int(n_cells),
            tuple((str(name), int(count)) for name, count in stat_items),
        )
    )
