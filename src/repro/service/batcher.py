"""Request coalescing: many callers, one batch per tick.

The batched engine's whole advantage is width — stepping many lanes per
NumPy operation — but a *service* receives rows one request at a time.
:class:`RowDiffBatcher` closes that gap: submissions land in a bounded
queue, a single worker thread drains it once per tick (up to
``max_batch`` requests, waiting at most ``max_latency`` seconds for
stragglers), serves what it can from the :class:`~repro.service.cache.DiffCache`,
dedupes identical pending pairs, and runs the remainder as **one**
:class:`~repro.core.batched.BatchedXorEngine` batch.  Callers get
:class:`concurrent.futures.Future` objects back, so a hundred threads
submitting concurrently cost one batch, not a hundred row runs.

Backpressure is explicit: the queue is bounded (``max_pending``) and a
full queue raises :class:`~repro.errors.ServiceOverloadError` instead of
buffering without limit — callers retry or shed load.

Determinism note: a batched run sizes its lanes to the *widest* pair in
the batch, so the raw per-row ``n_cells`` would depend on which requests
happened to share a tick.  :func:`compute_row_diffs` therefore rewrites
``n_cells`` to the per-row :func:`~repro.core.machine.default_cell_count`
whenever the options leave sizing automatic.  Iterations, stats and the
result row are already batch-width-invariant (the engine's active-lane
mask guarantees it; the equivalence tests assert it), so after this
rewrite a result is a pure function of ``(row_a, row_b, options)`` —
exactly what a content-addressed cache requires.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, cast

from repro.errors import ServiceError, ServiceOverloadError
from repro.rle.row import RLERow
from repro.core.api import diff_rows
from repro.core.machine import XorRunResult, default_cell_count
from repro.core.options import DiffOptions
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import CacheKey, DiffCache, row_fingerprint

__all__ = ["ComputeFn", "compute_row_diffs", "RowDiffBatcher"]

#: Signature of the engine-batch compute hook: ``(options, rows_a,
#: rows_b) -> results``.  :func:`compute_row_diffs` is the default;
#: :class:`~repro.service.chaos.ChaosEngine` and the retry wrapper of
#: :class:`~repro.service.resilience.ResilientDiffService` are drop-in
#: replacements, which is how faults and recovery policies reach the
#: serving path without mocks.
ComputeFn = Callable[
    [DiffOptions, Sequence[RLERow], Sequence[RLERow]], List[XorRunResult]
]

#: Default coalescing window: how long the worker waits for more
#: requests after the first one of a tick arrives.
DEFAULT_MAX_LATENCY = 0.002

#: Default maximum requests per engine batch.
DEFAULT_MAX_BATCH = 256

#: Default bound on queued-but-unserved requests before
#: :class:`~repro.errors.ServiceOverloadError` fires.
DEFAULT_MAX_PENDING = 4096


def compute_row_diffs(
    options: DiffOptions,
    rows_a: Sequence[RLERow],
    rows_b: Sequence[RLERow],
) -> List[XorRunResult]:
    """Fresh (uncached) diffs for ``len(rows_a)`` row pairs, through
    :func:`repro.core.api.diff_rows` (one batch on the ``"batched"``
    engine, a per-row loop on the others).

    Observability handles are stripped first — the service records
    through its own cache/batch metrics, and results must not depend on
    who was watching.  With automatic sizing (``options.n_cells is
    None``) a batch's shared ``n_cells`` is rewritten to each row's own
    :func:`~repro.core.machine.default_cell_count` so the result is
    independent of batch composition (see the module docstring); the
    sequential engine's 0 (no array) is kept.
    """
    opts = options.without_observability()
    results = diff_rows(rows_a, rows_b, opts)
    if opts.n_cells is not None:
        return results
    return [
        replace(r, n_cells=default_cell_count(r.k1, r.k2)) if r.n_cells else r
        for r in results
    ]


class _Request:
    """One pending row pair and the future its caller is waiting on."""

    __slots__ = ("row_a", "row_b", "future")

    def __init__(self, row_a: RLERow, row_b: RLERow) -> None:
        self.row_a = row_a
        self.row_b = row_b
        self.future: "Future[XorRunResult]" = Future()


class RowDiffBatcher:
    """A worker thread that coalesces row-diff requests into batches.

    Parameters
    ----------
    options:
        The :class:`~repro.core.options.DiffOptions` every request in
        this batcher runs under (one batcher = one options bundle; the
        :class:`~repro.service.DiffService` owns the mapping).
    cache:
        Optional :class:`~repro.service.cache.DiffCache` consulted
        before computing and updated after.  ``None`` disables caching
        (every request computes).
    max_batch:
        Hard cap on requests per engine batch.
    max_latency:
        Seconds the worker waits for more requests after a tick's first
        arrival — the latency cost of coalescing, bounded and
        configurable.
    max_pending:
        Queue bound; :meth:`submit` past it raises
        :class:`~repro.errors.ServiceOverloadError`.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` batch sizes land
        in (the ``repro_service_batch_size`` histogram) with request
        outcomes (``repro_service_requests_total``, ``outcome`` =
        ``hit`` / ``computed`` / ``coalesced``); a private registry when
        ``None``.  :meth:`totals` reads those series.
    compute:
        The :data:`ComputeFn` run per engine batch (default
        :func:`compute_row_diffs`).  Injection point for the chaos and
        resilience layers.
    """

    def __init__(
        self,
        options: DiffOptions,
        cache: Optional[DiffCache] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        metrics: "Optional[MetricsRegistry]" = None,
        compute: Optional[ComputeFn] = None,
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if max_latency < 0:
            raise ServiceError(f"max_latency must be >= 0, got {max_latency}")
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self.options = options.without_observability()
        self.cache = cache
        self._compute: ComputeFn = (
            compute if compute is not None else compute_row_diffs
        )
        self.max_batch = max_batch
        self.max_latency = max_latency
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue(
            maxsize=max_pending
        )
        self._closed = False
        self._close_lock = threading.Lock()
        #: Held around every bump of the request and batch series:
        #: :meth:`serve` runs on the worker thread (queued path) *and* on
        #: caller threads (the service's bulk path), and :meth:`totals`
        #: must not pair one request's outcomes with a stale batch count.
        self._stats_lock = threading.Lock()
        registry = metrics if metrics is not None else MetricsRegistry()
        outcomes = registry.counter(
            "repro_service_requests_total",
            "row-diff service requests by outcome",
            ("outcome",),
        )
        self._m_hit = outcomes.labels(outcome="hit")
        self._m_computed = outcomes.labels(outcome="computed")
        self._m_coalesced = outcomes.labels(outcome="coalesced")
        self._m_batch_size = registry.histogram(
            "repro_service_batch_size",
            "unique misses computed per engine batch (cache hits and "
            "coalesced duplicates excluded)",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        ).labels()
        self._worker = threading.Thread(
            target=self._run, name="repro-diff-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Submission                                                         #
    # ------------------------------------------------------------------ #
    def submit(self, row_a: RLERow, row_b: RLERow) -> "Future[XorRunResult]":
        """Enqueue one row pair; the returned future resolves to the
        same :class:`~repro.core.machine.XorRunResult` a direct
        :func:`~repro.core.api.row_diff` call would produce.

        Raises :class:`~repro.errors.ServiceOverloadError` when the
        queue is full and :class:`~repro.errors.ServiceError` after
        :meth:`close`.
        """
        with self._close_lock:
            if self._closed:
                raise ServiceError("submit() after close()")
        request = _Request(row_a, row_b)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            raise ServiceOverloadError(
                f"request queue full ({self._queue.maxsize} pending); "
                f"retry later or raise max_pending"
            ) from None
        return request.future

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting requests, drain the queue, join the worker.

        Idempotent.  Already-queued requests complete; their futures
        resolve normally.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)
        # A submit() racing close() can slip a request in behind the
        # sentinel; fail it explicitly rather than strand its future.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                return
            if leftover is not None:
                leftover.future.set_exception(ServiceError("service closed"))

    def __enter__(self) -> "RowDiffBatcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def totals(self) -> Tuple[int, int]:
        """Consistent ``(requests, batches)`` snapshot under the stats
        lock — the read-side counterpart of the locked bumps in
        :meth:`serve`.  ``requests`` is the sum of the
        ``repro_service_requests_total`` outcome series and ``batches``
        the count of ``repro_service_batch_size`` observations.
        """
        with self._stats_lock:
            requests = (
                self._m_hit.read() + self._m_computed.read() + self._m_coalesced.read()
            )
            _, _, batches = self._m_batch_size.snap()
        return int(requests), batches

    # ------------------------------------------------------------------ #
    # Worker                                                             #
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            head = self._queue.get()
            if head is None:
                return
            batch = [head]
            deadline = time.monotonic() + self.max_latency
            stop = False
            while len(batch) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is None:
                    stop = True
                    break
                batch.append(item)
            # the tick is over — take whatever already queued, without waiting
            while not stop and len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    stop = True
                    break
                batch.append(item)
            self._serve(batch)
            if stop:
                return

    def _serve(self, batch: List[_Request]) -> None:
        try:
            results = self.serve(
                [request.row_a for request in batch],
                [request.row_b for request in batch],
                self.cache,
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to callers
            for request in batch:
                request.future.set_exception(exc)
            return
        for request, result in zip(batch, results):
            request.future.set_result(result)

    # ------------------------------------------------------------------ #
    # The serving step shared by the queue and bulk requests             #
    # ------------------------------------------------------------------ #
    def serve(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        cache: Optional[DiffCache],
    ) -> List[XorRunResult]:
        """Results for ``len(rows_a)`` row pairs, in input order.

        Probes ``cache`` for every pair, dedupes the misses so identical
        pairs cost one lane, runs the unique misses as **one** engine
        batch and stores them.  A batcher tick runs this over its queued
        requests and :meth:`DiffService.diff_rows
        <repro.service.DiffService.diff_rows>` over a bulk request, so
        both land in the same ``repro_service_*`` series (which
        :meth:`totals` reads) — recorded before the compute, so a failed
        batch is still counted.
        """
        served: List[Optional[XorRunResult]] = [None] * len(rows_a)
        waiters: Dict[CacheKey, List[int]] = {}
        order: List[Tuple[CacheKey, int]] = []
        options_key = self.options.cache_key()
        hits = 0
        for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            if cache is None:
                key = (row_fingerprint(row_a), row_fingerprint(row_b), options_key)
            else:
                key = cache.key_for(row_a, row_b, self.options)
                hit = cache.get(key, row_a, row_b)
                if hit is not None:
                    served[i] = hit
                    hits += 1
                    continue
            indices = waiters.get(key)
            if indices is None:
                waiters[key] = [i]
                order.append((key, i))
            else:
                indices.append(i)
        coalesced = len(served) - hits - len(order)
        with self._stats_lock:
            if hits:
                self._m_hit.inc(hits)
            if order:
                self._m_computed.inc(len(order))
                self._m_batch_size.observe(float(len(order)))
            if coalesced:
                self._m_coalesced.inc(coalesced)
        if order:
            results = self._compute(
                self.options,
                [rows_a[i] for _, i in order],
                [rows_b[i] for _, i in order],
            )
            # A ComputeFn returning the wrong number of results would
            # silently drop trailing misses under zip (short images,
            # futures that never resolve); fail the batch typed instead.
            if len(results) != len(order):
                raise ServiceError(
                    f"compute returned {len(results)} result(s) for "
                    f"{len(order)} unique miss(es); refusing to serve a "
                    f"mismatched batch"
                )
            for (key, i), result in zip(order, results):
                if cache is not None:
                    cache.put(key, rows_a[i], rows_b[i], result)
                for j in waiters[key]:
                    served[j] = result
        return cast(List[XorRunResult], served)
