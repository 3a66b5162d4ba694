"""The long-lived differencing service.

A deployment of the paper's array is not a function call — it is a
fixture: one physical array, loaded row pair after row pair, serving
whatever the host pipeline sends.  :class:`DiffService` is the software
analogue.  Construct it once with a
:class:`~repro.core.options.DiffOptions`, keep it alive, and push row or
image diffs through it; behind the single entry point sit the
content-addressed result cache (:class:`~repro.service.cache.DiffCache`)
and the request batcher (:class:`~repro.service.batcher.RowDiffBatcher`),
so repeated content is never recomputed and concurrent submissions share
engine batches.

The contract is strict: a served result is **byte-identical** to what
the same service would compute with caching disabled (the property tests
assert it field by field).  With an explicit ``n_cells`` it is also
identical to a direct :func:`~repro.core.pipeline.diff_images` call;
with automatic sizing the only difference is the documented ``n_cells``
normalization (see :mod:`repro.service.batcher`).

Usage::

    from repro.core.options import DiffOptions
    from repro.service import DiffService

    with DiffService(DiffOptions(engine="batched")) as svc:
        first = svc.diff_images(frame0, frame1)
        again = svc.diff_images(frame0, frame1)   # served from cache
        print(svc.cache.hit_rate)                 # 1.0 second time round
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence

from repro.errors import GeometryError
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.machine import XorRunResult
from repro.core.options import IMAGE_DEFAULTS, DiffOptions, checked_options
from repro.core.pipeline import ImageDiffResult
from repro.obs.log import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.service.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_LATENCY,
    DEFAULT_MAX_PENDING,
    ComputeFn,
    RowDiffBatcher,
)
from repro.service.cache import DEFAULT_CACHE_BYTES, DiffCache
from repro.service.lifecycle import DEFAULT_SLO_SECONDS, RequestLifecycle
from repro.service.store import DEFAULT_DISK_BUDGET, RowStore

__all__ = ["DiffService"]


class DiffService:
    """Cached, batched row/image differencing behind one entry point.

    Parameters
    ----------
    options:
        The :class:`~repro.core.options.DiffOptions` every request runs
        under (default: the image defaults — batched engine, automatic
        sizing); anything else raises
        :class:`~repro.errors.OptionsError`, as the functional API does
        (:func:`~repro.core.options.checked_options`).  The ``metrics``
        handle is the registry the cache, disk-tier and batch series
        are counted in (a private one when ``None``), and
        :meth:`stats` reads them there; the other observability handles
        are stripped (results served from a shared cache cannot depend
        on one caller's tracer or probe — instrument the service, not
        individual requests).
    cache_bytes:
        Byte budget of the result cache; ``0`` disables caching
        entirely.
    max_batch / max_latency / max_pending:
        Coalescing knobs, forwarded to
        :class:`~repro.service.batcher.RowDiffBatcher`.
    compute:
        The :data:`~repro.service.batcher.ComputeFn` every engine batch
        runs through (default
        :func:`~repro.service.batcher.compute_row_diffs`).  Both the
        queued row path and the bulk image path use it — this is where
        :class:`~repro.service.chaos.ChaosEngine` and the retry wrapper
        of :class:`~repro.service.resilience.ResilientDiffService` plug
        in, *upstream* of the cache so only results that survived the
        wrapper are ever stored.
    log:
        An optional :class:`~repro.obs.log.StructuredLog`.  When set,
        every :meth:`row_diff` / :meth:`diff_rows` / :meth:`diff_images`
        request emits its lifecycle records (tier ``base``, see
        :mod:`repro.service.lifecycle`) under a request id
        (caller-supplied, or generated via
        :func:`~repro.obs.context.new_request_id`).  Leave unset when
        wrapping with
        :class:`~repro.service.resilience.ResilientDiffService` — the
        wrapper logs the same lifecycle itself.
    store_log:
        An optional :class:`~repro.obs.log.StructuredLog` for the disk
        tier's ``cache_warm`` / ``cache_quarantine`` events only
        (``log`` is used when this is unset).  Exists so a wrapping
        :class:`~repro.service.resilience.ResilientDiffService` can
        route store events to its log without double-emitting the
        request lifecycle.

    When ``options.cache_dir`` is set (and caching is enabled), the
    service opens a :class:`~repro.service.store.RowStore` there and
    attaches it to the cache as a persistent tier: read-through on
    miss, write-behind on eviction, and a full :meth:`DiffCache.flush
    <repro.service.cache.DiffCache.flush>` on :meth:`close` so the next
    process restarts warm.  The store is owned by the service and
    closed (releasing its single-writer lock) with it.
    """

    def __init__(
        self,
        options: Optional[DiffOptions] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        compute: Optional[ComputeFn] = None,
        log: Optional[StructuredLog] = None,
        store_log: Optional[StructuredLog] = None,
    ) -> None:
        opts = checked_options(options, IMAGE_DEFAULTS, "DiffService")
        self.options = opts.without_observability()
        metrics = opts.metrics if opts.metrics is not None else MetricsRegistry()
        self.store: Optional[RowStore] = None
        if opts.cache_dir is not None and cache_bytes > 0:
            self.store = RowStore(
                opts.cache_dir,
                max_bytes=(
                    opts.disk_budget
                    if opts.disk_budget is not None
                    else DEFAULT_DISK_BUDGET
                ),
                metrics=metrics,
                log=store_log if store_log is not None else log,
            )
        self.cache: Optional[DiffCache] = (
            DiffCache(
                max_bytes=cache_bytes, metrics=metrics, store=self.store
            )
            if cache_bytes > 0
            else None
        )
        self._batcher = RowDiffBatcher(
            self.options,
            cache=self.cache,
            max_batch=max_batch,
            max_latency=max_latency,
            max_pending=max_pending,
            metrics=metrics,
            compute=compute,
        )
        # Request accounting is log-only at this tier (and skipped
        # without a log): latency and SLO metrics are recorded by the
        # resilient and front-end tiers.
        self._lifecycle = RequestLifecycle(
            "base", log=log, slo_seconds=DEFAULT_SLO_SECONDS
        )

    # ------------------------------------------------------------------ #
    # Row requests                                                       #
    # ------------------------------------------------------------------ #
    def submit_row_diff(
        self, row_a: RLERow, row_b: RLERow
    ) -> "Future[XorRunResult]":
        """Asynchronous row diff — returns a future so many submissions
        can coalesce into one engine batch.  Raises
        :class:`~repro.errors.ServiceOverloadError` under backpressure.
        """
        return self._batcher.submit(row_a, row_b)

    def row_diff(
        self, row_a: RLERow, row_b: RLERow, request_id: Optional[str] = None
    ) -> XorRunResult:
        """Synchronous row diff (submit + wait)."""
        with self._lifecycle.track("row_diff", request_id, 1):
            return self.submit_row_diff(row_a, row_b).result()

    # ------------------------------------------------------------------ #
    # Bulk requests                                                      #
    # ------------------------------------------------------------------ #
    def diff_images(
        self,
        image_a: RLEImage,
        image_b: RLEImage,
        request_id: Optional[str] = None,
    ) -> ImageDiffResult:
        """Difference two equal-shape images through the service: the
        :meth:`diff_rows` path over their rows, assembled into an
        :class:`~repro.core.pipeline.ImageDiffResult` that matches the
        functional API's, honouring ``options.canonical``."""
        with self._lifecycle.track("diff_images", request_id, image_a.height):
            if image_a.shape != image_b.shape:
                raise GeometryError(
                    f"image shapes differ: {image_a.shape} vs {image_b.shape}"
                )
            rows = self._batcher.serve(list(image_a), list(image_b), self.cache)
        return ImageDiffResult.assemble(rows, image_a.width, self.options.canonical)

    def diff_rows(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        request_id: Optional[str] = None,
    ) -> List[XorRunResult]:
        """Difference ``len(rows_a)`` row pairs as one bulk request.

        The service's request path: an image is already a batch, so it
        skips the request queue — one pass over the cache (repeated
        frames and static background rows are served without touching
        an engine), one engine batch over the deduplicated misses,
        results in input order, outcomes counted with the queued row
        requests (:meth:`RowDiffBatcher.serve
        <repro.service.batcher.RowDiffBatcher.serve>`).  This is the
        request unit the sharded tier's workers serve (see
        :mod:`repro.service.shard`).
        """
        with self._lifecycle.track("diff_rows", request_id, len(rows_a)):
            if len(rows_a) != len(rows_b):
                raise GeometryError(
                    f"row sequences differ in length: {len(rows_a)} vs {len(rows_b)}"
                )
            return self._batcher.serve(rows_a, rows_b, self.cache)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle                                          #
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Cache counters plus batcher totals, as one plain dict — views
        of their series in the service's registry."""
        info: Dict[str, float] = (
            self.cache.info() if self.cache is not None else {"hit_rate": 0.0}
        )
        # totals() reads both series under the batcher's stats lock, so
        # a fresh `requests` is never paired with a stale `batches`.
        requests, batches = self._batcher.totals()
        info["batches"] = float(batches)
        info["requests"] = float(requests)
        return info

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain pending requests, stop the worker thread, and — with a
        persistent tier — flush the RAM working set to disk and release
        the store's writer lock.  Idempotent; further submissions raise
        :class:`~repro.errors.ServiceError`."""
        self._batcher.close(timeout=timeout)
        if self.store is not None:
            if self.cache is not None:
                self.cache.flush()
            self.store.close()

    def __enter__(self) -> "DiffService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
