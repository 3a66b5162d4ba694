"""Host-side parallel image differencing (process pool).

Simulating a big systolic deployment on a workstation is itself an HPC
problem: an image's rows are independent, so the *simulation* (not just
the simulated hardware) parallelizes across cores.  This module chunks
the row pairs, fans them out to worker processes, and reassembles the
per-row results — identical output to :func:`repro.core.pipeline.diff_images`
(asserted in the tests), with near-linear speedup on multicore hosts for
large images.

Configuration travels as one
:class:`~repro.core.options.DiffOptions` — the same bundle
``diff_images`` takes: each worker rebuilds the options' semantic fields
(engine, ``n_cells``, ``paranoid``, ``record_trace``) and runs its chunk
through :func:`repro.core.api.diff_rows`, the dispatch every serial
entry point uses (one :class:`BatchedXorEngine` batch per chunk for the
default, a per-row loop for the others).  Workers receive plain run-pair
lists and return plain tuples (small, picklable), keeping IPC cheap —
which is also why pool results carry no phase trace, even under
``record_trace``.  For images that fit comfortably in one batch the
serial ``engine="batched"`` path usually wins outright — prefer this
pool only when the per-image work is large enough to amortize process
start-up and pickling.

Observability crosses the process boundary the same way the row data
does: each worker records its chunk into a private
:class:`~repro.obs.metrics.MetricsRegistry`, ships the frozen
:class:`~repro.obs.metrics.MetricsSnapshot` back with the rows, and the
parent merges the snapshots into the caller's registry.  The recorded
quantities are chunking-invariant, so the merged totals equal a serial
run's exactly (asserted in the equivalence tests).  Worker wall time is
measured in-process and re-recorded on the parent's tracer as ``chunk``
spans under a ``parallel_diff`` root.  A convergence ``probe`` is
likewise honoured per worker and the samples re-recorded on the
caller's profiler in chunk order with globally renumbered steps — note
the Corollary-1.1 front resets at every chunk boundary (each chunk is
its own batch), unlike a serial whole-image run.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.errors import GeometryError, SystolicError
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.api import diff_rows
from repro.core.machine import XorRunResult
from repro.core.options import (
    IMAGE_DEFAULTS,
    DiffOptions,
    EngineName,
    resolve_options,
    validate_engine,
)
from repro.core.pipeline import ImageDiffResult
from repro.systolic.stats import ActivityStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
    from repro.obs.profile import EngineProfiler
    from repro.obs.tracing import Tracer

__all__ = ["parallel_diff_images"]

RunPairs = List[Tuple[int, int]]

#: Per-row payload a worker sends back: result run pairs, iterations,
#: k1, k2, n_cells, and the activity counters as sorted (name, count)
#: tuples — builtin types only, so pickling stays cheap.
RowOut = Tuple[RunPairs, int, int, int, int, Tuple[Tuple[str, int], ...]]

#: Per-iteration probe samples in wire form: ``(step, active_lanes,
#: busy_cells, empty_prefix, empty_prefix_mean)`` tuples.
ProbeOut = Tuple[Tuple[int, int, int, int, float], ...]

#: Whole-chunk payload: chunk index, rows, the worker's metrics snapshot
#: (a frozen dataclass of builtins — picklable), the worker-measured
#: chunk wall time in seconds, and the probe samples (empty when the
#: caller did not profile).
ChunkOut = Tuple[int, List["RowOut"], "MetricsSnapshot", float, ProbeOut]

#: The options' semantic fields: engine name, fixed cell count,
#: paranoid, record_trace (what :meth:`DiffOptions.cache_key` returns).
Semantics = Tuple[str, Optional[int], bool, bool]

#: What each worker needs besides its rows: chunk index, row pairs,
#: width, the semantic fields, and whether to profile.
ChunkPayload = Tuple[int, List[Tuple[RunPairs, RunPairs]], int, Semantics, bool]


def _diff_chunk(payload: ChunkPayload) -> ChunkOut:
    """Worker: diff a chunk of row pairs under the caller's options.

    Runs in a separate process — only builtin types and frozen snapshot
    dataclasses cross the boundary.
    """
    from repro.obs.metrics import MetricsRegistry, record_image_diff
    from repro.obs.profile import EngineProfiler

    chunk_index, rows, width, semantics, probe_on = payload
    engine, n_cells, paranoid, record_trace = semantics
    started = time.perf_counter()
    probe = EngineProfiler() if probe_on else None
    options = DiffOptions(
        engine=validate_engine(engine),
        n_cells=n_cells,
        paranoid=paranoid,
        record_trace=record_trace,
        probe=probe,
    )
    results = diff_rows(
        [RLERow.from_pairs(pa, width=width) for pa, _ in rows],
        [RLERow.from_pairs(pb, width=width) for _, pb in rows],
        options,
    )
    registry = MetricsRegistry()
    record_image_diff(registry, engine, results)
    out: List[RowOut] = [
        (
            r.result.to_pairs(),
            r.iterations,
            r.k1,
            r.k2,
            r.n_cells,
            r.stats.items(),
        )
        for r in results
    ]
    samples: ProbeOut = ()
    if probe is not None:
        samples = tuple(
            (s.step, s.active_lanes, s.busy_cells, s.empty_prefix, s.empty_prefix_mean)
            for s in probe.samples
        )
    return chunk_index, out, registry.snapshot(), time.perf_counter() - started, samples


def parallel_diff_images(
    image_a: RLEImage,
    image_b: RLEImage,
    workers: int = 2,
    options: Union[DiffOptions, str, None] = None,
    *,
    chunk_rows: Optional[int] = None,
    engine: Optional[EngineName] = None,
    canonical: Optional[bool] = None,
    n_cells: Optional[int] = None,
    metrics: Optional["MetricsRegistry"] = None,
    tracer: Optional["Tracer"] = None,
    probe: Optional["EngineProfiler"] = None,
) -> ImageDiffResult:
    """Difference two images using a pool of worker processes.

    Accepts the same :class:`~repro.core.options.DiffOptions` as
    :func:`~repro.core.pipeline.diff_images` (the individual keyword
    arguments are the removed pre-1.1 spellings and raise a typed
    :class:`~repro.errors.OptionsError` when passed), plus the two
    pool-only knobs ``workers`` and ``chunk_rows``.

    Parameters
    ----------
    workers:
        Process count.  ``1`` short-circuits to the serial path (no pool
        start-up cost) with every option passed through.
    chunk_rows:
        Rows per work unit; default splits into ~4 chunks per worker to
        balance stragglers.
    options:
        Engine selection, ``n_cells``, ``canonical``, ``paranoid``,
        ``record_trace`` and the observability handles.  Worker metrics
        are merged into ``options.metrics`` (totals match a serial run
        exactly), worker wall times land on ``options.tracer`` as
        ``chunk`` spans, and worker convergence samples are re-recorded
        on ``options.probe`` in chunk order.  ``paranoid`` checks run in
        the workers; ``record_trace`` traces are not shipped back, so
        pool results carry ``trace=None`` (use ``workers=1``, the serial
        path, to get them).
    """
    opts = resolve_options(
        options,
        {
            "engine": engine,
            "canonical": canonical,
            "n_cells": n_cells,
            "metrics": metrics,
            "tracer": tracer,
            "probe": probe,
        },
        IMAGE_DEFAULTS,
        "parallel_diff_images",
    )
    if image_a.shape != image_b.shape:
        raise GeometryError(f"image shapes differ: {image_a.shape} vs {image_b.shape}")
    if workers < 1:
        raise SystolicError(f"workers must be >= 1, got {workers}")
    if workers == 1 or image_a.height == 0:
        from repro.core.pipeline import diff_images

        return diff_images(image_a, image_b, options=opts)

    height, width = image_a.shape
    if chunk_rows is None:
        chunk_rows = max(1, height // (workers * 4))

    payloads: List[ChunkPayload] = []
    for chunk_index, start in enumerate(range(0, height, chunk_rows)):
        rows = [
            (image_a[y].to_pairs(), image_b[y].to_pairs())
            for y in range(start, min(start + chunk_rows, height))
        ]
        payloads.append(
            (chunk_index, rows, width, opts.cache_key(), opts.probe is not None)
        )

    if opts.tracer is None:
        results_by_chunk = _run_pool(payloads, workers, opts, None)
    else:
        with opts.tracer.span(
            "parallel_diff", workers=workers, chunks=len(payloads), rows=height
        ):
            results_by_chunk = _run_pool(payloads, workers, opts, opts.tracer)

    row_results: List[XorRunResult] = []
    for chunk_index in range(len(payloads)):
        for pairs, iterations, k1, k2, row_cells, stat_items in results_by_chunk[
            chunk_index
        ]:
            row_results.append(
                XorRunResult(
                    result=RLERow.from_pairs(pairs, width=width),
                    iterations=iterations,
                    k1=k1,
                    k2=k2,
                    n_cells=row_cells,
                    stats=ActivityStats.from_items(stat_items),
                )
            )
    return ImageDiffResult.assemble(row_results, width, opts.canonical)


def _run_pool(
    payloads: List[ChunkPayload],
    workers: int,
    opts: DiffOptions,
    tracer: Optional["Tracer"],
) -> dict:
    """Fan the payloads out, merging observability as chunks land."""
    results_by_chunk: dict = {}
    probe_by_chunk: dict = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk_index, rows_out, snapshot, chunk_seconds, samples in pool.map(
            _diff_chunk, payloads
        ):
            results_by_chunk[chunk_index] = rows_out
            probe_by_chunk[chunk_index] = samples
            if opts.metrics is not None:
                opts.metrics.merge_snapshot(snapshot)
            if tracer is not None:
                tracer.record_span(
                    "chunk",
                    chunk_seconds,
                    chunk=chunk_index,
                    rows=len(rows_out),
                )
    if opts.probe is not None:
        # Replay worker samples chunk by chunk with globally renumbered
        # steps, after the pool drains, so the caller's profiler sees a
        # deterministic order regardless of worker scheduling.
        offset = 0
        for chunk_index in range(len(payloads)):
            last = 0
            for step, active, busy, prefix, prefix_mean in probe_by_chunk[chunk_index]:
                opts.probe.on_step(
                    step=offset + step,
                    active_lanes=active,
                    busy_cells=busy,
                    empty_prefix=prefix,
                    empty_prefix_mean=prefix_mean,
                )
                last = step
            offset += last
    return results_by_chunk
