"""High-level convenience API.

Most users want one call: *give me the difference of these two rows (or
images) and tell me how long the systolic array took*.  These wrappers
select an engine and normalize the result type.

Every entry point takes its inputs plus one
:class:`~repro.core.options.DiffOptions` bundle
(``row_diff(a, b, DiffOptions(engine="batched"))``); see ``docs/API.md``.

Engines
-------
``"systolic"``
    The reference cell-by-cell simulator (:class:`SystolicXorMachine`) —
    exact, fully instrumented, but Python-speed.
``"batched"``
    The whole-*image* simulator (:class:`BatchedXorEngine`) — every
    row's register file stepped at once as one masked batch, with
    per-row early exit via an active-lane mask.  Identical per-row
    results, iteration counts and stats; the default for
    :func:`image_diff`.
``"sequential"``
    The paper's software baseline (no systolic hardware at all).

:func:`diff_rows` is the one place an engine name becomes a simulator;
every entry point (rows, images, the service layer and its shard
workers) runs through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine, XorRunResult
from repro.core.options import (
    ENGINE_NAMES,
    IMAGE_DEFAULTS,
    ROW_DEFAULTS,
    DiffOptions,
    EngineName,
    checked_options,
    validate_engine,
)
from repro.core.sequential import sequential_xor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import ImageDiffResult

__all__ = [
    "row_diff",
    "image_diff",
    "diff_rows",
    "DiffOptions",
    "EngineName",
    "ENGINE_NAMES",
    "validate_engine",
]


def diff_rows(
    rows_a: Sequence[RLERow],
    rows_b: Sequence[RLERow],
    options: DiffOptions,
) -> List[XorRunResult]:
    """``rows_a[i] XOR rows_b[i]`` for every ``i``, on the engine
    ``options`` selects.

    The ``"batched"`` engine runs every pair as one
    :class:`BatchedXorEngine` batch (``options.tracer`` records its
    ``row_batch`` → ``step`` spans, ``options.probe`` samples it); the
    other engines loop over the pairs, one ``row`` span each when
    traced.  ``options.engine`` is already validated (at
    :class:`DiffOptions` construction), so this never sees an unknown
    name.  Metrics are the caller's to record.
    """
    tracer = options.tracer
    if options.engine == "batched":
        return BatchedXorEngine(
            n_cells=options.n_cells, tracer=tracer, probe=options.probe
        ).diff_rows(list(rows_a), list(rows_b))
    run: Callable[[RLERow, RLERow], XorRunResult]
    if options.engine == "systolic":
        run = SystolicXorMachine(
            n_cells=options.n_cells,
            paranoid=options.paranoid,
            record_trace=options.record_trace,
        ).diff
    else:
        run = _sequential_diff
    if tracer is None:
        return [run(ra, rb) for ra, rb in zip(rows_a, rows_b)]
    results: List[XorRunResult] = []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        with tracer.span("row", index=i) as span:
            result = run(ra, rb)
            span.set_attribute("iterations", result.iterations)
        results.append(result)
    return results


def _sequential_diff(row_a: RLERow, row_b: RLERow) -> XorRunResult:
    """The sequential merge in the engines' result type: ``iterations``
    is the merge-loop count, and ``n_cells`` is 0 (no array)."""
    seq = sequential_xor(row_a, row_b)
    return XorRunResult(
        result=seq.result,
        iterations=seq.iterations,
        k1=row_a.run_count,
        k2=row_b.run_count,
        n_cells=0,
    )


def row_diff(
    row_a: RLERow, row_b: RLERow, options: Optional[DiffOptions] = None
) -> XorRunResult:
    """Difference (XOR) of two RLE rows.

    Pass ``options`` (a :class:`DiffOptions`) to configure the run; with
    no options the historical defaults apply (reference ``"systolic"``
    engine, per-row sizing).  Anything else in the ``options`` position
    raises a typed :class:`~repro.errors.OptionsError`
    (:func:`~repro.core.options.checked_options`).

    Returns a :class:`~repro.core.machine.XorRunResult` whatever the
    engine, so callers can swap engines without touching downstream
    code.  For the sequential engine, ``iterations`` carries the
    merge-loop count and the systolic-only fields (``n_cells``,
    ``stats``) are zeroed/empty.  ``options.tracer`` wraps the dispatch
    in a ``row_diff`` span, ``options.metrics`` records the run under
    the standard ``repro_*`` families, and ``options.probe`` samples
    convergence on the batched engine; all ``None`` by default, which
    costs the hot path nothing.
    """
    opts = checked_options(options, ROW_DEFAULTS, "row_diff")
    if opts.tracer is None:
        result = diff_rows([row_a], [row_b], opts)[0]
    else:
        with opts.tracer.span(
            "row_diff",
            engine=opts.engine,
            k1=row_a.run_count,
            k2=row_b.run_count,
        ) as span:
            result = diff_rows([row_a], [row_b], opts)[0]
            span.set_attribute("iterations", result.iterations)
    if opts.metrics is not None:
        from repro.obs.metrics import record_image_diff

        record_image_diff(opts.metrics, opts.engine, [result])
    return result


def image_diff(
    image_a: RLEImage, image_b: RLEImage, options: Optional[DiffOptions] = None
) -> "ImageDiffResult":
    """Difference of two whole images.

    The default ``"batched"`` engine steps every row's array in one
    batch; the other engines process rows one at a time (see
    :func:`diff_rows`).  See :mod:`repro.core.pipeline` for the
    returned :class:`~repro.core.pipeline.ImageDiffResult` (which
    carries per-row iteration counts — the quantity the paper reports).

    Configuration comes in one :class:`DiffOptions` bundle (checked by
    :func:`~repro.core.options.checked_options`).  ``options.tracer``,
    ``options.metrics`` and ``options.probe`` hook the run into the
    :mod:`repro.obs` observability layer; all default to ``None``, which
    costs the hot path nothing.
    """
    from repro.core.pipeline import diff_images

    return diff_images(
        image_a, image_b, checked_options(options, IMAGE_DEFAULTS, "image_diff")
    )
