"""Whole-image differencing — feeding rows through one systolic array.

The paper's system computes "the difference between the corresponding
rows of two images"; a deployment re-loads the same physical array for
each row pair (rows are independent, so they pipeline trivially — while
the host streams row *i*'s result out, row *i+1* streams in).  This
module drives all rows and aggregates the per-row measurements into the
quantities the evaluation reports.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import GeometryError
from repro.rle.image import RLEImage
from repro.core.api import diff_rows
from repro.core.machine import XorRunResult
from repro.core.options import IMAGE_DEFAULTS, DiffOptions, checked_options
from repro.systolic.stats import ActivityStats

__all__ = ["ImageDiffResult", "diff_images"]


@dataclass
class ImageDiffResult:
    """Result of differencing two images row by row."""

    #: The difference image (canonical if requested at call time).
    image: RLEImage
    #: One entry per row, in order.
    row_results: List[XorRunResult] = field(default_factory=list)

    @classmethod
    def assemble(
        cls, row_results: List[XorRunResult], width: int, canonical: bool
    ) -> "ImageDiffResult":
        """The difference image of ``row_results`` (canonical rows when
        ``canonical``), kept together with the row results."""
        return cls(
            image=RLEImage(
                (r.canonical_result if canonical else r.result for r in row_results),
                width=width,
            ),
            row_results=row_results,
        )

    @property
    def total_iterations(self) -> int:
        """Sum of per-row iteration counts — total array busy time when
        rows are processed back-to-back on one array."""
        return sum(r.iterations for r in self.row_results)

    @property
    def max_iterations(self) -> int:
        """Worst row — the latency bound per pipeline stage."""
        return max((r.iterations for r in self.row_results), default=0)

    @property
    def mean_iterations(self) -> float:
        if not self.row_results:
            return 0.0
        return self.total_iterations / len(self.row_results)

    @property
    def stats(self) -> ActivityStats:
        """All rows' activity counters merged."""
        merged = ActivityStats()
        for r in self.row_results:
            merged = merged.merge(r.stats)
        return merged

    @property
    def difference_pixels(self) -> int:
        """Total differing pixels found."""
        return self.image.pixel_count


def diff_images(
    image_a: RLEImage, image_b: RLEImage, options: Optional[DiffOptions] = None
) -> ImageDiffResult:
    """Difference two equal-shape images.

    Configuration comes as one :class:`~repro.core.options.DiffOptions`
    (checked by :func:`~repro.core.options.checked_options`; ``None``
    means the image defaults).  Unknown engine names are rejected at
    :class:`DiffOptions` construction with
    :class:`~repro.errors.UnknownEngineError` — never from deep inside
    dispatch.

    Option fields used by this entry point
    --------------------------------------
    engine:
        ``"batched"`` (default — one batch over all rows at once), or
        the per-row engines ``"systolic"`` and ``"sequential"`` (see
        :func:`repro.core.api.diff_rows`).
    canonical:
        Merge adjacent runs in the output rows (the paper's optional
        final compression pass).
    n_cells:
        Fixed array size reused for every row (and every batch lane);
        ``None`` sizes per row (per batch).
    tracer:
        Optional :class:`repro.obs.tracing.Tracer`; records an
        ``image_diff`` span wrapping the run, with ``row_batch`` →
        ``step`` spans nested inside for the batched engine (``row``
        spans for the per-row engines).  ``None`` (default) adds no
        work to the hot path.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; the run's
        row/iteration/activity totals are recorded under the standard
        ``repro_*`` names (:func:`repro.obs.metrics.record_image_diff`).
    probe:
        Optional :class:`repro.obs.profile.EngineProfiler` for
        per-iteration convergence sampling (batched engine only).
    paranoid, record_trace:
        Per-iteration invariant checks and a phase trace on every row
        (systolic engine only).
    """
    opts = checked_options(options, IMAGE_DEFAULTS, "diff_images")
    if image_a.shape != image_b.shape:
        raise GeometryError(f"image shapes differ: {image_a.shape} vs {image_b.shape}")

    traced = (
        nullcontext()
        if opts.tracer is None
        else opts.tracer.span(
            "image_diff", engine=opts.engine, rows=image_a.height, width=image_a.width
        )
    )
    with traced:
        row_results = diff_rows(list(image_a), list(image_b), opts)
        result = ImageDiffResult.assemble(row_results, image_a.width, opts.canonical)
    if opts.metrics is not None:
        from repro.obs.metrics import record_image_diff

        record_image_diff(opts.metrics, opts.engine, row_results)
    return result
