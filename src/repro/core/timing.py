"""Cycle-accurate row-pipeline timing for one array.

:mod:`repro.core.pipeline` counts the *compute* iterations; a real
deployment also pays to stream each row's runs **into** the cells and
the result **out** of them.  This module models that I/O:

* loading row *t* costs ``ceil(max(k1, k2) / ports)`` cycles (each port
  delivers one run per cycle down the load chain);
* computing costs ``3 × iterations`` sub-cycles, billed here in
  iterations like the rest of the repo;
* draining costs ``ceil(occupied_cells / ports)`` cycles.

With **single buffering** the phases serialize per row.  With **double
buffering** (shadow registers, the standard systolic trick) the load of
row *t+1* and the drain of row *t−1* overlap row *t*'s compute, so each
row costs ``max(compute, load, drain)`` — I/O disappears whenever the
compute dominates, and the model quantifies when it does not (very
similar images make compute so short that I/O becomes the bottleneck,
an observation the paper's real-time framing invites).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.errors import GeometryError, SystolicError
from repro.rle.image import RLEImage
from repro.core.batched import BatchedXorEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import Tracer

__all__ = ["RowPhases", "PipelineTiming", "measure_row_phases", "pipeline_timing"]


@dataclass(frozen=True)
class RowPhases:
    """Cycle cost of one row's three phases."""

    row_index: int
    load: int
    compute: int
    drain: int

    @property
    def serialized(self) -> int:
        return self.load + self.compute + self.drain

    @property
    def overlapped(self) -> int:
        return max(self.load, self.compute, self.drain)


@dataclass(frozen=True)
class PipelineTiming:
    """Whole-image timing under both buffering schemes."""

    rows: List[RowPhases]
    ports: int

    @property
    def single_buffered_cycles(self) -> int:
        """Load, compute and drain serialize per row."""
        return sum(r.serialized for r in self.rows)

    @property
    def double_buffered_cycles(self) -> int:
        """Pipelined: row *t*'s compute overlaps its neighbours' I/O.

        Steady state advances one row per ``max(load, compute, drain)``;
        the pipeline additionally pays the first row's load as prologue
        and the last row's drain as epilogue.
        """
        if not self.rows:
            return 0
        steady = sum(r.overlapped for r in self.rows)
        return self.rows[0].load + steady + self.rows[-1].drain

    @property
    def io_bound_rows(self) -> int:
        """Rows whose I/O exceeds their compute (the similar-image
        regime's hidden bottleneck)."""
        return sum(1 for r in self.rows if max(r.load, r.drain) > r.compute)

    @property
    def speedup(self) -> float:
        """Double buffering's gain over serialized I/O."""
        double = self.double_buffered_cycles
        if double == 0:
            return 1.0
        return self.single_buffered_cycles / double


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def measure_row_phases(
    image_a: RLEImage,
    image_b: RLEImage,
    ports: int = 1,
    tracer: Optional["Tracer"] = None,
) -> List[RowPhases]:
    """Run every row on the fast engine and derive its phase costs.

    All rows compute as one :class:`BatchedXorEngine` batch (no per-row
    Python loop); the phase derivation then reads each row's run counts
    and iteration total.  Per-row phase costs are engine-independent —
    the cross-engine equivalence test pins them against a per-row
    sweep of the reference cell machine.
    """
    if image_a.shape != image_b.shape:
        raise GeometryError(f"image shapes differ: {image_a.shape} vs {image_b.shape}")
    if ports < 1:
        raise SystolicError(f"ports must be >= 1, got {ports}")
    if tracer is not None:
        with tracer.span(
            "measure_row_phases", rows=image_a.height, ports=ports
        ):
            return measure_row_phases(image_a, image_b, ports=ports)
    engine = BatchedXorEngine(collect_stats=False)
    results = engine.diff_rows(list(image_a), list(image_b))
    rows: List[RowPhases] = []
    for i, (ra, rb, result) in enumerate(zip(image_a, image_b, results)):
        load = _ceil_div(max(ra.run_count, rb.run_count), ports)
        drain = _ceil_div(result.result.run_count, ports)
        rows.append(
            RowPhases(
                row_index=i,
                load=load,
                compute=result.iterations,
                drain=drain,
            )
        )
    return rows


def pipeline_timing(
    image_a: RLEImage,
    image_b: RLEImage,
    ports: int = 1,
) -> PipelineTiming:
    """Timing of a whole image through one array."""
    return PipelineTiming(
        rows=measure_row_phases(image_a, image_b, ports=ports), ports=ports
    )
