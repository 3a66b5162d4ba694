"""Per-iteration engine profiling — convergence curves from the batch.

Corollary 1.1 says the array drains ``RegBig`` left to right: after
iteration *t*, cells ``1..t`` hold their final ``RegSmall`` contents and
an empty ``RegBig``.  The engines make that *visible in data*: pass an
:class:`EngineProfiler` to :class:`~repro.core.batched.BatchedXorEngine`
and every iteration records

``active_lanes``
    rows still stepping (batched lanes terminate independently — the
    paper's per-row ``k1 + k2`` bound, Theorem 1, shows up as this curve
    hitting zero),
``busy_cells``
    cells holding at least one run anywhere in the batch,
``empty_prefix``
    the Corollary-1.1 front: leftmost column in which *any* lane still
    holds a ``RegBig`` run (monotonically non-decreasing — the schema
    validator checks this), and
``empty_prefix_mean``
    the mean per-lane front over still-active lanes.

Profiling is opt-in (``probe=None`` default) and the per-step sampling
reduces over the register planes, so it costs a few array reductions per
iteration — fine for `repro profile`, not for benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["IterationSample", "EngineProfiler"]


@dataclass(frozen=True)
class IterationSample:
    """One iteration's convergence measurements."""

    step: int
    active_lanes: int
    busy_cells: int
    empty_prefix: int
    empty_prefix_mean: float


@dataclass
class EngineProfiler:
    """Collects per-iteration samples from an engine run."""

    samples: List[IterationSample] = field(default_factory=list)

    def on_step(
        self,
        step: int,
        active_lanes: int,
        busy_cells: int,
        empty_prefix: int,
        empty_prefix_mean: float,
    ) -> None:
        """Engine hook, called once at the end of every iteration."""
        self.samples.append(
            IterationSample(
                step=step,
                active_lanes=active_lanes,
                busy_cells=busy_cells,
                empty_prefix=empty_prefix,
                empty_prefix_mean=empty_prefix_mean,
            )
        )

    def reset(self) -> None:
        self.samples.clear()

    # ------------------------------------------------------------------ #
    @property
    def iterations(self) -> int:
        return len(self.samples)

    def to_dict(self) -> Dict:
        """The machine-readable convergence document (see
        :func:`repro.obs.schema.validate_profile_json`)."""
        return {
            "schema": "repro.profile/v1",
            "iterations": self.iterations,
            "samples": [
                {
                    "step": s.step,
                    "active_lanes": s.active_lanes,
                    "busy_cells": s.busy_cells,
                    "empty_prefix": s.empty_prefix,
                    "empty_prefix_mean": s.empty_prefix_mean,
                }
                for s in self.samples
            ],
        }

    def render_table(self, max_rows: int = 20) -> str:
        """A compact convergence table for terminal output.

        Long runs are decimated to ``max_rows`` evenly spaced samples
        (always keeping the first and last) — the shape of the curve is
        the point, not every step.
        """
        if not self.samples:
            return "(no samples)"
        samples = self.samples
        if len(samples) > max_rows:
            stride = (len(samples) - 1) / (max_rows - 1)
            picked = sorted({round(i * stride) for i in range(max_rows)})
            samples = [self.samples[i] for i in picked]
        header = (
            f"{'step':>6} {'active_lanes':>13} {'busy_cells':>11} "
            f"{'empty_prefix':>13} {'mean_front':>11}"
        )
        lines = [header, "-" * len(header)]
        for s in samples:
            lines.append(
                f"{s.step:>6} {s.active_lanes:>13} {s.busy_cells:>11} "
                f"{s.empty_prefix:>13} {s.empty_prefix_mean:>11.2f}"
            )
        return "\n".join(lines)
