"""Multi-array deployment model — scheduling image rows onto arrays.

The paper's application ("acquisition and processing of gigabytes of
binary image data in a matter of seconds") needs more than one array;
rows are independent, so a board deployment is a classic unrelated-
machines scheduling problem where each row job costs its systolic
iteration count (plus a per-row load/drain overhead).

This module computes row costs with the fast engine, schedules them onto
``n_arrays`` processing elements under three policies, and reports
makespan/utilization — the numbers a deployment sizing study needs.

Policies
--------
``block``        contiguous row blocks (what a naive DMA would do)
``round_robin``  row *i* on array *i mod P* (hardware-cheap)
``lpt``          longest-processing-time greedy — the classic 4/3-bound
                 heuristic, needs the costs up front (two-pass or
                 reference-board calibration in practice)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Sequence

from repro.errors import ReproError
from repro.rle.image import RLEImage
from repro.core.batched import BatchedXorEngine

__all__ = ["RowJob", "ScheduleResult", "row_costs", "schedule", "simulate_deployment"]

Policy = Literal["block", "round_robin", "lpt"]


@dataclass(frozen=True)
class RowJob:
    """One row-pair differencing job."""

    row_index: int
    #: Systolic iterations the row needs (its compute time in cycles).
    iterations: int
    #: Fixed per-row cost: loading runs in and draining the result out.
    overhead: int

    @property
    def cost(self) -> int:
        return self.iterations + self.overhead


@dataclass
class ScheduleResult:
    """A complete assignment of rows to arrays."""

    policy: str
    n_arrays: int
    #: ``assignment[i]`` = list of row indices on array ``i``.
    assignment: List[List[int]] = field(default_factory=list)
    #: Busy time per array.
    busy: List[int] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        """Completion time: the busiest array's total cost."""
        return max(self.busy, default=0)

    @property
    def total_work(self) -> int:
        return sum(self.busy)

    @property
    def utilization(self) -> float:
        """Mean busy fraction over the makespan (1.0 = perfect balance)."""
        if self.makespan == 0 or self.n_arrays == 0:
            return 1.0
        return self.total_work / (self.makespan * self.n_arrays)

    def speedup_over_single(self) -> float:
        """Throughput gain vs. running every row on one array."""
        if self.makespan == 0:
            return 1.0
        return self.total_work / self.makespan


def row_costs(
    image_a: RLEImage,
    image_b: RLEImage,
    overhead: int = 2,
) -> List[RowJob]:
    """Measure each row pair's systolic cost with the fast engine.

    ``overhead`` models the load/drain cycles per row (runs stream in
    and results stream out while the next row loads, so a small constant
    is realistic for a pipelined deployment).
    """
    if image_a.shape != image_b.shape:
        raise ReproError(f"image shapes differ: {image_a.shape} vs {image_b.shape}")
    results = BatchedXorEngine(collect_stats=False).diff_rows(
        list(image_a), list(image_b)
    )
    return [
        RowJob(row_index=i, iterations=result.iterations, overhead=overhead)
        for i, result in enumerate(results)
    ]


def schedule(
    jobs: Sequence[RowJob], n_arrays: int, policy: Policy = "lpt"
) -> ScheduleResult:
    """Assign jobs to arrays under the chosen policy."""
    if n_arrays < 1:
        raise ReproError(f"need at least one array, got {n_arrays}")
    result = ScheduleResult(policy=policy, n_arrays=n_arrays)
    result.assignment = [[] for _ in range(n_arrays)]
    result.busy = [0] * n_arrays

    if policy == "block":
        per = max(1, -(-len(jobs) // n_arrays))  # ceil division
        for idx, job in enumerate(jobs):
            array = min(idx // per, n_arrays - 1)
            result.assignment[array].append(job.row_index)
            result.busy[array] += job.cost
    elif policy == "round_robin":
        for idx, job in enumerate(jobs):
            array = idx % n_arrays
            result.assignment[array].append(job.row_index)
            result.busy[array] += job.cost
    elif policy == "lpt":
        # longest job first onto the least-loaded array (min-heap)
        heap = [(0, i) for i in range(n_arrays)]
        heapq.heapify(heap)
        for job in sorted(jobs, key=lambda j: j.cost, reverse=True):
            busy, array = heapq.heappop(heap)
            result.assignment[array].append(job.row_index)
            result.busy[array] = busy + job.cost
            heapq.heappush(heap, (result.busy[array], array))
        for rows in result.assignment:
            rows.sort()
    else:
        raise ReproError(f"unknown policy {policy!r}")
    return result


def simulate_deployment(
    image_a: RLEImage,
    image_b: RLEImage,
    n_arrays: int,
    policy: Policy = "lpt",
    overhead: int = 2,
) -> ScheduleResult:
    """End-to-end: measure row costs and schedule them."""
    return schedule(row_costs(image_a, image_b, overhead=overhead), n_arrays, policy)


def scaling_curve(
    jobs: Sequence[RowJob],
    array_counts: Sequence[int],
    policy: Policy = "lpt",
) -> Dict[int, ScheduleResult]:
    """Makespan vs. array count — the deployment sizing curve."""
    return {p: schedule(jobs, p, policy) for p in array_counts}
