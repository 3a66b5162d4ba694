"""Experiment definitions for every evaluation artifact of the paper.

Each paper artifact gets a *trial function* (one seeded measurement) and
a *sweep driver*; the benchmarks, tests, CLI and EXPERIMENTS.md all call
these, so the numbers in the repo have exactly one source.

Artifacts
---------
* :func:`figure5_sweep`   — Figure 5: iterations vs. error percentage,
  alongside ``|k1 - k2|`` and ``k3``.
* :func:`table1_sweep`    — Table 1: systolic vs. sequential iterations
  over image sizes 128–2048, for 3.5 %-pixels and fixed-6-runs errors.
* :func:`bus_ablation_sweep` — future-work ablation: pure systolic vs.
  broadcast-bus cycles over the Figure 5 error axis.
* :func:`compaction_sweep`   — future-work ablation: cost of the final
  adjacent-run merge, systolic vs. bus.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.analysis.runner import Record, run_sweep
from repro.broadcast.bus_machine import BusXorMachine
from repro.core.batched import BatchedXorEngine
from repro.core.compaction import (
    bus_compaction_cycles,
    count_mergeable_pairs,
    systolic_compaction_cycles,
)
from repro.core.sequential import sequential_xor
from repro.workloads.spec import BaseRowSpec, ErrorSpec
from repro.workloads.random_rows import generate_row_pair

__all__ = [
    "figure5_trial",
    "figure5_sweep",
    "table1_trial",
    "table1_sweep",
    "bus_ablation_trial",
    "bus_ablation_sweep",
    "compaction_trial",
    "compaction_sweep",
    "density_sweep",
    "PAPER_TABLE1_WIDTHS",
    "PAPER_FIGURE5_FRACTIONS",
    "PAPER_DENSITIES",
]

#: Densities for the Section 5 sensitivity claim ("varied only slightly
#: over different densities").
PAPER_DENSITIES = (0.10, 0.20, 0.30, 0.40, 0.50)

#: Table 1's image-size axis: "ranging from 128 to 2048 pixels".
PAPER_TABLE1_WIDTHS = (128, 256, 512, 1024, 2048)

#: Figure 5's error axis (percent of pixels differing), 0→90 %.
PAPER_FIGURE5_FRACTIONS = (
    0.005, 0.01, 0.02, 0.035, 0.05, 0.075, 0.10, 0.15, 0.20,
    0.25, 0.30, 0.35, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90,
)


def _make_pair(params: Mapping[str, object], seed: int):
    base = BaseRowSpec(
        width=int(params["width"]),
        run_length=(4, 20),
        density=float(params.get("density", 0.30)),
    )
    if params.get("n_error_runs") is not None:
        errors = ErrorSpec(
            run_length=(2, 6),
            n_runs=int(params["n_error_runs"]),
            fixed_length=int(params.get("error_run_length", 4)),
        )
    else:
        errors = ErrorSpec(run_length=(2, 6), fraction=float(params["error_fraction"]))
    return generate_row_pair(base, errors, seed=seed)


# --------------------------------------------------------------------- #
# Figure 5                                                                #
# --------------------------------------------------------------------- #
def figure5_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """One Figure 5 measurement: the three plotted series plus context."""
    row_a, row_b, mask = _make_pair(params, seed)
    result = BatchedXorEngine(collect_stats=False).diff(row_a, row_b)
    return {
        "iterations": float(result.iterations),
        "run_difference": float(abs(result.k1 - result.k2)),
        "k3": float(result.k3),
        "k1": float(result.k1),
        "k2": float(result.k2),
        "theorem1_bound": float(result.k1 + result.k2),
        "error_pixels": float(mask.pixel_count),
    }


def figure5_sweep(
    fractions: Sequence[float] = PAPER_FIGURE5_FRACTIONS,
    width: int = 10_000,
    repetitions: int = 10,
    seed0: int = 5,
) -> List[Record]:
    """The full Figure 5 sweep (10 000 px, 30 % density, ≈250 runs)."""
    points = [{"width": width, "error_fraction": f} for f in fractions]
    return run_sweep(figure5_trial, points, repetitions=repetitions, seed0=seed0)


# --------------------------------------------------------------------- #
# Table 1                                                                 #
# --------------------------------------------------------------------- #
def table1_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """One Table 1 measurement: systolic and sequential iterations."""
    row_a, row_b, _mask = _make_pair(params, seed)
    systolic = BatchedXorEngine(collect_stats=False).diff(row_a, row_b)
    sequential = sequential_xor(row_a, row_b)
    return {
        "systolic_iterations": float(systolic.iterations),
        "sequential_iterations": float(sequential.iterations),
        "k1": float(systolic.k1),
        "k2": float(systolic.k2),
    }


def table1_sweep(
    widths: Sequence[int] = PAPER_TABLE1_WIDTHS,
    repetitions: int = 30,
    seed0: int = 11,
) -> List[Record]:
    """Both Table 1 pairings over the full size axis.

    Each record's params carry ``errors`` ∈ {"3.5%", "6 runs"} matching
    the paper's two row groups.
    """
    points: List[Dict[str, object]] = []
    for width in widths:
        points.append({"width": width, "error_fraction": 0.035, "errors": "3.5%"})
    for width in widths:
        points.append(
            {
                "width": width,
                "n_error_runs": 6,
                "error_run_length": 4,
                "errors": "6 runs",
            }
        )
    return run_sweep(table1_trial, points, repetitions=repetitions, seed0=seed0)


# --------------------------------------------------------------------- #
# Density sensitivity (Section 5's "varied only slightly" claim)          #
# --------------------------------------------------------------------- #
def density_sweep(
    densities: Sequence[float] = PAPER_DENSITIES,
    error_fraction: float = 0.05,
    width: int = 10_000,
    repetitions: int = 10,
    seed0: int = 41,
) -> List[Record]:
    """Figure 5's correlation across base-image densities.

    Section 5: "The empirical testing shows that ... the dominating
    factor was the difference between the number of runs in the two
    images.  This was true irrespective of the sizes of the images and
    varied only slightly over different densities."
    """
    points = [
        {"width": width, "error_fraction": error_fraction, "density": d}
        for d in densities
    ]
    return run_sweep(figure5_trial, points, repetitions=repetitions, seed0=seed0)


# --------------------------------------------------------------------- #
# Ablation: broadcast bus                                                 #
# --------------------------------------------------------------------- #
def bus_ablation_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """Pure systolic vs. bus-assisted cycles on the same input."""
    row_a, row_b, _ = _make_pair(params, seed)
    pure = BatchedXorEngine(collect_stats=False).diff(row_a, row_b)
    bus = BusXorMachine(segmented=True).diff(row_a, row_b)
    return {
        "systolic_iterations": float(pure.iterations),
        "bus_cycles": float(bus.iterations),
        "bus_transfers": float(bus.stats.get("bus_transfers")),
        "ripple_cycles_saved": float(bus.stats.get("ripple_cycles_saved")),
        "speedup": float(pure.iterations) / max(float(bus.iterations), 1.0),
    }


def bus_ablation_sweep(
    fractions: Sequence[float] = (0.01, 0.035, 0.10, 0.20, 0.40),
    width: int = 2048,
    repetitions: int = 10,
    seed0: int = 17,
) -> List[Record]:
    points = [{"width": width, "error_fraction": f} for f in fractions]
    return run_sweep(bus_ablation_trial, points, repetitions=repetitions, seed0=seed0)


# --------------------------------------------------------------------- #
# Ablation: final compaction pass                                         #
# --------------------------------------------------------------------- #
def compaction_trial(params: Mapping[str, object], seed: int) -> Dict[str, float]:
    """Cost/benefit of the future-work adjacent-run merge."""
    row_a, row_b, _ = _make_pair(params, seed)
    engine = BatchedXorEngine(collect_stats=False)
    result = engine.diff(row_a, row_b)
    snapshots = engine.snapshot(0)
    raw = result.result
    return {
        "raw_runs": float(raw.run_count),
        "canonical_runs": float(raw.canonical().run_count),
        "mergeable_pairs": float(count_mergeable_pairs(raw)),
        "systolic_compaction_cycles": float(systolic_compaction_cycles(snapshots)),
        "bus_compaction_cycles": float(bus_compaction_cycles(snapshots)),
        "xor_iterations": float(result.iterations),
    }


def compaction_sweep(
    fractions: Sequence[float] = (0.01, 0.05, 0.10, 0.20, 0.40),
    width: int = 2048,
    repetitions: int = 10,
    seed0: int = 23,
) -> List[Record]:
    points = [{"width": width, "error_fraction": f} for f in fractions]
    return run_sweep(compaction_trial, points, repetitions=repetitions, seed0=seed0)
