"""A2 — future-work ablation: the final adjacent-run merge pass.

"the task of combining the adjacent runs in different cells at the end
of the algorithm is left as future research.  This task also is not fast
on a pure systolic system, but could be performed quickly with the help
of a broadcast bus."

The bench measures how much merging the output actually needs (raw vs.
canonical run counts over the error axis) and compares the cycle cost of
doing it with neighbour-only links vs. a reconfigurable-mesh bus.

Outputs: ``results/compaction.csv``, ``results/compaction.txt``,
``results/compaction.json``.
"""

import pytest

from repro.analysis.aggregate import aggregate
from repro.analysis.experiments import compaction_sweep, compaction_trial
from repro.analysis.report import format_table, to_csv
from repro.broadcast.rmesh import ReconfigurableMesh
from repro.core.batched import BatchedXorEngine
from repro.workloads.suite import get_row_workload

from conftest import write_artifact, write_json_artifact

FRACTIONS = (0.01, 0.05, 0.10, 0.20, 0.40)
WIDTH = 2048
REPETITIONS = 10


@pytest.fixture(scope="module")
def compaction_rows():
    records = compaction_sweep(
        fractions=FRACTIONS, width=WIDTH, repetitions=REPETITIONS
    )
    return aggregate(
        records,
        ["error_fraction"],
        [
            "raw_runs",
            "canonical_runs",
            "mergeable_pairs",
            "systolic_compaction_cycles",
            "bus_compaction_cycles",
        ],
    )


def test_compaction_regenerate(benchmark, compaction_rows, results_dir):
    benchmark.pedantic(
        lambda: compaction_trial({"width": WIDTH, "error_fraction": 0.10}, seed=0),
        rounds=5,
        iterations=1,
    )
    columns = [
        "error_fraction",
        "raw_runs",
        "canonical_runs",
        "mergeable_pairs",
        "systolic_compaction_cycles",
        "bus_compaction_cycles",
        "n",
    ]
    to_csv(compaction_rows, results_dir / "compaction.csv", columns=columns)
    write_artifact(
        results_dir,
        "compaction.txt",
        format_table(
            compaction_rows,
            columns=columns,
            title=(
                f"A2 — final compaction pass, systolic vs bus "
                f"({WIDTH} px, {REPETITIONS} reps/point)"
            ),
        ),
    )
    write_json_artifact(
        results_dir,
        "compaction.json",
        {
            "params": {"width": WIDTH, "repetitions": REPETITIONS},
            "rows": compaction_rows,
        },
    )

    # bus compaction is O(log n) — flat; systolic cost tracks the gap
    # structure and dwarfs it whenever the output is sparse in the array
    for r in compaction_rows:
        assert r["bus_compaction_cycles"] <= 12, r
        assert r["canonical_runs"] == pytest.approx(
            r["raw_runs"] - r["mergeable_pairs"]
        ), r


def test_mesh_merge_matches_row_canonicalization(benchmark):
    """The mesh's merge pass computes exactly RLERow.canonical()."""
    a, b, _ = get_row_workload("paper-table1-2048-pct").make()
    engine = BatchedXorEngine(collect_stats=False)
    result = engine.diff(a, b)
    snaps = engine.snapshot(0)
    slots = [
        (int(s[0]), int(s[1])) if s[1] >= s[0] else None for (s, _big) in snaps
    ]
    mesh = ReconfigurableMesh(len(slots))
    merged = benchmark(lambda: mesh.merge_adjacent_runs(slots))
    got = [(s, e - s + 1) for item in merged if item is not None for s, e in [item]]
    assert got == result.result.canonical().to_pairs()
