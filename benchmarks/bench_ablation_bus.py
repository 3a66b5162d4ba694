"""A1 — future-work ablation: pure systolic vs. broadcast-bus shifts.

Section 6 conjectures that a broadcast bus "might ... perform these
shifts more efficiently thus significantly decreasing the running time".
This bench quantifies the conjecture over the Figure 5 error axis and
prices both design points with the hardware cost model.

Outputs: ``results/ablation_bus.csv``, ``results/ablation_bus.txt``,
``results/ablation_bus.json``.
"""

import pytest

from repro.analysis.aggregate import aggregate
from repro.analysis.experiments import bus_ablation_sweep, bus_ablation_trial
from repro.analysis.report import format_table, to_csv
from repro.broadcast.bus_machine import BusXorMachine
from repro.core.batched import BatchedXorEngine
from repro.systolic.cost import CostModel
from repro.workloads.suite import get_row_workload

from conftest import write_artifact, write_json_artifact

FRACTIONS = (0.01, 0.035, 0.10, 0.20, 0.40)
WIDTH = 2048
REPETITIONS = 10


@pytest.fixture(scope="module")
def ablation_rows():
    records = bus_ablation_sweep(
        fractions=FRACTIONS, width=WIDTH, repetitions=REPETITIONS
    )
    return aggregate(
        records,
        ["error_fraction"],
        ["systolic_iterations", "bus_cycles", "speedup", "ripple_cycles_saved"],
    )


def test_bus_ablation_regenerate(benchmark, ablation_rows, results_dir):
    benchmark.pedantic(
        lambda: bus_ablation_trial({"width": WIDTH, "error_fraction": 0.10}, seed=0),
        rounds=5,
        iterations=1,
    )
    columns = [
        "error_fraction",
        "systolic_iterations",
        "bus_cycles",
        "speedup",
        "ripple_cycles_saved",
        "n",
    ]
    to_csv(ablation_rows, results_dir / "ablation_bus.csv", columns=columns)

    # price both design points on one representative workload
    a, b, _ = get_row_workload("paper-figure5-5pct").make()
    pure = BatchedXorEngine().diff(a, b)
    bus = BusXorMachine().diff(a, b)
    model = CostModel()
    pure_cost = model.estimate(pure.iterations, pure.n_cells, pure.stats)
    bus_cost = model.estimate(
        bus.iterations, bus.n_cells, bus.stats, has_bus=True
    )

    rendered = format_table(
        ablation_rows,
        columns=columns,
        title=(
            f"A1 — pure systolic vs broadcast-bus shifts "
            f"({WIDTH} px, {REPETITIONS} reps/point)"
        ),
    )
    rendered += "\n\ncost-model comparison on paper-figure5-5pct:\n"
    rendered += f"  pure systolic : {pure_cost}\n"
    rendered += f"  broadcast bus : {bus_cost}\n"
    write_artifact(results_dir, "ablation_bus.txt", rendered)
    write_json_artifact(
        results_dir,
        "ablation_bus.json",
        {
            "params": {"width": WIDTH, "repetitions": REPETITIONS},
            "rows": ablation_rows,
            "cost_model": {
                "pure_area_units": pure_cost.area_units,
                "bus_area_units": bus_cost.area_units,
            },
        },
    )

    # the conjecture holds: never slower, clearly faster mid-range
    for r in ablation_rows:
        assert r["speedup"] >= 1.0, r
    mid = [r for r in ablation_rows if 0.03 <= r["error_fraction"] <= 0.20]
    assert max(r["speedup"] for r in mid) > 2.0

    # the bus pays area for its time: same result, fewer cycles
    assert bus.iterations <= pure.iterations
    assert bus_cost.area_units > pure_cost.area_units
    assert bus.result.same_pixels(pure.result)
