"""Scaling study: simulator throughput and the O(k) claims vs. row size.

Two questions the paper's analysis implies, measured directly:

* the *sequential* algorithm is Θ(k1 + k2) — its iteration count per
  trial must scale linearly with row width at fixed density;
* the *systolic* iteration count with a fixed number of error runs is
  O(1) in the image size (Table 1's second pairing, here swept further,
  up to 16 384 px).

Also times the batched engine (one lane) on the largest width,
establishing the simulator's own scaling (the paper's repro note:
"simple simulation, though slow for large images" — the array engine is
what makes the 10 kpx sweeps practical).

Outputs: ``results/scaling.csv``, ``results/scaling.txt``,
``results/scaling.json``.
"""

import pytest

from repro.analysis.aggregate import aggregate
from repro.analysis.models import linear_fit
from repro.analysis.report import format_table, to_csv
from repro.analysis.runner import run_sweep
from repro.analysis.experiments import table1_trial
from repro.core.batched import BatchedXorEngine
from repro.workloads.random_rows import generate_row_pair
from repro.workloads.spec import BaseRowSpec, ErrorSpec

from conftest import write_artifact, write_json_artifact

WIDTHS = (512, 1024, 2048, 4096, 8192, 16384)
REPETITIONS = 8


@pytest.fixture(scope="module")
def scaling_rows():
    points = [
        {"width": w, "n_error_runs": 6, "error_run_length": 4, "errors": "6 runs"}
        for w in WIDTHS
    ] + [{"width": w, "error_fraction": 0.035, "errors": "3.5%"} for w in WIDTHS]
    records = run_sweep(table1_trial, points, repetitions=REPETITIONS, seed0=31)
    return aggregate(
        records,
        ["errors", "width"],
        ["systolic_iterations", "sequential_iterations", "k1", "k2"],
    )


def test_scaling_regenerate(benchmark, scaling_rows, results_dir):
    # time the batched engine (one lane) on the largest width
    a, b, _ = generate_row_pair(
        BaseRowSpec(width=WIDTHS[-1]), ErrorSpec(fraction=0.035), seed=1
    )
    engine = BatchedXorEngine(collect_stats=False)
    benchmark(lambda: engine.diff(a, b))

    columns = [
        "errors",
        "width",
        "systolic_iterations",
        "sequential_iterations",
        "k1",
        "k2",
        "n",
    ]
    to_csv(scaling_rows, results_dir / "scaling.csv", columns=columns)
    write_artifact(
        results_dir,
        "scaling.txt",
        format_table(
            scaling_rows,
            columns=columns,
            title=f"Scaling to 16 384 px ({REPETITIONS} reps/point)",
        ),
    )
    write_json_artifact(
        results_dir,
        "scaling.json",
        {
            "params": {"widths": list(WIDTHS), "repetitions": REPETITIONS},
            "rows": scaling_rows,
        },
    )

    def series(errors, metric):
        pts = sorted(
            (r["width"], r[metric]) for r in scaling_rows if r["errors"] == errors
        )
        return [p[0] for p in pts], [p[1] for p in pts]

    # sequential ~ linear in width (k ~ width at fixed density)
    xs, ys = series("3.5%", "sequential_iterations")
    fit = linear_fit(xs, ys)
    assert fit.r_squared > 0.99 and fit.slope > 0

    # systolic with fixed error count stays O(1) out to 16k pixels
    xs, ys = series("6 runs", "systolic_iterations")
    assert max(ys) < 12.0
    assert max(ys) - min(ys) < 4.0

    # and the asymptotic advantage keeps widening
    _, seq = series("6 runs", "sequential_iterations")
    _, sys_ = series("6 runs", "systolic_iterations")
    assert seq[-1] / max(sys_[-1], 1) > seq[0] / max(sys_[0], 1)
