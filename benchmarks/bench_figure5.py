"""Figure 5 — iterations vs. percent of differing pixels.

Regenerates the three plotted series (average systolic iterations, the
difference in run counts ``|k1 - k2|``, and the number of runs ``k3`` in
the produced XOR) at the paper's operating point: rows of 10 000 pixels,
base runs 4–20 px at ≈30 % density (≈250 runs), error runs 2–6 px, error
fraction swept 0 → 90 %.

Outputs: ``results/figure5.csv``, ``results/figure5.txt`` (table +
terminal plot).
"""

import pytest

from repro.analysis.aggregate import aggregate
from repro.analysis.asciiplot import ascii_plot
from repro.analysis.experiments import (
    PAPER_FIGURE5_FRACTIONS,
    figure5_sweep,
    figure5_trial,
)
from repro.analysis.report import format_table, to_csv

from conftest import write_artifact, write_json_artifact

WIDTH = 10_000
REPETITIONS = 10


@pytest.fixture(scope="module")
def figure5_rows():
    records = figure5_sweep(
        fractions=PAPER_FIGURE5_FRACTIONS, width=WIDTH, repetitions=REPETITIONS
    )
    return aggregate(
        records,
        ["error_fraction"],
        ["iterations", "run_difference", "k3", "theorem1_bound"],
    )


def test_figure5_regenerate(benchmark, figure5_rows, results_dir):
    """Times one Figure 5 trial at the paper's scale; writes the series."""
    benchmark.pedantic(
        lambda: figure5_trial({"width": WIDTH, "error_fraction": 0.10}, seed=0),
        rounds=10,
        iterations=1,
    )

    columns = [
        "error_fraction",
        "iterations",
        "iterations_std",
        "run_difference",
        "k3",
        "theorem1_bound",
        "n",
    ]
    to_csv(figure5_rows, results_dir / "figure5.csv", columns=columns)
    table = format_table(
        figure5_rows,
        columns=columns,
        precision=3,
        title=(
            f"Figure 5 — {WIDTH} px rows, 30% density (~250 runs), "
            f"{REPETITIONS} reps/point"
        ),
    )
    plot = ascii_plot(
        {
            "iterations": [
                (r["error_fraction"], r["iterations"]) for r in figure5_rows
            ],
            "|k1-k2|": [
                (r["error_fraction"], r["run_difference"]) for r in figure5_rows
            ],
            "k3 (runs in XOR)": [
                (r["error_fraction"], r["k3"]) for r in figure5_rows
            ],
        },
        title="Figure 5: iterations vs fraction of differing pixels",
        xlabel="fraction of pixels differing",
    )
    write_artifact(results_dir, "figure5.txt", table + "\n\n" + plot)
    write_json_artifact(
        results_dir,
        "figure5.json",
        {
            "width": WIDTH,
            "repetitions": REPETITIONS,
            "rows": figure5_rows,
        },
    )

    # ---- the paper's shape claims ---------------------------------- #
    by_f = {r["error_fraction"]: r for r in figure5_rows}

    # "the dominating factor was the difference between the number of
    # runs in the two images ... up through 30-40%"
    for f, r in by_f.items():
        if f <= 0.30:
            assert abs(r["iterations"] - r["run_difference"]) <= max(
                6.0, 0.25 * r["run_difference"]
            ), (f, r)

    # the k3 curve upper-bounds the iteration count everywhere
    for r in figure5_rows:
        assert r["iterations"] <= r["k3"] + 1.5, r

    # divergence from |k1-k2| beyond the 30-40% knee
    ratio = lambda r: r["iterations"] / max(r["run_difference"], 1.0)
    assert ratio(by_f[0.10]) < 1.10
    assert ratio(by_f[0.70]) > 1.15

    # and Theorem 1 holds at every point
    for r in figure5_rows:
        assert r["iterations"] <= r["theorem1_bound"]
