"""A11 — soak test of the paper's unproven Observation.

"If the runs of the two input bitstrings are encoded such that none of
the runs are adjacent ... the systolic XOR algorithm terminates after at
most k3 + 1 steps, where k3 is the number of runs in the output from the
systolic algorithm ... although we have not yet proven this."

This bench fuzzes thousands of canonical input pairs across widths,
densities and similarity regimes, recording the *slack* ``k3 + 1 −
iterations``.  Zero violations across the campaign is the strongest
empirical support this repo can offer for the conjecture; the slack
distribution shows how tight the bound runs.

Outputs: ``results/observation.txt``, ``results/observation.json``.
"""

import numpy as np
import pytest

from repro.core.batched import BatchedXorEngine
from repro.rle.row import RLERow
from repro.workloads.random_rows import generate_row_pair
from repro.workloads.spec import BaseRowSpec, ErrorSpec

from conftest import write_artifact, write_json_artifact

TRIALS_RANDOM = 3000
TRIALS_STRUCTURED = 1000


def _campaign():
    engine = BatchedXorEngine(collect_stats=False)
    rng = np.random.default_rng(2026)
    violations = 0
    slacks = []
    tight = 0  # iterations == k3 + 1 exactly

    # regime 1: independent random rows, all densities and widths
    for _ in range(TRIALS_RANDOM):
        w = int(rng.integers(1, 400))
        a = RLERow.from_bits(rng.random(w) < rng.random())
        b = RLERow.from_bits(rng.random(w) < rng.random())
        result = engine.diff(a, b)
        slack = result.k3 + 1 - result.iterations
        slacks.append(slack)
        if slack < 0:
            violations += 1
        if slack == 0:
            tight += 1

    # regime 2: the paper's generator (structured, similar pairs)
    for i in range(TRIALS_STRUCTURED):
        fraction = float(rng.uniform(0.005, 0.6))
        a, b, _ = generate_row_pair(
            BaseRowSpec(width=1500, density=float(rng.uniform(0.1, 0.5))),
            ErrorSpec(fraction=fraction),
            seed=i,
        )
        result = engine.diff(a, b)
        slack = result.k3 + 1 - result.iterations
        slacks.append(slack)
        if slack < 0:
            violations += 1
        if slack == 0:
            tight += 1

    return violations, tight, np.asarray(slacks)


def test_observation_soak(benchmark, results_dir):
    violations, tight, slacks = benchmark.pedantic(
        _campaign, rounds=1, iterations=1
    )
    lines = [
        "A11 — soak of the unproven Observation (iterations <= k3 + 1,",
        "k3 = runs in the RAW systolic output, canonical inputs)",
        "",
        f"trials: {len(slacks)} "
        f"({TRIALS_RANDOM} random + {TRIALS_STRUCTURED} paper-generator)",
        f"violations: {violations}",
        f"bound met with equality (slack 0): {tight}",
        f"slack quantiles: p1={np.quantile(slacks, 0.01):.0f} "
        f"p50={np.quantile(slacks, 0.5):.0f} "
        f"p99={np.quantile(slacks, 0.99):.0f} max={slacks.max():.0f}",
        "",
        "note: with k3 read as the *canonical* output run count the bound",
        "fails on roughly half of random trials — the paper's parenthetical",
        "about uncompressed output is essential to the conjecture.",
    ]
    write_artifact(results_dir, "observation.txt", "\n".join(lines))
    write_json_artifact(
        results_dir,
        "observation.json",
        {
            "trials": len(slacks),
            "violations": int(violations),
            "tight": int(tight),
            "slack_p1": float(np.quantile(slacks, 0.01)),
            "slack_p50": float(np.quantile(slacks, 0.5)),
            "slack_p99": float(np.quantile(slacks, 0.99)),
            "slack_max": float(slacks.max()),
        },
    )

    assert violations == 0
    assert tight > 0  # the bound is attained, i.e. not slack everywhere
