"""A3 — engine throughput: reference cell machine vs. the batched engine
vs. software baselines, per row and per image.

Not a paper artifact per se, but the measurement behind the engine
defaults: the batched engine runs a single row as a one-lane batch and
a whole image as one batch (every row stepped at once instead of a
Python row loop).  The sequential merge is the "no special hardware"
comparison.  The batched engine runs whichever step kernel loaded (the
native one wherever ``cc`` exists); it is timed again on the NumPy step,
the fallback, so that path's speed stays visible.

Outputs: pytest-benchmark's comparison table, plus
``results/engines.txt`` with the step kernel that ran, the per-engine
iteration counts and the measured times of a one-lane-per-row loop and
of the whole-image batch on a 512-row Figure 5 image (recorded, no
speed floor), and ``results/engines.json`` with the same numbers
machine-readable.

Smoke mode: ``REPRO_BENCH_SMOKE=1`` shrinks the image workload to a
tiny configuration and skips the timing and the artifact write, keeping
only the correctness gate (batched must match the sequential baseline
on every row and the reference machine's iteration counts on a sample)
— CI runs this on every push so perf code can't rot silently.
"""

import os
import time

import pytest

from repro.core import native
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.core.sequential import sequential_xor
from repro.rle.ops import xor_rows
from repro.workloads.spec import BaseRowSpec, ErrorSpec
from repro.workloads.random_rows import generate_row_pair
from repro.workloads.suite import get_row_workload

from conftest import write_artifact, write_json_artifact

WORKLOAD = "paper-figure5-5pct"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
#: The tentpole image workload: Figure 5 rows (10 000 px, 30 % density,
#: 5 % differing pixels) stacked 512 high.  Smoke keeps the same recipe
#: at toy scale so the equivalence gate stays cheap enough for CI.
IMAGE_ROWS = 8 if SMOKE else 512
IMAGE_WIDTH = 400 if SMOKE else 10_000
IMAGE_ERROR_FRACTION = 0.05
#: Rows whose iteration counts are checked against the reference cell
#: machine — a fixed sample, since that machine is slow at full width.
REFERENCE_ROWS = range(0, IMAGE_ROWS, IMAGE_ROWS // 8)


@pytest.fixture(scope="module")
def rows():
    a, b, _mask = get_row_workload(WORKLOAD).make()
    return a, b


@pytest.fixture(scope="module")
def image_rows():
    base = BaseRowSpec(width=IMAGE_WIDTH, run_length=(4, 20), density=0.30)
    errors = ErrorSpec(run_length=(2, 6), fraction=IMAGE_ERROR_FRACTION)
    rows_a, rows_b = [], []
    for y in range(IMAGE_ROWS):
        row_a, row_b, _mask = generate_row_pair(base, errors, seed=1000 + y)
        rows_a.append(row_a)
        rows_b.append(row_b)
    return rows_a, rows_b


# --------------------------------------------------------------------- #
# Single row — per-call engine overhead                                  #
# --------------------------------------------------------------------- #
def test_bench_reference_machine(benchmark, rows):
    a, b = rows
    machine = SystolicXorMachine()
    result = benchmark(lambda: machine.diff(a, b))
    assert result.result.same_pixels(xor_rows(a, b))


def test_bench_batched_engine_one_lane(benchmark, rows):
    a, b = rows
    engine = BatchedXorEngine(collect_stats=False)
    result = benchmark(lambda: engine.diff(a, b))
    assert result.result.same_pixels(xor_rows(a, b))


def test_bench_sequential_merge(benchmark, rows):
    a, b = rows
    result = benchmark(lambda: sequential_xor(a, b))
    assert result.result.same_pixels(xor_rows(a, b))


def test_bench_rle_xor_op(benchmark, rows):
    a, b = rows
    benchmark(lambda: xor_rows(a, b))


# --------------------------------------------------------------------- #
# Whole image — one batch vs. a loop of one-lane batches                #
# --------------------------------------------------------------------- #
def test_bench_image_row_loop_one_lane(benchmark, image_rows):
    rows_a, rows_b = image_rows
    engine = BatchedXorEngine(collect_stats=False)
    benchmark.pedantic(
        lambda: [engine.diff(a, b) for a, b in zip(rows_a, rows_b)],
        rounds=1 if SMOKE else 3,
        iterations=1,
    )


def test_bench_image_batched(benchmark, image_rows):
    rows_a, rows_b = image_rows
    engine = BatchedXorEngine(collect_stats=False)
    benchmark.pedantic(
        lambda: engine.diff_rows(rows_a, rows_b),
        rounds=1 if SMOKE else 3,
        iterations=1,
    )


def test_bench_image_batched_numpy_step(benchmark, image_rows):
    rows_a, rows_b = image_rows
    engine = BatchedXorEngine(collect_stats=False)
    with native.LOADER.withheld():
        benchmark.pedantic(
            lambda: engine.diff_rows(rows_a, rows_b),
            rounds=1 if SMOKE else 3,
            iterations=1,
        )


def _best_of(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_image_equivalence_and_timing(image_rows, results_dir):
    """The engine gate: the whole-image batch must match the sequential
    baseline on every row and the reference machine's iteration counts
    on :data:`REFERENCE_ROWS`; outside smoke mode it then times the
    batch against a loop of one-lane batches (recorded, no floor)."""
    rows_a, rows_b = image_rows

    batched = BatchedXorEngine(collect_stats=False).diff_rows(rows_a, rows_b)
    for a, b, res in zip(rows_a, rows_b, batched):
        seq = sequential_xor(a, b)
        assert res.result.same_pixels(seq.result), "batched diverged from sequential"
    machine = SystolicXorMachine()
    for i in REFERENCE_ROWS:
        ref = machine.diff(rows_a[i], rows_b[i])
        assert batched[i].iterations == ref.iterations, f"row {i}"

    if SMOKE:
        return

    rounds = 3
    lane_engine = BatchedXorEngine(collect_stats=False)
    loop_s = _best_of(
        lambda: [lane_engine.diff(a, b) for a, b in zip(rows_a, rows_b)], rounds
    )
    batch_engine = BatchedXorEngine(collect_stats=False)
    batch_s = _best_of(lambda: batch_engine.diff_rows(rows_a, rows_b), rounds)
    with native.LOADER.withheld():
        numpy_step_s = _best_of(lambda: batch_engine.diff_rows(rows_a, rows_b), rounds)
    kernel = native.LOADER.describe()
    speedup = loop_s / batch_s

    ref = machine.diff(rows_a[0], rows_b[0])
    seq = sequential_xor(rows_a[0], rows_b[0])
    write_artifact(
        results_dir,
        "engines.txt",
        "\n".join(
            [
                f"row workload: {WORKLOAD} (k1={ref.k1}, k2={ref.k2})",
                f"systolic iterations (all engines): {ref.iterations}",
                f"sequential merge iterations: {seq.iterations}",
                f"raw output runs (k3): {ref.k3}",
                "",
                f"image workload: {IMAGE_ROWS} rows x {IMAGE_WIDTH} px, "
                f"30% density, {IMAGE_ERROR_FRACTION:.0%} differing pixels",
                f"step kernel: {kernel}",
                f"row loop, one lane per row: {loop_s:.3f} s",
                f"batched whole-image: {batch_s:.3f} s",
                f"batched whole-image, NumPy step: {numpy_step_s:.3f} s",
                f"whole-image batch vs row loop: {speedup:.1f}x",
            ]
        ),
    )
    write_json_artifact(
        results_dir,
        "engines.json",
        {
            "row_workload": {
                "name": WORKLOAD,
                "k1": ref.k1,
                "k2": ref.k2,
                "systolic_iterations": ref.iterations,
                "sequential_iterations": seq.iterations,
                "k3": ref.k3,
            },
            "image_workload": {
                "rows": IMAGE_ROWS,
                "width": IMAGE_WIDTH,
                "density": 0.30,
                "error_fraction": IMAGE_ERROR_FRACTION,
            },
            "step_kernel": kernel,
            "row_loop_one_lane_s": loop_s,
            "batched_whole_image_s": batch_s,
            "batched_numpy_step_s": numpy_step_s,
            "speedup": speedup,
        },
    )


def test_engines_agree(benchmark, rows):
    a, b = rows
    ref = SystolicXorMachine().diff(a, b)
    bat = benchmark.pedantic(
        lambda: BatchedXorEngine().diff(a, b), rounds=5, iterations=1
    )
    seq = sequential_xor(a, b)
    assert bat.result == ref.result
    assert bat.iterations == ref.iterations
    assert seq.result.same_pixels(ref.result)
