"""Every engine, one oracle: a seeded randomized sweep (à la the Figure 3
worked example, but 500 of them) asserting that ``sequential_xor``,
``xor_rows``, :class:`BatchedXorEngine` (one lane per row, and every row
in one batch) and :class:`SystolicXorMachine` agree on the XOR result,
and that the systolic engines report identical per-row iteration counts
(the sequential merge counts merge-loop passes, a different clock — it
is held to result agreement only).
"""

import numpy as np
import pytest

from repro.rle.ops import xor_rows
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.core.options import DiffOptions
from repro.core.sequential import sequential_xor

N_RANDOM_PAIRS = 500
SEED = 20260806


def random_pairs(n=N_RANDOM_PAIRS, seed=SEED):
    """Seeded pairs spanning widths and densities, plus targeted
    degenerate shapes mixed in."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        width = int(rng.integers(0, 120))
        da, db = rng.random(), rng.random()
        pairs.append(
            (
                RLERow.from_bits(rng.random(width) < da),
                RLERow.from_bits(rng.random(width) < db),
            )
        )
    return pairs


def degenerate_pairs():
    single = RLERow.from_pairs([(3, 1)], width=8)
    return [
        # both empty
        (RLERow.empty(10), RLERow.empty(10)),
        # one side empty
        (RLERow.from_pairs([(2, 3)], width=10), RLERow.empty(10)),
        (RLERow.empty(10), RLERow.from_pairs([(2, 3)], width=10)),
        # identical rows (XOR is empty, but the array still has to run)
        (
            RLERow.from_pairs([(1, 2), (5, 3)], width=12),
            RLERow.from_pairs([(1, 2), (5, 3)], width=12),
        ),
        # single-pixel runs
        (single, single),
        (single, RLERow.from_pairs([(5, 1)], width=8)),
        (
            RLERow.from_pairs([(0, 1), (2, 1), (4, 1)], width=6),
            RLERow.from_pairs([(1, 1), (3, 1), (5, 1)], width=6),
        ),
        # exactly k1 + k2 iterations (disjoint single runs hit the
        # Theorem 1 bound with equality)
        (
            RLERow.from_pairs([(0, 1)], width=6),
            RLERow.from_pairs([(2, 1)], width=6),
        ),
    ]


ALL_PAIRS = degenerate_pairs() + random_pairs()


class TestAllEnginesAgree:
    def test_results_and_iterations(self):
        rows_a = [a for a, _ in ALL_PAIRS]
        rows_b = [b for _, b in ALL_PAIRS]
        batched = BatchedXorEngine().diff_rows(rows_a, rows_b)
        machine = SystolicXorMachine()
        lane = BatchedXorEngine()
        for (a, b), bat in zip(ALL_PAIRS, batched):
            oracle = xor_rows(a, b)
            ref = machine.diff(a, b)
            one = lane.diff(a, b)
            seq = sequential_xor(a, b)
            # one result, five ways
            assert ref.result.same_pixels(oracle)
            assert one.result == ref.result
            assert bat.result == ref.result
            assert seq.result.same_pixels(oracle)
            # one systolic clock: the cell machine, a lane, a batch
            assert one.iterations == ref.iterations
            assert bat.iterations == ref.iterations

    def test_exact_bound_case_hits_k1_plus_k2(self):
        a = RLERow.from_pairs([(0, 1)], width=6)
        b = RLERow.from_pairs([(2, 1)], width=6)
        result = BatchedXorEngine().diff(a, b)
        assert result.iterations == result.k1 + result.k2 == 2
        assert result.iterations == SystolicXorMachine().diff(a, b).iterations

    def test_metrics_snapshots_chunking_invariant(self):
        """The recorded observability metrics are engine-state facts, not
        simulation-strategy facts: row chunks diffed as separate batches,
        each into a private registry whose snapshot is merged (as shard
        snapshots are), must produce the exact same registry as one
        whole-image batch."""
        from repro.rle.image import RLEImage
        from repro.core.pipeline import diff_images
        from repro.obs.metrics import MetricsRegistry

        width = 64
        pairs = [(a, b) for a, b in ALL_PAIRS[:48] if (a.width or 0) <= width]
        image_a = RLEImage([a.with_width(width) for a, _ in pairs], width=width)
        image_b = RLEImage([b.with_width(width) for _, b in pairs], width=width)

        serial = MetricsRegistry()
        serial_result = diff_images(image_a, image_b, options=DiffOptions(metrics=serial))
        merged = MetricsRegistry()
        chunked_rows = []
        for start in range(0, image_a.height, 5):
            chunk = MetricsRegistry()
            result = diff_images(
                RLEImage(image_a.rows[start : start + 5], width=width),
                RLEImage(image_b.rows[start : start + 5], width=width),
                options=DiffOptions(metrics=chunk),
            )
            chunked_rows.extend(result.image)
            merged.merge_snapshot(chunk.snapshot())
        assert RLEImage(chunked_rows, width=width) == serial_result.image
        assert merged.snapshot() == serial.snapshot()
        assert merged.to_prometheus_text() == serial.to_prometheus_text()

    def test_stats_agree_on_random_sample(self):
        """Activity counters, not just results: spot-check a slice of the
        sweep against the reference machine's event-driven counters."""
        sample = ALL_PAIRS[:60]
        batched = BatchedXorEngine().diff_rows(
            [a for a, _ in sample], [b for _, b in sample]
        )
        machine = SystolicXorMachine()
        lane = BatchedXorEngine()
        for (a, b), bat in zip(sample, batched):
            ref = machine.diff(a, b)
            assert bat.stats.as_dict() == ref.stats.as_dict()
            assert lane.diff(a, b).stats.as_dict() == ref.stats.as_dict()


# TestAllEnginesAgree runs whichever step kernel the loader provides (the
# native one wherever ``cc`` exists); this runs it on the NumPy step.
@pytest.mark.usefixtures("numpy_step")
class TestAllEnginesAgreeNumpyStep(TestAllEnginesAgree):
    pass
