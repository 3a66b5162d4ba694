"""Cross-engine equivalence: a one-lane batch vs. the reference machine.

A :class:`BatchedXorEngine` batch of one lane is the single-row,
array-at-once path (``row_diff`` on the batched engine runs it).  The
claim the whole benchmarking strategy rests on: its state evolution is
*identical* to the cell-by-cell reference, not just its final answer,
and its array is sized exactly like the reference machine's.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import CapacityError, SystolicError
from repro.rle.ops import xor_rows
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from tests.conftest import row_pairs, similar_row_pairs


class TestEndToEnd:
    @given(row_pairs())
    @settings(max_examples=60)
    def test_result_and_iterations_match_reference(self, pair):
        a, b = pair
        ref = SystolicXorMachine().diff(a, b)
        lane = BatchedXorEngine().diff(a, b)
        assert lane.result == ref.result  # structural, not just pixels
        assert lane.iterations == ref.iterations
        assert lane.n_cells == ref.n_cells

    @given(row_pairs())
    @settings(max_examples=40)
    def test_stats_match_reference(self, pair):
        a, b = pair
        ref = SystolicXorMachine().diff(a, b)
        lane = BatchedXorEngine().diff(a, b)
        assert lane.stats.as_dict() == ref.stats.as_dict()

    @given(similar_row_pairs())
    @settings(max_examples=40)
    def test_similar_regime_matches(self, pair):
        a, b = pair
        ref = SystolicXorMachine().diff(a, b)
        lane = BatchedXorEngine().diff(a, b)
        assert lane.result == ref.result
        assert lane.iterations == ref.iterations

    @given(row_pairs())
    @settings(max_examples=60)
    def test_oracle(self, pair):
        a, b = pair
        assert BatchedXorEngine().diff(a, b).result.same_pixels(xor_rows(a, b))


class TestStateByState:
    @given(row_pairs(max_width=100))
    @settings(max_examples=30)
    def test_snapshots_identical_every_iteration(self, pair):
        a, b = pair
        # the default-sized machine: a one-lane batch must match its width
        array, _ = SystolicXorMachine().build_array(a, b)
        engine = BatchedXorEngine()
        engine.load([a], [b])
        assert array.snapshot() == engine.snapshot(0)
        while not engine.is_done:
            array.step()
            engine.step()
            assert array.snapshot() == engine.snapshot(0)

    def test_snapshot_format(self):
        engine = BatchedXorEngine()
        engine.load(
            [RLERow.from_pairs([(3, 4)], width=10)],
            [RLERow.from_pairs([(5, 2)], width=10)],
        )
        snap = engine.snapshot(0)
        assert snap[0] == ((3, 6), (5, 6))
        assert snap[1] == ((0, -1), (0, -1))


class TestGuards:
    def test_capacity_error(self):
        a = RLERow.from_pairs([(0, 1), (2, 1), (4, 1)], width=10)
        with pytest.raises(CapacityError):
            BatchedXorEngine(n_cells=2).diff(a, RLERow.empty(10))

    def test_iteration_bound_enforced(self):
        a = RLERow.from_pairs([(0, 2)], width=20)
        b = RLERow.from_pairs([(5, 2)], width=20)
        with pytest.raises(SystolicError):
            BatchedXorEngine().diff(a, b, max_iterations=0)

    def test_collect_stats_false_skips_counters(self):
        a = RLERow.from_pairs([(0, 2)], width=20)
        b = RLERow.from_pairs([(5, 2)], width=20)
        result = BatchedXorEngine(collect_stats=False).diff(a, b)
        assert result.stats.as_dict() == {}
        # correctness unchanged
        assert result.result.same_pixels(xor_rows(a, b))

    def test_engine_reusable_across_calls(self):
        engine = BatchedXorEngine()
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = RLERow.from_bits(rng.random(80) < 0.4)
            b = RLERow.from_bits(rng.random(80) < 0.4)
            assert engine.diff(a, b).result.same_pixels(xor_rows(a, b))

    def test_empty_inputs(self):
        result = BatchedXorEngine().diff(RLERow.empty(4), RLERow.empty(4))
        assert result.iterations == 0
        assert result.result.run_count == 0


class TestScale:
    def test_large_row_fast_path(self):
        """A Figure 5-sized instance completes and matches the oracle."""
        rng = np.random.default_rng(42)
        a = RLERow.from_bits(rng.random(10_000) < 0.3)
        b = RLERow.from_bits(rng.random(10_000) < 0.3)
        result = BatchedXorEngine(collect_stats=False).diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))
        assert result.iterations <= result.k1 + result.k2
