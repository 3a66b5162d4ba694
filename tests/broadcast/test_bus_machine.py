"""Tests for the bus-assisted XOR machine."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import CapacityError
from repro.rle.ops import xor_rows
from repro.rle.row import RLERow
from repro.broadcast.bus_machine import BusXorMachine, _is_pass_through
from repro.core.batched import BatchedXorEngine
from tests.conftest import PAPER_ROW_1, PAPER_ROW_2, PAPER_XOR, row_pairs, similar_row_pairs

E = (0, -1)


class TestPassThrough:
    def test_disjoint_smaller_resident_passes(self):
        assert _is_pass_through((1, 3), (6, 9))

    def test_adjacent_smaller_resident_passes(self):
        assert _is_pass_through((1, 3), (4, 9))

    def test_empty_cell_settles(self):
        assert not _is_pass_through(E, (6, 9))

    def test_larger_resident_swaps(self):
        assert not _is_pass_through((8, 9), (2, 4))

    def test_overlap_interacts(self):
        assert not _is_pass_through((1, 6), (4, 9))

    def test_identical_interacts(self):
        assert not _is_pass_through((4, 9), (4, 9))


class TestCorrectness:
    def test_paper_example(self):
        a = RLERow.from_pairs(PAPER_ROW_1, width=40)
        b = RLERow.from_pairs(PAPER_ROW_2, width=40)
        result = BusXorMachine().diff(a, b)
        assert result.result.to_pairs() == PAPER_XOR

    @given(row_pairs())
    @settings(max_examples=60)
    def test_matches_oracle(self, pair):
        a, b = pair
        result = BusXorMachine().diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))

    @given(row_pairs())
    @settings(max_examples=40)
    def test_shared_bus_variant_also_correct(self, pair):
        a, b = pair
        result = BusXorMachine(segmented=False).diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))

    def test_empty_inputs(self):
        result = BusXorMachine().diff(RLERow.empty(4), RLERow.empty(4))
        assert result.iterations == 0

    def test_capacity_guard(self):
        a = RLERow.from_pairs([(0, 1), (2, 1), (4, 1)], width=10)
        with pytest.raises(CapacityError):
            BusXorMachine(n_cells=2).diff(a, RLERow.empty(10))


class TestSpeedClaims:
    @given(row_pairs())
    @settings(max_examples=40)
    def test_never_slower_than_pure_systolic(self, pair):
        """Jumps subsume single-cell hops: every bus cycle makes at
        least the progress of a systolic iteration."""
        a, b = pair
        bus = BusXorMachine().diff(a, b)
        pure = BatchedXorEngine(collect_stats=False).diff(a, b)
        assert bus.iterations <= pure.iterations

    @given(similar_row_pairs(max_width=400))
    @settings(max_examples=30)
    def test_still_bounded_by_theorem_1(self, pair):
        a, b = pair
        result = BusXorMachine().diff(a, b)
        assert result.iterations <= a.run_count + b.run_count

    def test_ripple_collapse_when_run_counts_differ(self):
        """The paper's dominating cost is the |k1 - k2| tail ripple:
        every inserted run pushes the trailing group right one cell per
        iteration.  The bus jumps runs straight to their landing cells,
        collapsing that term."""
        from repro.workloads.random_rows import generate_row_pair
        from repro.workloads.spec import BaseRowSpec, ErrorSpec

        a, b, _ = generate_row_pair(
            BaseRowSpec(width=2048, density=0.30),
            ErrorSpec(fraction=0.05),
            seed=3,
        )
        pure = BatchedXorEngine(collect_stats=False).diff(a, b)
        bus = BusXorMachine().diff(a, b)
        assert abs(a.run_count - b.run_count) > 5, "regime check"
        assert bus.iterations * 3 <= pure.iterations
        assert bus.stats.get("ripple_cycles_saved") > 0

    def test_transfer_accounting(self):
        a = RLERow.from_pairs(PAPER_ROW_1, width=40)
        b = RLERow.from_pairs(PAPER_ROW_2, width=40)
        result = BusXorMachine().diff(a, b)
        assert result.stats.get("bus_transfers") == result.stats.get("shifts")
        assert result.stats.get("bus_cycles") <= result.iterations
