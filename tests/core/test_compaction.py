"""Tests for the future-work compaction pass and its cost models."""

import numpy as np
from hypothesis import given

from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.compaction import (
    bus_compaction_cycles,
    compact_row,
    count_mergeable_pairs,
    systolic_compaction_cycles,
)
from tests.conftest import rle_rows

E = (0, -1)


class TestCompactRow:
    def test_merges(self):
        row = RLERow.from_pairs([(0, 2), (2, 3), (7, 1)], width=10)
        assert compact_row(row).to_pairs() == [(0, 5), (7, 1)]

    @given(rle_rows(canonical=False))
    def test_preserves_pixels(self, row):
        assert compact_row(row).same_pixels(row)


class TestMergeablePairs:
    def test_counts_adjacencies(self):
        row = RLERow.from_pairs([(0, 2), (2, 3), (7, 1), (8, 1)], width=10)
        assert count_mergeable_pairs(row) == 2

    def test_zero_for_canonical(self):
        row = RLERow.from_pairs([(0, 2), (4, 3)], width=10)
        assert count_mergeable_pairs(row) == 0

    @given(rle_rows(canonical=False))
    def test_matches_run_count_drop(self, row):
        assert count_mergeable_pairs(row) == row.run_count - row.canonical().run_count


class TestCycleModels:
    def test_empty_state_costs_nothing(self):
        assert systolic_compaction_cycles([(E, E), (E, E)]) == 0
        assert bus_compaction_cycles([(E, E), (E, E)]) == 0

    def test_contiguous_prefix_costs_one(self):
        snaps = [((0, 1), E), ((3, 4), E), (E, E)]
        assert systolic_compaction_cycles(snaps) == 1  # already packed

    def test_displacement_drives_systolic_cost(self):
        # single run parked far right must walk home cell by cell
        snaps = [(E, E)] * 9 + [((5, 6), E)]
        assert systolic_compaction_cycles(snaps) == 10

    def test_bus_cost_logarithmic(self):
        snaps_small = [((0, 1), E)] + [(E, E)] * 7  # n = 8
        snaps_large = [((0, 1), E)] + [(E, E)] * 1023  # n = 1024
        assert bus_compaction_cycles(snaps_small) == 4  # log2(8) + 1
        assert bus_compaction_cycles(snaps_large) == 11  # log2(1024) + 1

    def test_bus_beats_systolic_on_sparse_far_runs(self):
        snaps = [(E, E)] * 60 + [((5, 6), E), (E, E), ((9, 9), E)]
        assert bus_compaction_cycles(snaps) < systolic_compaction_cycles(snaps)

    def test_on_real_machine_final_state(self, np_rng):
        rng = np_rng
        a = RLERow.from_bits(rng.random(400) < 0.3)
        b = RLERow.from_bits(rng.random(400) < 0.3)
        engine = BatchedXorEngine()
        engine.diff(a, b)
        snaps = engine.snapshot(0)
        sys_cost = systolic_compaction_cycles(snaps)
        bus_cost = bus_compaction_cycles(snaps)
        assert sys_cost >= 0 and bus_cost >= 0
        # the paper's claim: the bus makes the final pass fast
        assert bus_cost <= max(sys_cost, 12)
