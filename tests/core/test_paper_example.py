"""Golden tests: the paper's Figure 1 / Figure 3 worked example.

Every intermediate state of Figure 3 is pinned down, so any deviation
from the published execution — not just the final answer — fails here.
"""

from repro.rle.ops import xor_rows
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.core.sequential import sequential_xor
from tests.conftest import PAPER_ROW_1, PAPER_ROW_2, PAPER_WIDTH, PAPER_XOR


def rows():
    return (
        RLERow.from_pairs(PAPER_ROW_1, width=PAPER_WIDTH),
        RLERow.from_pairs(PAPER_ROW_2, width=PAPER_WIDTH),
    )


def by_label(trace):
    return {entry.label: entry for entry in trace.entries}


class TestFigure1:
    def test_sequential_xor(self):
        a, b = rows()
        assert sequential_xor(a, b).result.to_pairs() == PAPER_XOR

    def test_rle_op_xor(self):
        a, b = rows()
        assert xor_rows(a, b).to_pairs() == PAPER_XOR

    def test_systolic_xor(self):
        a, b = rows()
        result = SystolicXorMachine().diff(a, b)
        assert result.result.to_pairs() == PAPER_XOR

    def test_batched_xor(self):
        a, b = rows()
        assert BatchedXorEngine().diff(a, b).result.to_pairs() == PAPER_XOR


class TestFigure3Trace:
    """The cycle-by-cycle execution table."""

    def run(self):
        a, b = rows()
        return SystolicXorMachine(record_trace=True, paranoid=True).diff(a, b)

    def test_terminates_in_three_iterations(self):
        assert self.run().iterations == 3

    def test_initial_load(self):
        entry = by_label(self.run().trace)["initial"]
        assert entry.displays[:5] == (
            "(10,3)/(3,4)",
            "(16,2)/(8,5)",
            "(23,2)/(15,5)",
            "(27,3)/(23,2)",
            "·/(27,4)",
        )

    def test_step_1_1_swaps_every_pair(self):
        entry = by_label(self.run().trace)["1.1"]
        assert entry.displays[:5] == (
            "(3,4)/(10,3)",
            "(8,5)/(16,2)",
            "(15,5)/(23,2)",
            "(23,2)/(27,3)",
            "(27,4)/·",
        )

    def test_step_1_2_no_interactions_yet(self):
        trace = self.run().trace
        assert by_label(trace)["1.2"].displays == by_label(trace)["1.1"].displays

    def test_step_1_3_shifts_regbig(self):
        entry = by_label(self.run().trace)["1.3"]
        assert entry.displays[:5] == (
            "(3,4)/·",
            "(8,5)/(10,3)",
            "(15,5)/(16,2)",
            "(23,2)/(23,2)",
            "(27,4)/(27,3)",
        )

    def test_step_2_1_swaps_cell_4(self):
        # the only step-1 action of iteration 2: cell 4's equal-start
        # tie-break (27,4) vs (27,3)
        entry = by_label(self.run().trace)["2.1"]
        assert entry.displays[4] == "(27,3)/(27,4)"

    def test_step_2_2_performs_all_xors(self):
        entry = by_label(self.run().trace)["2.2"]
        assert entry.displays[:6] == (
            "(3,4)/·",
            "(8,2)/·",
            "(15,1)/(18,2)",
            "·/·",
            "·/(30,1)",
            "·/·",
        )

    def test_step_2_3_shift(self):
        entry = by_label(self.run().trace)["2.3"]
        assert entry.displays[:6] == (
            "(3,4)/·",
            "(8,2)/·",
            "(15,1)/·",
            "·/(18,2)",
            "·/·",
            "·/(30,1)",
        )

    def test_step_3_1_lands_stragglers(self):
        entry = by_label(self.run().trace)["3.1"]
        assert entry.displays[:6] == (
            "(3,4)/·",
            "(8,2)/·",
            "(15,1)/·",
            "(18,2)/·",
            "·/·",
            "(30,1)/·",
        )

    def test_iteration_3_makes_no_further_changes(self):
        # "And steps 2 and 3 of iteration 3 make no further changes."
        trace = self.run().trace
        assert by_label(trace)["3.2"].displays == by_label(trace)["3.1"].displays
        assert by_label(trace)["3.3"].displays == by_label(trace)["3.1"].displays

    def test_result_leaves_gap_cells(self):
        # the paper: "it is possible for there to exist empty cells
        # between these runs" — cell 4 ends empty here
        result = self.run()
        final = result.trace.entries[-1]
        assert final.displays[4] == "·/·"
        assert result.result.to_pairs() == PAPER_XOR

    def test_iterations_respect_both_bounds(self):
        result = self.run()
        assert result.iterations <= result.termination_bound  # 9
        assert result.iterations <= result.k3 + 1  # 6
