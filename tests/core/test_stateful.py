"""Hypothesis stateful test: both engines driven in lockstep.

A rule-based state machine interleaves loads, steps and extractions on
the reference cell machine and a one-lane batched engine simultaneously,
asserting snapshot equality after every transition — the strongest form
of the cross-engine equivalence claim, because hypothesis explores
*sequences* of operations (reload mid-run, early extraction, repeated
termination polling) that the straight-line tests never take.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.rle.ops import xor_rows
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine, extract_result


class EnginesInLockstep(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.machine = SystolicXorMachine()
        self.array = None
        self.engine = BatchedXorEngine()
        self.row_a = None
        self.row_b = None

    # ------------------------------------------------------------------ #
    @rule(
        seed=st.integers(0, 2**31 - 1),
        width=st.integers(0, 80),
        da=st.floats(0.0, 1.0),
        db=st.floats(0.0, 1.0),
    )
    def load(self, seed, width, da, db):
        """(Re)load both engines with the same fresh inputs."""
        rng = np.random.default_rng(seed)
        self.row_a = RLERow.from_bits(rng.random(width) < da)
        self.row_b = RLERow.from_bits(rng.random(width) < db)
        self.array, _ = self.machine.build_array(self.row_a, self.row_b)
        self.engine.load([self.row_a], [self.row_b])

    @precondition(lambda self: self.array is not None and not self.engine.is_done)
    @rule(steps=st.integers(1, 4))
    def step_both(self, steps):
        """Advance both engines the same number of iterations."""
        for _ in range(steps):
            if self.engine.is_done:
                break
            self.array.step()
            self.engine.step()

    @precondition(lambda self: self.array is not None)
    @rule()
    def run_to_completion(self):
        while not self.engine.is_done:
            self.array.step()
            self.engine.step()
        result_ref = extract_result(self.array, width=self.row_a.width)
        result_lane = self.engine.extract(0, width=self.row_a.width)
        assert result_ref == result_lane
        assert result_lane.same_pixels(xor_rows(self.row_a, self.row_b))
        assert self.engine.iterations[0] <= self.row_a.run_count + self.row_b.run_count

    # ------------------------------------------------------------------ #
    @invariant()
    def snapshots_agree(self):
        if self.array is not None:
            assert self.array.snapshot() == self.engine.snapshot(0)

    @invariant()
    def termination_votes_agree(self):
        if self.array is not None:
            all_done = all(cell.is_done() for cell in self.array.cells)
            assert all_done == self.engine.is_done


TestEnginesInLockstep = EnginesInLockstep.TestCase
TestEnginesInLockstep.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
