"""Stateful fuzz of the batcher lifecycle.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a real
:class:`~repro.service.batcher.RowDiffBatcher` (live worker thread)
through arbitrary interleavings of submission, worker stalls, overload
pressure and close, and checks the contract after every step:

- every accepted future eventually resolves to the byte-identical
  fault-free result for its pair — regardless of stalls, overload or
  the order rules fired;
- a full queue rejects with :class:`~repro.errors.ServiceOverloadError`
  and *keeps serving* once drained (overload is backpressure, not
  poison);
- ``submit`` after ``close`` always raises
  :class:`~repro.errors.ServiceError`;
- ``close`` drains everything already accepted (no abandoned futures)
  and is idempotent.

The worker stall is a gate inside the compute function — the same
seam the chaos engine uses — so the machine can hold the worker
mid-lifecycle and pile up genuinely concurrent pending state.
"""

import threading

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.errors import ServiceError, ServiceOverloadError
from repro.rle.row import RLERow
from repro.core.options import DiffOptions
from repro.service.batcher import RowDiffBatcher, compute_row_diffs

OPTS = DiffOptions(engine="batched")

#: The request vocabulary: a small fixed pair set with precomputed
#: expected results, so verification is exact and cheap.
PAIRS = [
    (
        RLERow.from_pairs([(0, 3), (8 + i, 2)], width=24),
        RLERow.from_pairs([(1, 3), (9 + i, 2)], width=24),
    )
    for i in range(4)
]
EXPECTED = [compute_row_diffs(OPTS, [a], [b])[0] for a, b in PAIRS]

MAX_PENDING = 3


class BatcherLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()
        self.batcher = RowDiffBatcher(
            OPTS,
            max_batch=2,
            max_latency=0.0,
            max_pending=MAX_PENDING,
            compute=self._gated_compute,
        )
        self.accepted = []  # (pair_index, future)
        self.closed = False
        self.saw_overload = False

    def _gated_compute(self, options, rows_a, rows_b):
        self.gate.wait(timeout=10.0)
        return compute_row_diffs(options, rows_a, rows_b)

    # -- rules --------------------------------------------------------- #
    @rule(i=st.integers(0, len(PAIRS) - 1))
    def submit(self, i):
        a, b = PAIRS[i]
        if self.closed:
            with pytest.raises(ServiceError):
                self.batcher.submit(a, b)
            return
        try:
            self.accepted.append((i, self.batcher.submit(a, b)))
        except ServiceOverloadError:
            # legitimate whenever the queue is (even transiently) full:
            # a stalled worker, or one that has not yet drained a burst
            self.saw_overload = True

    @rule()
    def stall_worker(self):
        self.gate.clear()

    @rule()
    def resume_worker(self):
        self.gate.set()

    @precondition(lambda self: not self.closed)
    @rule(i=st.integers(0, len(PAIRS) - 1))
    def overload_pressure(self, i):
        """With the worker stalled, pushing past the queue bound must
        reject with the typed overload error, not block or drop."""
        self.gate.clear()
        a, b = PAIRS[i]
        for _ in range(MAX_PENDING + 1):
            try:
                self.accepted.append((i, self.batcher.submit(a, b)))
            except ServiceOverloadError:
                self.saw_overload = True
                break
        else:
            raise AssertionError(
                f"{MAX_PENDING + 1} submits over a bounded queue of "
                f"{MAX_PENDING} never overloaded"
            )
        self.gate.set()

    @rule()
    def drain_one(self):
        if self.accepted and not self.closed:
            self.gate.set()
            i, future = self.accepted[0]
            assert future.result(timeout=10.0) is not None

    @rule()
    def close(self):
        self.gate.set()  # closing with a stalled worker would deadlock
        self.batcher.close(timeout=10.0)
        self.closed = True

    # -- invariants ---------------------------------------------------- #
    @invariant()
    def resolved_futures_are_byte_identical(self):
        for i, future in self.accepted:
            if future.done():
                got, want = future.result(), EXPECTED[i]
                assert got.result.to_pairs() == want.result.to_pairs()
                assert got.iterations == want.iterations
                assert got.k1 == want.k1 and got.k2 == want.k2

    @invariant()
    def counters_cover_the_accepted_requests(self):
        assert self.batcher.totals()[0] >= 0
        assert self.batcher.totals()[1] >= 0

    def teardown(self):
        self.gate.set()
        if not self.closed:
            self.batcher.close(timeout=10.0)
        # close() drains: every accepted future must now be resolved
        for i, future in self.accepted:
            assert future.done(), "close() abandoned an accepted future"
            got = future.result()
            assert got.result.to_pairs() == EXPECTED[i].result.to_pairs()
        self.batcher.close(timeout=10.0)  # idempotent


BatcherLifecycle.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestBatcherLifecycle = BatcherLifecycle.TestCase
