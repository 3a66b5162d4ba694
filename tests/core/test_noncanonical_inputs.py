"""Non-canonical inputs: the paper permits adjacent runs in the inputs.

"In the input it is permissible, in general, for two intervals in a
single bitstring to be directly adjacent to each other" — so every
engine must accept fragmented (valid but uncompressed) rows and still
produce the correct XOR.  Note the Observation's k3+1 bound explicitly
*excludes* this case ("encoded such that none of the runs are
adjacent"), so only Theorem 1's k1+k2 bound is asserted here.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.rle.ops import xor_rows
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.core.sequential import sequential_xor
from repro.broadcast.bus_machine import BusXorMachine
from tests.conftest import rle_rows


@given(rle_rows(canonical=False, max_width=100), rle_rows(canonical=False, max_width=100))
@settings(max_examples=40)
def test_all_engines_handle_fragmented_inputs(row_a, row_b):
    w = max(row_a.width or 0, row_b.width or 0)
    a = row_a.with_width(w)
    b = row_b.with_width(w)
    expected = xor_rows(a, b)

    ref = SystolicXorMachine(paranoid=True).diff(a, b)
    assert ref.result.same_pixels(expected)
    assert ref.iterations <= a.run_count + b.run_count  # Theorem 1 still holds

    bat = BatchedXorEngine().diff(a, b)
    assert bat.result == ref.result
    assert bat.iterations == ref.iterations

    seq = sequential_xor(a, b)
    assert seq.result.same_pixels(expected)

    bus = BusXorMachine().diff(a, b)
    assert bus.result.same_pixels(expected)


def test_fully_fragmented_runs():
    """Worst fragmentation: every run split into unit pixels."""
    from repro.rle.row import RLERow

    a = RLERow.from_pairs([(i, 1) for i in range(0, 30, 1)][:15], width=40)
    b = RLERow.from_pairs([(i, 1) for i in range(5, 25)], width=40)
    expected = xor_rows(a, b)
    result = SystolicXorMachine(paranoid=True).diff(a, b)
    assert result.result.same_pixels(expected)


def test_observation_bound_can_fail_on_adjacent_inputs():
    """The Observation's precondition is real: we exhibit (by search) at
    least one fragmented input pair whose iteration count exceeds the
    raw-output k3+1 — or, if none is found, every trial must still obey
    Theorem 1.  Either way the bound's *precondition* is documented."""
    rng = np.random.default_rng(7)
    from repro.rle.row import RLERow
    from repro.rle.run import Run

    exceeded = False
    for _ in range(300):
        w = int(rng.integers(10, 80))
        bits = rng.random(w) < rng.random()
        base = RLERow.from_bits(bits)
        # fragment every run into unit pieces
        frag = RLERow(
            [Run(p, 1) for run in base for p in run.pixels()], width=w
        )
        other = RLERow.from_bits(rng.random(w) < rng.random())
        result = BatchedXorEngine().diff(frag, other)
        assert result.iterations <= frag.run_count + other.run_count
        if result.iterations > result.k3 + 1:
            exceeded = True
    # not asserted as a must-find: record of the search is the value;
    # on this seed the fragmented regime does exceed the k3+1 bound
    assert exceeded, (
        "expected at least one fragmented-input case beyond k3+1 "
        "(if this starts failing, the Observation may hold more broadly "
        "than the paper claims — worth investigating, not silencing)"
    )
