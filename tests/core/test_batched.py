"""The batched whole-image engine vs. the reference cell machine.

The batch dimension must be invisible: every lane of a
:class:`BatchedXorEngine` batch has to evolve exactly like a private
:class:`SystolicXorMachine` run on the same row pair — same snapshots
every iteration, same final result, iteration count and activity
counters — and the paper's invariants (Corollaries 1.1/1.2, Theorems
1/3) must hold per lane.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import CapacityError, GeometryError, SystolicError
from repro.rle.image import RLEImage
from repro.rle.ops import xor_rows
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.invariants import (
    check_corollary_1_1,
    check_corollary_1_2,
    check_gap_order,
    check_regbig_ordered,
    check_regsmall_ordered,
    check_theorem_1,
    check_theorem_3,
)
from repro.core.machine import SystolicXorMachine, default_cell_count
from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images
from tests.conftest import (
    PAPER_ROW_1,
    PAPER_ROW_2,
    PAPER_XOR,
    PAPER_WIDTH,
    similar_row_pairs,
)


def random_batch(seed, n_rows=24, width=120, density_a=0.3, density_b=0.3):
    rng = np.random.default_rng(seed)
    rows_a = [RLERow.from_bits(rng.random(width) < density_a) for _ in range(n_rows)]
    rows_b = [RLERow.from_bits(rng.random(width) < density_b) for _ in range(n_rows)]
    return rows_a, rows_b


@st.composite
def row_pair_batches(draw, max_rows: int = 12, max_width: int = 80):
    n_rows = draw(st.integers(0, max_rows))
    width = draw(st.integers(0, max_width))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_rows):
        da, db = rng.random(), rng.random()
        pairs.append(
            (
                RLERow.from_bits(rng.random(width) < da),
                RLERow.from_bits(rng.random(width) < db),
            )
        )
    return pairs


#: TestEndToEndNumpyStep reruns these properties on the NumPy step; the
#: subclass is a second executor of the same test by design.
RERUN_IN_SUBCLASS = settings(
    max_examples=40, suppress_health_check=[HealthCheck.differing_executors]
)


class TestEndToEnd:
    def test_paper_example(self):
        a = RLERow.from_pairs(PAPER_ROW_1, width=PAPER_WIDTH)
        b = RLERow.from_pairs(PAPER_ROW_2, width=PAPER_WIDTH)
        result = BatchedXorEngine().diff(a, b)
        assert result.canonical_result.to_pairs() == PAPER_XOR
        assert result.iterations == SystolicXorMachine().diff(a, b).iterations

    @given(row_pair_batches(), st.lists(similar_row_pairs(), max_size=3))
    @RERUN_IN_SUBCLASS
    def test_every_lane_matches_reference(self, pairs, similar):
        # random lanes plus lanes from the paper's target regime
        pairs = pairs + similar
        results = BatchedXorEngine().diff_rows(
            [a for a, _ in pairs], [b for _, b in pairs]
        )
        machine = SystolicXorMachine()
        for (a, b), res in zip(pairs, results):
            ref = machine.diff(a, b)
            assert res.result == ref.result  # structural, not just pixels
            assert res.iterations == ref.iterations
            assert res.stats.as_dict() == ref.stats.as_dict()

    @given(row_pair_batches())
    @RERUN_IN_SUBCLASS
    def test_oracle(self, pairs):
        results = BatchedXorEngine().diff_rows(
            [a for a, _ in pairs], [b for _, b in pairs]
        )
        for (a, b), res in zip(pairs, results):
            assert res.result.same_pixels(xor_rows(a, b))

    def test_batch_width_shared_across_lanes(self):
        rows_a, rows_b = random_batch(7)
        engine = BatchedXorEngine()
        results = engine.diff_rows(rows_a, rows_b)
        widest = max(
            default_cell_count(a.run_count, b.run_count)
            for a, b in zip(rows_a, rows_b)
        )
        assert engine.batch_cells == widest
        assert all(r.n_cells == widest for r in results)
        # a one-lane batch is sized exactly like the reference machine
        lane = engine.diff(rows_a[0], rows_b[0])
        assert lane.n_cells == SystolicXorMachine().diff(rows_a[0], rows_b[0]).n_cells


class TestStateByState:
    def test_snapshots_identical_every_iteration(self):
        """Each lane, stepped in the batch, must hit exactly the states
        the reference machine hits on its row pair — frozen lanes hold
        their final state."""
        rows_a, rows_b = random_batch(13, n_rows=16, width=90)
        # one more lane whose loaded snapshot is spelled out: the format
        rows_a.append(RLERow.from_pairs([(3, 4)], width=10))
        rows_b.append(RLERow.from_pairs([(5, 2)], width=10))
        batch = BatchedXorEngine()
        batch.load(rows_a, rows_b)
        assert batch.snapshot(len(rows_a) - 1)[:2] == (
            ((3, 6), (5, 6)),
            ((0, -1), (0, -1)),
        )
        machine = SystolicXorMachine(n_cells=batch.batch_cells)
        arrays = [machine.build_array(a, b)[0] for a, b in zip(rows_a, rows_b)]
        for i, array in enumerate(arrays):
            assert batch.snapshot(i) == array.snapshot()
        steps = 0
        while not batch.is_done:
            batch.step()
            steps += 1
            for i, array in enumerate(arrays):
                if not all(cell.is_done() for cell in array.cells):
                    array.step()
                assert batch.snapshot(i) == array.snapshot()
        assert steps == max(int(n) for n in batch.iterations)

    def test_invariants_hold_per_lane_every_iteration(self):
        rows_a, rows_b = random_batch(29, n_rows=12, width=100)
        batch = BatchedXorEngine()
        batch.load(rows_a, rows_b)
        while not batch.is_done:
            batch.step()
            for i in range(batch.n_rows):
                snap = batch.snapshot(i)
                check_regsmall_ordered(snap)
                check_regbig_ordered(snap)
                check_gap_order(snap)
                check_corollary_1_1(snap, int(batch.iterations[i]))
                check_corollary_1_2(snap, int(batch.k1[i]), int(batch.k2[i]))
        for i, (a, b) in enumerate(zip(rows_a, rows_b)):
            check_theorem_1(int(batch.iterations[i]), a.run_count, b.run_count)
            check_theorem_3(batch.extract(i, width=a.width), a, b)

    def test_mixed_lane_freeze(self):
        """A lane that terminates early freezes while batch mates keep
        stepping; per-lane iteration counts record the mask-flip time."""
        quick_a = RLERow.from_pairs([(0, 4)], width=200)
        quick_b = RLERow.from_pairs([(0, 4)], width=200)
        rng = np.random.default_rng(5)
        slow_a = RLERow.from_bits(rng.random(200) < 0.3)
        slow_b = RLERow.from_bits(rng.random(200) < 0.3)
        results = BatchedXorEngine().diff_rows(
            [quick_a, slow_a], [quick_b, slow_b]
        )
        ref_quick = SystolicXorMachine().diff(quick_a, quick_b)
        ref_slow = SystolicXorMachine().diff(slow_a, slow_b)
        assert results[0].iterations == ref_quick.iterations
        assert results[1].iterations == ref_slow.iterations
        assert results[0].iterations < results[1].iterations
        assert results[0].result == ref_quick.result
        assert results[1].result == ref_slow.result
        assert results[0].stats.as_dict() == ref_quick.stats.as_dict()


class TestGuards:
    def test_capacity_error_at_load(self):
        a = RLERow.from_pairs([(0, 1), (2, 1), (4, 1)], width=10)
        with pytest.raises(CapacityError):
            BatchedXorEngine(n_cells=2).diff(a, RLERow.empty(10))

    def test_iteration_cap_enforced(self):
        a = RLERow.from_pairs([(0, 2)], width=20)
        b = RLERow.from_pairs([(5, 2)], width=20)
        with pytest.raises(SystolicError):
            BatchedXorEngine().diff(a, b, max_iterations=0)

    def test_empty_batch(self):
        assert BatchedXorEngine().diff_rows([], []) == []

    def test_mismatched_batch_sides(self):
        with pytest.raises(GeometryError):
            BatchedXorEngine().diff_rows([RLERow.empty(4)], [])

    def test_result_past_its_width_rejected(self):
        # the lane takes its first row's width (4); the second row's run
        # at pixels 8-9 survives the XOR and does not fit in it
        narrow = RLERow.from_pairs([(0, 2)], width=4)
        wide = RLERow.from_pairs([(8, 2)], width=20)
        engine = BatchedXorEngine()
        with pytest.raises(GeometryError, match="does not fit in width 4"):
            engine.diff_rows([wide, narrow], [wide, wide])
        engine.load([narrow], [wide])
        engine.run()
        with pytest.raises(GeometryError):
            engine.extract(0, width=9)
        assert engine.extract(0, width=10).to_pairs() == [(0, 2), (8, 2)]

    def test_result_rows_own_their_arrays(self):
        # a row over a view of the batch's array would keep all of it
        # alive for as long as the row is cached; an empty lane holds the
        # shared empty tuple, as RLERow([]) does
        rows_a, rows_b = random_batch(7, n_rows=6, width=60)
        results = BatchedXorEngine().diff_rows(rows_a + [rows_a[0]], rows_b + [rows_a[0]])
        assert all(res.result._data.base is None for res in results[:-1])
        assert results[-1].result._data == ()

    def test_empty_rows_lane(self):
        result = BatchedXorEngine().diff(RLERow.empty(4), RLERow.empty(4))
        assert result.iterations == 0
        assert result.result.run_count == 0

    def test_collect_stats_false_skips_counters(self):
        a = RLERow.from_pairs([(0, 2)], width=20)
        b = RLERow.from_pairs([(5, 2)], width=20)
        result = BatchedXorEngine(collect_stats=False).diff(a, b)
        assert result.stats.as_dict() == {}
        assert result.result.same_pixels(xor_rows(a, b))

    def test_engine_reusable_across_batches(self):
        engine = BatchedXorEngine()
        batches = [random_batch(seed, n_rows=6, width=60) for seed in range(4)]
        # and a Figure 5-sized row pair (10 000 px, 30 % density)
        batches.append(random_batch(42, n_rows=1, width=10_000))
        for rows_a, rows_b in batches:
            for (a, b), res in zip(
                zip(rows_a, rows_b), engine.diff_rows(rows_a, rows_b)
            ):
                assert res.result.same_pixels(xor_rows(a, b))
                assert res.iterations <= res.k1 + res.k2


class TestPipelineDispatch:
    def test_image_diff_batched_matches_systolic(self):
        rng = np.random.default_rng(11)
        bits_a = rng.random((20, 150)) < 0.3
        bits_b = rng.random((20, 150)) < 0.3
        image_a = RLEImage.from_array(bits_a)
        image_b = RLEImage.from_array(bits_b)
        batched = diff_images(image_a, image_b, options=DiffOptions(engine="batched"))
        serial = diff_images(
            image_a, image_b, options=DiffOptions(engine="systolic")
        )
        assert batched.image == serial.image
        assert [r.iterations for r in batched.row_results] == [
            r.iterations for r in serial.row_results
        ]
        assert batched.stats.as_dict() == serial.stats.as_dict()

    def test_image_diff_default_engine_is_batched(self):
        rng = np.random.default_rng(12)
        image_a = RLEImage.from_array(rng.random((6, 40)) < 0.3)
        image_b = RLEImage.from_array(rng.random((6, 40)) < 0.3)
        default = diff_images(image_a, image_b)
        explicit = diff_images(
            image_a, image_b, options=DiffOptions(engine="batched")
        )
        assert default.image == explicit.image

    def test_raw_output_mode(self):
        rng = np.random.default_rng(13)
        image_a = RLEImage.from_array(rng.random((8, 60)) < 0.4)
        image_b = RLEImage.from_array(rng.random((8, 60)) < 0.4)
        raw = diff_images(
            image_a, image_b, options=DiffOptions(engine="batched", canonical=False)
        )
        serial = diff_images(
            image_a,
            image_b,
            options=DiffOptions(engine="systolic", canonical=False),
        )
        assert raw.image == serial.image


# The classes above run whichever step kernel the loader provides (the
# native one wherever ``cc`` exists); these run them on the NumPy step.
@pytest.mark.usefixtures("numpy_step")
class TestEndToEndNumpyStep(TestEndToEnd):
    pass


@pytest.mark.usefixtures("numpy_step")
class TestStateByStateNumpyStep(TestStateByState):
    pass


@pytest.mark.usefixtures("numpy_step")
class TestGuardsNumpyStep(TestGuards):
    pass


@pytest.mark.usefixtures("numpy_step")
class TestPipelineDispatchNumpyStep(TestPipelineDispatch):
    pass
