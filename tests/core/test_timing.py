"""Tests for the row-pipeline timing model."""

import numpy as np
import pytest

from repro.errors import GeometryError, SystolicError
from repro.rle.image import RLEImage
from repro.core.batched import BatchedXorEngine
from repro.core.timing import (
    PipelineTiming,
    RowPhases,
    measure_row_phases,
    pipeline_timing,
)


def images(seed=0, h=16, w=96, errors=4):
    rng = np.random.default_rng(seed)
    a = rng.random((h, w)) < 0.3
    b = a.copy()
    for _ in range(errors):
        y = int(rng.integers(0, h))
        x = int(rng.integers(0, w - 4))
        b[y, x : x + 3] ^= True
    return RLEImage.from_array(a), RLEImage.from_array(b)


class TestRowPhases:
    def test_serialized_is_sum(self):
        phases = RowPhases(0, load=5, compute=10, drain=3)
        assert phases.serialized == 18
        assert phases.overlapped == 10

    def test_io_dominates_when_compute_tiny(self):
        phases = RowPhases(0, load=8, compute=1, drain=2)
        assert phases.overlapped == 8


class TestMeasurement:
    def test_load_counts_runs(self):
        a, b = images(1)
        rows = measure_row_phases(a, b, ports=1)
        for i, phases in enumerate(rows):
            assert phases.load == max(a[i].run_count, b[i].run_count)

    def test_ports_divide_io(self):
        a, b = images(2)
        one = measure_row_phases(a, b, ports=1)
        four = measure_row_phases(a, b, ports=4)
        for p1, p4 in zip(one, four):
            assert p4.load == -(-p1.load // 4)
            assert p4.compute == p1.compute  # compute unaffected

    def test_validation(self):
        """The typed-exception contract: shape mismatches are geometry
        problems, bad port counts are systolic-configuration problems —
        not generic ``ReproError``."""
        a, b = images(3)
        with pytest.raises(GeometryError):
            measure_row_phases(a, RLEImage.blank(1, 1))
        with pytest.raises(SystolicError):
            measure_row_phases(a, b, ports=0)

    def test_phase_costs_engine_independent(self):
        """``measure_row_phases`` computes the whole image as one batch;
        a hand-rolled sweep of one-lane batches must derive identical
        load/compute/drain costs (phase costs are properties of the
        inputs and the algorithm, not of the simulation strategy)."""
        a, b = images(8)
        measured = measure_row_phases(a, b, ports=2)
        engine = BatchedXorEngine(collect_stats=False)
        for i, (ra, rb) in enumerate(zip(a, b)):
            result = engine.diff(ra, rb)
            expect_load = -(-max(ra.run_count, rb.run_count) // 2)
            expect_drain = -(-result.result.run_count // 2)
            assert measured[i].load == expect_load
            assert measured[i].compute == result.iterations
            assert measured[i].drain == expect_drain

    def test_tracer_records_span(self):
        from repro.obs.tracing import Tracer

        a, b = images(9)
        tracer = Tracer()
        traced = measure_row_phases(a, b, tracer=tracer)
        assert traced == measure_row_phases(a, b)
        names = [s.name for s in tracer.spans]
        assert "measure_row_phases" in names


class TestPipeline:
    def test_double_buffering_never_slower(self):
        a, b = images(4)
        timing = pipeline_timing(a, b)
        assert timing.double_buffered_cycles <= timing.single_buffered_cycles
        assert timing.speedup >= 1.0

    def test_empty_image(self):
        empty = RLEImage([], width=8)
        timing = pipeline_timing(empty, empty)
        assert timing.single_buffered_cycles == 0
        assert timing.double_buffered_cycles == 0
        assert timing.speedup == 1.0

    def test_double_buffer_formula(self):
        timing = PipelineTiming(
            rows=[
                RowPhases(0, load=2, compute=10, drain=1),
                RowPhases(1, load=3, compute=4, drain=5),
            ],
            ports=1,
        )
        # prologue (2) + max(2,10,1) + max(3,4,5) + epilogue (5)
        assert timing.double_buffered_cycles == 2 + 10 + 5 + 5
        assert timing.single_buffered_cycles == 13 + 12

    def test_similar_images_become_io_bound(self):
        """The hidden bottleneck: when rows are nearly identical the
        compute collapses but the runs still have to stream in."""
        a, b = images(5, errors=1)
        timing = pipeline_timing(a, b, ports=1)
        assert timing.io_bound_rows > timing.rows[0].row_index  # > 0
        # wide I/O removes it
        wide = pipeline_timing(a, b, ports=16)
        assert wide.io_bound_rows <= timing.io_bound_rows

    def test_io_bound_count(self):
        timing = PipelineTiming(
            rows=[
                RowPhases(0, load=9, compute=1, drain=0),
                RowPhases(1, load=1, compute=9, drain=0),
            ],
            ports=1,
        )
        assert timing.io_bound_rows == 1
