"""Integration tests — whole subsystems composed, per application domain.

Each scenario exercises a realistic chain of the library's pieces the
way a downstream user would: workload generation → persistence →
differencing on real engines → post-processing → deployment modeling.
"""

import numpy as np
import pytest

from repro.core.api import image_diff
from repro.core.options import DiffOptions
from repro.core.machine import SystolicXorMachine
from repro.core.scheduler import row_costs, schedule
from repro.core.timing import pipeline_timing
from repro.core.verifier import verify_trace
from repro.rle.components import label_components
from repro.rle.delta import DeltaSequence
from repro.rle.geometry import bounding_box, centroid
from repro.rle.io import read_rle_text, write_rle_text, read_pbm, write_pbm
from repro.rle.metrics import error_fraction
from repro.rle.morphology import dilate_image
from repro.rle.transpose import transpose
from repro.systolic.trace import TraceRecorder
from repro.workloads.suite import IMAGE_WORKLOADS, get_image_workload


class TestWorkloadRegistry:
    def test_all_pairs_materialize_highly_similar(self):
        """Every application workload produces equal-shape, highly
        similar pairs — the algorithm's target regime."""
        for name, workload in IMAGE_WORKLOADS.items():
            a, b = workload.make()
            assert a.shape == b.shape, name
            assert error_fraction(a, b) < 0.20, name

    def test_deterministic(self):
        a1, b1 = get_image_workload("pcb").make()
        a2, b2 = get_image_workload("pcb").make()
        assert a1 == a2 and b1 == b2

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_image_workload("nothing")


class TestPCBScenario:
    """Scan → persist → inspect → deployment sizing."""

    @pytest.fixture(scope="class")
    def pair(self):
        return get_image_workload("pcb").make()

    def test_roundtrip_through_both_file_formats(self, tmp_path, pair):
        reference, scan = pair
        write_rle_text(reference, tmp_path / "ref.rle")
        write_pbm(scan, tmp_path / "scan.pbm")
        assert read_rle_text(tmp_path / "ref.rle") == reference
        assert read_pbm(tmp_path / "scan.pbm") == scan

    def test_inspection_detects_and_localizes(self, pair):
        from repro.inspection.pipeline import InspectionSystem

        reference, scan = pair
        report = InspectionSystem(reference).inspect(scan)
        assert not report.passed
        for blob in report.defects:
            top, left, bottom, right = blob.bbox
            assert 0 <= top <= bottom < reference.height
            assert 0 <= left <= right < reference.width

    def test_parallel_diff_agrees_with_serial(self, pair):
        from repro.service import ShardedDiffService

        reference, scan = pair
        serial = image_diff(
            reference, scan, options=DiffOptions(engine="batched")
        )
        with ShardedDiffService(DiffOptions(engine="batched"), workers=2) as sharded:
            fanned = sharded.diff_images(reference, scan)
        assert fanned.image == serial.image

    def test_deployment_and_timing_consistent(self, pair):
        reference, scan = pair
        jobs = row_costs(reference, scan, overhead=0)
        timing = pipeline_timing(reference, scan, ports=4)
        # the scheduler's compute totals equal the timing model's
        assert sum(j.iterations for j in jobs) == sum(
            r.compute for r in timing.rows
        )
        plan = schedule(jobs, 4, "lpt")
        assert plan.makespan <= sum(j.cost for j in jobs)


class TestMotionScenario:
    """Clip → delta storage → difference → object extraction."""

    def test_full_chain(self):
        from repro.workloads.motion import generate_sequence

        frames = generate_sequence(96, 96, n_frames=6, seed=21)
        seq = DeltaSequence(frames)
        assert seq.stats.compression_ratio > 1.5

        # the stored deltas ARE the motion masks: extract moving objects
        moving = dilate_image(seq.delta(2), 2, 2)
        blobs = [c for c in label_components(moving) if c.area >= 8]
        assert blobs, "a moving sprite must appear in the delta"
        for blob in blobs:
            cy, cx = blob.centroid
            assert 0 <= cy < 96 and 0 <= cx < 96

    def test_frame_diff_matches_delta(self):
        from repro.workloads.motion import generate_sequence

        frames = generate_sequence(64, 64, n_frames=3, seed=22)
        seq = DeltaSequence(frames)
        diff = image_diff(frames[1], frames[2], options=DiffOptions(engine="systolic"))
        assert diff.image.same_pixels(seq.delta(1))


class TestMapScenario:
    """Revision diff → change localization → geometry."""

    def test_change_features(self):
        original, revised = get_image_workload("map").make()
        diff = image_diff(original, revised)
        box = bounding_box(diff.image)
        assert box is not None
        c = centroid(diff.image)
        top, left, bottom, right = box
        assert top <= c[0] <= bottom and left <= c[1] <= right

    def test_transpose_commutes_with_diff(self):
        original, revised = get_image_workload("map").make()
        direct = transpose(image_diff(original, revised).image)
        transposed_first = image_diff(
            transpose(original), transpose(revised)
        ).image
        assert direct.same_pixels(transposed_first)


class TestCertificateScenario:
    """A full run on application data, certified by the verifier."""

    def test_fingerprint_rows_certify(self):
        a, b = get_image_workload("fingerprint").make()
        machine = SystolicXorMachine()
        # certify a few representative rows end to end
        for y in (40, 80, 120):
            row_a, row_b = a[y], b[y]
            array, _ = machine.build_array(row_a, row_b)
            recorder = TraceRecorder().attach(array)
            array.run(max_iterations=row_a.run_count + row_b.run_count)
            report = verify_trace(recorder.entries, row_a, row_b)
            assert report.ok, (y, report.problems)


class TestCrossEngineOnApplications:
    @pytest.mark.parametrize("name", sorted(IMAGE_WORKLOADS))
    def test_three_engines_agree(self, name):
        a, b = get_image_workload(name).make()
        oracle = a.to_array() ^ b.to_array()
        for engine in ("batched", "sequential"):
            out = image_diff(a, b, options=DiffOptions(engine=engine))
            assert (out.image.to_array() == oracle).all(), (name, engine)
        # the cell machine is slow; spot-check the busiest row
        diffs = np.abs(
            np.array([ra.run_count - rb.run_count for ra, rb in zip(a, b)])
        )
        y = int(diffs.argmax())
        result = SystolicXorMachine().diff(a[y], b[y])
        assert (result.result.to_bits(a.width) == oracle[y]).all(), name
