"""Tests for the per-iteration engine profiler and its schema — the
Corollary 1.1 convergence measurements."""

import json

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs.profile import EngineProfiler, IterationSample
from repro.obs.schema import validate_profile_json
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine


def images(seed=0, h=8, w=96):
    rng = np.random.default_rng(seed)
    a = rng.random((h, w)) < 0.3
    b = rng.random((h, w)) < 0.3
    return RLEImage.from_array(a), RLEImage.from_array(b)


class TestProfilerMechanics:
    def test_on_step_appends_samples(self):
        probe = EngineProfiler()
        probe.on_step(
            step=1, active_lanes=3, busy_cells=10, empty_prefix=0,
            empty_prefix_mean=0.0,
        )
        assert probe.iterations == 1
        assert probe.samples[0] == IterationSample(1, 3, 10, 0, 0.0)

    def test_reset(self):
        probe = EngineProfiler()
        probe.on_step(
            step=1, active_lanes=1, busy_cells=1, empty_prefix=0,
            empty_prefix_mean=0.0,
        )
        probe.reset()
        assert probe.iterations == 0 and probe.samples == []

    def test_render_table_empty(self):
        assert EngineProfiler().render_table() == "(no samples)"

    def test_render_table_decimates(self):
        probe = EngineProfiler()
        for i in range(1, 101):
            probe.on_step(
                step=i, active_lanes=100 - i, busy_cells=5, empty_prefix=i,
                empty_prefix_mean=float(i),
            )
        table = probe.render_table(max_rows=10)
        body = table.splitlines()[2:]
        assert len(body) == 10
        # first and last steps always kept
        assert body[0].split()[0] == "1"
        assert body[-1].split()[0] == "100"


class TestBatchedProbe:
    def test_samples_cover_run_and_validate(self):
        a, b = images(1)
        probe = EngineProfiler()
        engine = BatchedXorEngine(probe=probe)
        results = engine.diff_rows(list(a), list(b))
        max_iters = max(r.iterations for r in results)
        assert probe.iterations == max_iters
        doc = probe.to_dict()
        validate_profile_json(doc)
        json.loads(json.dumps(doc))

    def test_corollary_1_1_monotone_drain(self):
        """The empty-prefix front only moves right, active lanes only
        terminate, and the final sample shows a drained batch."""
        a, b = images(2)
        probe = EngineProfiler()
        BatchedXorEngine(probe=probe).diff_rows(list(a), list(b))
        prefixes = [s.empty_prefix for s in probe.samples]
        lanes = [s.active_lanes for s in probe.samples]
        assert prefixes == sorted(prefixes)
        assert lanes == sorted(lanes, reverse=True)
        assert lanes[-1] == 0
        assert probe.samples[0].busy_cells > 0

    def test_probe_does_not_change_results(self):
        a, b = images(3)
        plain = BatchedXorEngine().diff_rows(list(a), list(b))
        probed = BatchedXorEngine(probe=EngineProfiler()).diff_rows(
            list(a), list(b)
        )
        assert [r.result for r in probed] == [r.result for r in plain]
        assert [r.iterations for r in probed] == [r.iterations for r in plain]

    def test_single_lane_semantics(self):
        a = RLERow.from_pairs([(0, 2), (5, 3), (10, 2)], width=16)
        b = RLERow.from_pairs([(1, 2), (7, 3)], width=16)
        probe = EngineProfiler()
        result = BatchedXorEngine(probe=probe).diff(a, b)
        assert probe.iterations == result.iterations
        validate_profile_json(probe.to_dict())
        for sample in probe.samples[:-1]:
            assert sample.active_lanes == 1
            assert sample.empty_prefix_mean == float(sample.empty_prefix)
        assert probe.samples[-1].active_lanes == 0


class TestProfileSchema:
    def _doc(self):
        return {
            "schema": "repro.profile/v1",
            "iterations": 2,
            "samples": [
                {
                    "step": 1, "active_lanes": 2, "busy_cells": 4,
                    "empty_prefix": 0, "empty_prefix_mean": 0.0,
                },
                {
                    "step": 2, "active_lanes": 1, "busy_cells": 3,
                    "empty_prefix": 1, "empty_prefix_mean": 1.0,
                },
            ],
        }

    def test_valid_document_passes(self):
        validate_profile_json(self._doc())

    def test_iteration_count_mismatch(self):
        doc = self._doc()
        doc["iterations"] = 5
        with pytest.raises(ObservabilityError, match="iterations"):
            validate_profile_json(doc)

    def test_growing_lanes_rejected(self):
        doc = self._doc()
        doc["samples"][1]["active_lanes"] = 3
        with pytest.raises(ObservabilityError, match="active_lanes"):
            validate_profile_json(doc)

    def test_front_moving_left_rejected(self):
        doc = self._doc()
        doc["samples"][0]["empty_prefix"] = 2
        with pytest.raises(ObservabilityError, match="never moves left"):
            validate_profile_json(doc)
