"""Tests for span tracing: nesting, attributes, exporters, the null
tracer, and the engine wiring (image → row-batch → step spans)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.core.options import DiffOptions
from repro.obs.schema import validate_chrome_trace, validate_nested
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer


class FakeClock:
    """Deterministic clock: each reading advances by ``tick``."""

    def __init__(self, tick=1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        value = self.now
        self.now += self.tick
        return value


class TestSpans:
    def test_nesting_and_parents(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
            outer.set_attribute("late", True)
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == -1
        assert by_name["outer"].attributes == {"late": True}
        # inner finishes before outer (completion order)
        assert tracer.spans[0].name == "inner"

    def test_open_attributes(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("step", index=3, engine="batched"):
            pass
        assert tracer.spans[0].attributes == {"index": 3, "engine": "batched"}

    def test_durations_are_positive_and_contained(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert inner.duration > 0 and outer.duration > 0
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_out_of_order_exit_raises(self):
        tracer = Tracer(clock=FakeClock())
        a = tracer.span("a")
        b = tracer.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(ObservabilityError):
            a.__exit__(None, None, None)

    def test_record_span_for_worker_durations(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("sharded_diff_rows"):
            record = tracer.record_span("shard_diff_rows", 0.25, lane=1, rows=4)
        assert record.duration == 0.25
        assert record.attributes == {"rows": 4}
        assert record.lane == 1
        worker = next(s for s in tracer.spans if s.name == "shard_diff_rows")
        parent = next(s for s in tracer.spans if s.name == "sharded_diff_rows")
        assert worker.parent_id == parent.span_id

    def test_durations_totals(self):
        tracer = Tracer(clock=FakeClock())
        tracer.record_span("diff", 0.5)
        tracer.record_span("diff", 0.25)
        tracer.record_span("align", 1.0)
        assert tracer.durations("diff") == {"diff": 0.75}
        totals = tracer.durations()
        assert totals == {"diff": 0.75, "align": 1.0}


class TestExporters:
    def _traced(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", rows=2):
            with tracer.span("inner", index=0):
                pass
        return tracer

    def test_jsonl_round_trips(self):
        tracer = self._traced()
        lines = tracer.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert {d["name"] for d in docs} == {"outer", "inner"}
        outer = next(d for d in docs if d["name"] == "outer")
        assert outer["parent_id"] == -1
        assert outer["attributes"] == {"rows": 2}

    def test_empty_jsonl(self):
        assert Tracer().to_jsonl() == ""

    def test_chrome_trace_validates_and_nests(self):
        doc = self._traced().to_chrome_trace()
        validate_chrome_trace(doc, required_names=("outer", "inner"))
        validate_nested(doc, "outer", "inner")
        event = next(e for e in doc["traceEvents"] if e["name"] == "inner")
        assert event["ph"] == "X"
        assert event["args"] == {"index": 0}

    def test_write_files(self, tmp_path):
        tracer = self._traced()
        trace_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        tracer.write_chrome_trace(trace_path)
        tracer.write_jsonl(jsonl_path)
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert len(jsonl_path.read_text().strip().splitlines()) == 2


class TestNullTracer:
    def test_shared_span_object(self):
        a = NULL_TRACER.span("x", index=1)
        b = NULL_TRACER.span("y")
        assert a is b  # preallocated — no per-call allocation

    def test_noop_protocol(self):
        with NULL_TRACER.span("x") as span:
            span.set_attribute("ignored", 1)
        assert NULL_TRACER.record_span("x", 1.0) is None
        assert NULL_TRACER.durations() == {}
        assert NullTracer.enabled is False and Tracer.enabled is True


class TestEngineWiring:
    def _images(self, rng):
        from repro.rle.image import RLEImage

        a = rng.random((6, 64)) < 0.3
        b = a.copy()
        b[2, 10:14] ^= True
        b[4, 30:33] ^= True
        return RLEImage.from_array(a), RLEImage.from_array(b)

    def test_batched_span_tree(self, np_rng):
        from repro.core.pipeline import diff_images

        a, b = self._images(np_rng)
        tracer = Tracer()
        result = diff_images(
            a, b, options=DiffOptions(engine="batched", tracer=tracer)
        )
        doc = tracer.to_chrome_trace()
        validate_chrome_trace(
            doc, required_names=("image_diff", "row_batch", "step")
        )
        validate_nested(doc, "image_diff", "row_batch")
        validate_nested(doc, "row_batch", "step")
        steps = [s for s in tracer.spans if s.name == "step"]
        assert len(steps) == result.max_iterations
        batch = next(s for s in tracer.spans if s.name == "row_batch")
        assert batch.attributes["iterations"] == result.max_iterations

    def test_row_batch_names_its_step_kernel(self, np_rng):
        from repro.core import native
        from repro.core.pipeline import diff_images

        a, b = self._images(np_rng)

        def kernel_attribute():
            tracer = Tracer()
            diff_images(a, b, options=DiffOptions(engine="batched", tracer=tracer))
            batch = next(s for s in tracer.spans if s.name == "row_batch")
            return batch.attributes["kernel"]

        loaded = "numpy" if native.LOADER.kernel() is None else "native"
        assert kernel_attribute() == loaded
        with native.LOADER.withheld():
            assert kernel_attribute() == "numpy"

    def test_row_engine_span_tree(self, np_rng):
        from repro.core.pipeline import diff_images

        a, b = self._images(np_rng)
        tracer = Tracer()
        result = diff_images(
            a, b, options=DiffOptions(engine="systolic", tracer=tracer)
        )
        doc = tracer.to_chrome_trace()
        validate_nested(doc, "image_diff", "row")
        rows = [s for s in tracer.spans if s.name == "row"]
        assert [s.attributes["iterations"] for s in rows] == [
            r.iterations for r in result.row_results
        ]

    def test_row_diff_span(self):
        from repro.rle.row import RLERow
        from repro.core.api import row_diff

        a = RLERow.from_pairs([(0, 2), (5, 3)], width=12)
        b = RLERow.from_pairs([(1, 2), (8, 2)], width=12)
        tracer = Tracer()
        result = row_diff(
            a, b, options=DiffOptions(engine="batched", tracer=tracer)
        )
        assert (
            result.result
            == row_diff(a, b, options=DiffOptions(engine="batched")).result
        )
        span = next(s for s in tracer.spans if s.name == "row_diff")
        assert span.attributes["iterations"] == result.iterations
        assert span.attributes["k1"] == a.run_count

    def test_traced_result_identical_to_untraced(self, np_rng):
        from repro.core.pipeline import diff_images

        a, b = self._images(np_rng)
        traced = diff_images(a, b, options=DiffOptions(tracer=Tracer()))
        plain = diff_images(a, b)
        assert traced.image == plain.image
        assert [r.iterations for r in traced.row_results] == [
            r.iterations for r in plain.row_results
        ]


class TestInspectionStages:
    def test_stage_seconds_derived_from_spans(self):
        from repro.inspection.pipeline import InspectionSystem
        from repro.workloads.pcb import PCBLayout, generate_inspection_case

        layout = PCBLayout(height=64, width=64)
        reference, scan, _truth = generate_inspection_case(
            layout, n_defects=2, seed=3
        )
        tracer = Tracer()
        system = InspectionSystem(reference, tracer=tracer)
        report = system.inspect(scan)
        assert set(report.stage_seconds) == {"align", "diff", "extract"}
        by_name = {s.name: s for s in tracer.spans}
        assert {"inspect", "align", "diff", "extract"} <= set(by_name)
        for stage in ("align", "diff", "extract"):
            assert report.stage_seconds[stage] == by_name[stage].duration
            assert by_name[stage].parent_id == by_name["inspect"].span_id

    def test_private_tracer_by_default(self):
        from repro.inspection.pipeline import InspectionSystem
        from repro.workloads.pcb import PCBLayout, generate_inspection_case

        layout = PCBLayout(height=64, width=64)
        reference, scan, _truth = generate_inspection_case(
            layout, n_defects=1, seed=4
        )
        report = InspectionSystem(reference).inspect(scan)
        assert set(report.stage_seconds) == {"align", "diff", "extract"}
        assert all(v >= 0.0 for v in report.stage_seconds.values())
