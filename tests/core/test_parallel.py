"""One image fanned out over worker processes: the sharded tier.

An image's rows are independent, so the one multi-process path —
:class:`~repro.service.ShardedDiffService`, which routes every row pair
to a worker by content — must answer exactly what the serial
:func:`~repro.core.pipeline.diff_images` answers, for every engine and
option, however the rows fall across the shards.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.errors import GeometryError, OptionsError, ServiceError, UnknownEngineError
from repro.rle.image import RLEImage
from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images
from repro.obs.metrics import MetricsRegistry
from repro.service import ShardedDiffService

REQUESTS = "repro_service_requests_total"


def images(seed=0, h=32, w=128):
    rng = np.random.default_rng(seed)
    a = rng.random((h, w)) < 0.3
    b = a.copy()
    for _ in range(10):
        y = int(rng.integers(0, h))
        x = int(rng.integers(0, w - 4))
        b[y, x : x + 3] ^= True
    return RLEImage.from_array(a), RLEImage.from_array(b)


def sharded_diff(a, b, options=None, workers=2):
    """``a XOR b`` through a fresh ``workers``-process sharded service."""
    with ShardedDiffService(options, workers=workers) as service:
        return service.diff_images(a, b)


@pytest.fixture(scope="module")
def sharded():
    with ShardedDiffService(DiffOptions(engine="batched"), workers=2) as service:
        yield service


class TestEquivalenceWithSerial:
    def test_same_image_and_iterations(self, sharded):
        a, b = images(1)
        serial = diff_images(a, b, DiffOptions(engine="batched"))
        fanned = sharded.diff_images(a, b)
        assert fanned.image == serial.image
        assert fanned.total_iterations == serial.total_iterations
        assert [r.iterations for r in fanned.row_results] == [
            r.iterations for r in serial.row_results
        ]

    def test_raw_output_mode(self):
        a, b = images(2)
        options = DiffOptions(engine="batched", canonical=False)
        assert sharded_diff(a, b, options).image == diff_images(a, b, options).image

    def test_odd_chunking(self, sharded):
        """A 17-row image splits unevenly over the two shards (both get
        rows); the reassembled answer is still the serial one, in row
        order."""
        a, b = images(3, h=17)
        per_shard = [0, 0]
        for row in a:
            per_shard[sharded.ring.shard_for_row(row)] += 1
        assert per_shard[0] != per_shard[1] and min(per_shard) > 0
        serial = diff_images(a, b, DiffOptions(engine="batched"))
        assert sharded.diff_images(a, b).image == serial.image

    def test_single_worker_short_circuits(self):
        a, b = images(4)
        assert (
            sharded_diff(a, b, workers=1).image
            == diff_images(a, b, DiffOptions(engine="batched")).image
        )

    def test_stats_match_serial(self, sharded):
        """The activity counters survive the pipe: merged and per row
        they equal the serial run's (and really fired)."""
        a, b = images(7)
        serial = diff_images(a, b, DiffOptions(engine="batched"))
        fanned = sharded.diff_images(a, b)
        assert fanned.stats.as_dict() == serial.stats.as_dict()
        assert fanned.stats.as_dict() != {}
        for got, want in zip(fanned.row_results, serial.row_results):
            assert got.stats.as_dict() == want.stats.as_dict()


class TestObservability:
    def test_merged_worker_metrics_match_serial(self):
        """Workers record into private registries; the fleet view is
        their fold, and it counts every row of the image exactly once."""
        a, b = images(8)
        with ShardedDiffService(DiffOptions(engine="batched"), workers=2) as service:
            service.diff_images(a, b)
            snapshots = service.worker_snapshots()
            merged = service.merged_snapshot()
        fold = snapshots[0]
        for snapshot in snapshots[1:]:
            fold = fold.merge(snapshot)
        assert merged == fold
        assert merged.counter_total(REQUESTS) == a.height

    def test_tracer_gets_chunk_spans(self):
        """The request's stitched trace: the front-end's span on lane 0,
        the workers' spans on their own lanes, covering every row."""
        a, b = images(9)
        with ShardedDiffService(DiffOptions(engine="batched"), workers=2) as service:
            service.diff_images(a, b)
            (request_id,) = service.trace_store.request_ids()
            spans = service.trace_store.get(request_id)
        front = [s for s in spans if s.lane == 0]
        workers = [s for s in spans if s.lane >= 1]
        assert [s.name for s in front] == ["sharded_diff_rows"]
        assert front[0].attributes["rows"] == a.height
        assert {s.name for s in workers} == {"shard_diff_rows"}
        assert {s.lane for s in workers} == {1, 2}
        assert sum(s.attributes["rows"] for s in workers) == a.height
        assert all(s.duration >= 0.0 for s in spans)

    def test_single_worker_passes_observability_through(self):
        """The caller's handles stay on the caller's side of the process
        boundary; what the workers record is read back through the
        service."""
        from repro.obs.tracing import Tracer

        a, b = images(10)
        registry = MetricsRegistry()
        tracer = Tracer()
        with ShardedDiffService(
            DiffOptions(metrics=registry, tracer=tracer), workers=1
        ) as service:
            assert service.options == DiffOptions()
            service.diff_images(a, b)
            merged = service.merged_snapshot()
            assert len(service.trace_store) == 1
        assert merged.counter_total(REQUESTS) == a.height
        assert registry.snapshot().families == ()
        assert tracer.spans == []

    def test_row_stats_rebuilt_via_from_items(self, sharded):
        """Every row's counters round-trip the pipe through
        ``CounterBag.items()`` → ``ActivityStats.from_items`` without
        loss, including the utilization derivation."""
        a, b = images(11)
        serial = diff_images(a, b, DiffOptions(engine="batched"))
        fanned = sharded.diff_images(a, b)
        for got, want in zip(fanned.row_results, serial.row_results):
            assert got.stats == want.stats
            if got.iterations and got.n_cells:
                u = got.stats.utilization(got.iterations, got.n_cells)
                assert 0.0 <= u <= 1.0
                assert u == want.stats.utilization(got.iterations, got.n_cells)


class TestOptionsPassThrough:
    """The workers honour the whole DiffOptions bundle, not just the
    batched engine."""

    @pytest.mark.parametrize("engine", ["systolic", "sequential"])
    def test_requested_engine_runs_in_workers(self, engine):
        a, b = images(12, h=12, w=64)
        options = DiffOptions(engine=engine)
        fanned = sharded_diff(a, b, options)
        serial = diff_images(a, b, options)
        assert fanned.image == serial.image
        assert [r.iterations for r in fanned.row_results] == [
            r.iterations for r in serial.row_results
        ]
        assert [r.n_cells for r in fanned.row_results] == [
            r.n_cells for r in serial.row_results
        ]
        assert [r.stats for r in fanned.row_results] == [
            r.stats for r in serial.row_results
        ]

    def test_paranoid_checks_run_in_workers(self, monkeypatch):
        """A shard worker honours ``paranoid``: one checker per row.  The
        worker loop runs in a thread here, over a real pipe, so the spy
        sees every checker it builds."""
        from repro.core import invariants
        from repro.obs.context import RequestContext, encode_context
        from repro.service.shard import (
            decode_result,
            encode_options,
            encode_row,
            worker_main,
        )

        a, b = images(16, h=4, w=64)
        options = DiffOptions(engine="systolic", paranoid=True)
        serial = [r.result for r in diff_images(a, b, options).row_results]
        built = []
        checker = invariants.ParanoidChecker

        def spy(*args, **kwargs):
            built.append(args)
            return checker(*args, **kwargs)

        monkeypatch.setattr(invariants, "ParanoidChecker", spy)
        front, back = multiprocessing.Pipe()
        worker = threading.Thread(
            target=worker_main, args=(back, 0, encode_options(options), None, 1 << 20)
        )
        worker.start()
        try:
            front.send(
                (
                    "diff_rows",
                    0,
                    (
                        tuple(encode_row(row) for row in a),
                        tuple(encode_row(row) for row in b),
                        encode_context(RequestContext.new()),
                    ),
                )
            )
            status, _seq, (wires, _spans, _events) = front.recv()
        finally:
            front.send(("close", 1, None))
            front.recv()
            worker.join(timeout=30)
        assert status == "ok"
        assert [decode_result(w).result for w in wires] == serial
        assert len(built) == a.height

    def test_n_cells_reaches_workers(self):
        a, b = images(13, h=12, w=64)
        fanned = sharded_diff(a, b, DiffOptions(engine="systolic", n_cells=48))
        assert all(r.n_cells == 48 for r in fanned.row_results)

    def test_unknown_engine_rejected_at_boundary(self):
        with pytest.raises(UnknownEngineError):
            ShardedDiffService(DiffOptions(engine="warp"), workers=2)
        # the pre-1.1 bare-string spelling is a typed hard error, raised
        # before any worker starts
        with pytest.raises(OptionsError):
            ShardedDiffService("batched", workers=2)

    def test_probe_samples_replayed_from_workers(self):
        """A convergence probe is instrumentation, so it stays behind at
        the process boundary; the answer is the serial one."""
        from repro.obs.profile import EngineProfiler

        a, b = images(15, h=16, w=64)
        probe = EngineProfiler()
        with ShardedDiffService(DiffOptions(probe=probe), workers=2) as service:
            assert service.options.probe is None
            fanned = service.diff_images(a, b)
        assert fanned.image == diff_images(a, b).image
        assert probe.samples == []


class TestValidation:
    def test_shape_mismatch(self, sharded):
        a, _ = images(5)
        with pytest.raises(GeometryError):
            sharded.diff_images(a, RLEImage.blank(1, 1))

    def test_bad_worker_count(self):
        with pytest.raises(ServiceError):
            ShardedDiffService(workers=0)

    def test_empty_image(self, sharded):
        empty = RLEImage([], width=8)
        assert sharded.diff_images(empty, empty).image.height == 0
