"""The sharded tier end to end: routing identity, typed errors across
the process boundary, metrics merging, and the TCP front-end."""

import queue
import threading
import time
from functools import reduce

import pytest

from repro.errors import CapacityError, GeometryError, ReproError, ServiceError
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.options import DiffOptions
from repro.service import (
    DiffService,
    ServerThread,
    ShardClient,
    ResiliencePolicy,
    ShardedDiffService,
)
from repro.service.frontend import _WorkerHandle
from repro.service.shard import encode_options
from repro.workloads.motion import generate_sequence
from tests.service.test_service import FAST, assert_identical

BATCHED = DiffOptions(engine="batched")


@pytest.fixture(scope="module")
def clip():
    return generate_sequence(height=24, width=32, n_frames=4, seed=7)


@pytest.fixture(scope="module")
def sharded():
    with ShardedDiffService(BATCHED, workers=2) as service:
        service.ping()
        yield service


class TestShardedIdentity:
    """The tentpole contract: results through the shards are
    byte-identical to a single-process :class:`DiffService`."""

    def test_image_diff_matches_single_process(self, sharded, clip):
        with DiffService(BATCHED, **FAST) as single:
            for prev, cur in zip(clip, clip[1:]):
                through_shards = sharded.diff_images(prev, cur)
                reference = single.diff_images(prev, cur)
                assert [r.to_pairs() for r in through_shards.image] == [
                    r.to_pairs() for r in reference.image
                ]
                for s, r in zip(
                    through_shards.row_results, reference.row_results
                ):
                    assert_identical(s, r)

    def test_duplicate_rows_served_in_input_order(self, sharded):
        a = RLERow.from_pairs([(1, 4), (10, 3)], width=32)
        b = RLERow.from_pairs([(2, 5)], width=32)
        c = RLERow.from_pairs([(6, 2)], width=32)
        d = RLERow.from_pairs([(7, 4)], width=32)
        results = sharded.diff_rows([a, c, a], [b, d, b])
        with DiffService(BATCHED, cache_bytes=0, **FAST) as single:
            reference = single.diff_rows([a, c, a], [b, d, b])
        for got, want in zip(results, reference):
            assert_identical(got, want)

    def test_empty_request(self, sharded):
        assert sharded.diff_rows([], []) == []

    def test_canonical_false_respected(self, clip):
        with ShardedDiffService(
            DiffOptions(engine="batched", canonical=False), workers=2
        ) as raw_sharded, DiffService(
            DiffOptions(engine="batched", canonical=False), **FAST
        ) as raw_single:
            through = raw_sharded.diff_images(clip[0], clip[1])
            reference = raw_single.diff_images(clip[0], clip[1])
            assert [r.to_pairs() for r in through.image] == [
                r.to_pairs() for r in reference.image
            ]


class TestShardedFailureSemantics:
    def test_length_mismatch_raises_geometry_error(self, sharded):
        a = RLERow.from_pairs([(0, 3)], width=16)
        with pytest.raises(GeometryError):
            sharded.diff_rows([a, a], [a])

    def test_worker_error_arrives_typed(self):
        # a single-cell array cannot hold these rows: the workers'
        # CapacityError must cross the pipe as a CapacityError, not as
        # a stringly-typed wrapper
        wide_a = RLERow.from_pairs([(i * 4, 2) for i in range(8)], width=64)
        wide_b = RLERow.from_pairs([(i * 4 + 2, 2) for i in range(8)], width=64)
        with ShardedDiffService(
            DiffOptions(engine="systolic", n_cells=1), workers=2
        ) as tiny:
            with pytest.raises(CapacityError):
                tiny.diff_rows([wide_a], [wide_b])
            # the worker survived the failure and serves the next request
            empty = RLERow.from_pairs([], width=64)
            ok = tiny.diff_rows([empty], [empty])
            assert ok[0].result.to_pairs() == []

    def test_requests_after_close_raise(self):
        service = ShardedDiffService(BATCHED, workers=2)
        service.close()
        service.close()  # idempotent
        a = RLERow.from_pairs([(0, 3)], width=16)
        with pytest.raises(ServiceError):
            service.diff_rows([a], [a])

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ServiceError):
            ShardedDiffService(BATCHED, workers=0)


class _FakePipeEnd:
    """The parent's end of a fake worker pipe.  Like CPython's
    ``Connection``, a ``recv()`` that is under way when ``close()`` runs
    reads from a ``None`` handle and raises ``TypeError``."""

    EOF = object()

    def __init__(self):
        self.to_worker = queue.Queue()
        self.to_parent = queue.Queue()
        self.closed = False
        self.reader = None
        self.reader_alive_at_close = None

    def send(self, message):
        self.to_worker.put(message)

    def recv(self):
        self.reader = threading.current_thread()
        item = self.to_parent.get()
        if self.closed:
            raise TypeError("'NoneType' object cannot be interpreted as an integer")
        if item is self.EOF:
            raise EOFError
        return item

    def close(self):
        self.reader_alive_at_close = self.reader is not None and self.reader.is_alive()
        self.closed = True


class _FakeWorker:
    """A fake shard worker process: it answers ``close`` and exits with
    status 0, or dies with ``exitcode`` on any other request.  Its pipe
    end goes away ``eof_delay`` seconds after the exit."""

    def __init__(self, pipe, exitcode, eof_delay):
        self.pipe = pipe
        self.exitcode = None
        self._exit = (exitcode, eof_delay)
        self._exited = threading.Event()

    def start(self):
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        kind, seq, _ = self.pipe.to_worker.get()
        exitcode, eof_delay = self._exit
        if kind == "close":
            self.pipe.to_parent.put(("ok", seq, None))
            exitcode = 0
        self.exitcode = exitcode
        self._exited.set()
        time.sleep(eof_delay)
        self.pipe.to_parent.put(_FakePipeEnd.EOF)

    def join(self, timeout=None):
        self._exited.wait(timeout)

    def is_alive(self):
        return not self._exited.is_set()

    def terminate(self):  # pragma: no cover - the fake always exits
        pass


class _FakeContext:
    def __init__(self, exitcode=0, eof_delay=0.0):
        self.pipe = _FakePipeEnd()
        self._worker = (exitcode, eof_delay)

    def Pipe(self):
        return self.pipe, _FakePipeEnd()

    def Process(self, **kwargs):
        return _FakeWorker(self.pipe, *self._worker)


class TestWorkerHandle:
    def handle(self, ctx):
        return _WorkerHandle(0, encode_options(BATCHED), None, 1 << 20, ctx)

    def test_pipe_closed_only_after_the_receiver_ends(self, monkeypatch):
        # The child's end goes away a moment after the close reply, so
        # the receiver is back inside recv() while the worker exits.
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        ctx = _FakeContext(eof_delay=0.2)
        handle = self.handle(ctx)
        handle.close(timeout=5.0)
        handle._receiver.join(timeout=5.0)
        assert ctx.pipe.reader_alive_at_close is False
        assert errors == []

    def test_pending_request_error_names_the_exit_status(self):
        handle = self.handle(_FakeContext(exitcode=-9))
        with pytest.raises(ServiceError, match=r"still pending \(exit code -9\)"):
            handle.call("ping", timeout=5.0)
        handle.close(timeout=5.0)


class TestShardedMetrics:
    def test_merged_snapshot_equals_worker_fold(self, sharded, clip):
        sharded.diff_images(clip[0], clip[1])
        snapshots = sharded.worker_snapshots()
        assert len(snapshots) == 2
        folded = reduce(lambda acc, snap: acc.merge(snap), snapshots)
        merged = sharded.merged_snapshot()
        assert folded == merged

    def test_merged_counters_match_fleet_stats(self, sharded, clip):
        sharded.diff_images(clip[1], clip[2])
        stats = sharded.stats()
        merged = sharded.merged_snapshot()
        assert stats["requests"] > 0
        assert (
            merged.counter_total("repro_service_requests_total")
            == stats["requests"]
        )

    def test_merged_registry_is_fresh_per_call(self, sharded, clip):
        # worker snapshots are cumulative; merging into a long-lived
        # registry would double-count.  Two back-to-back merges with no
        # traffic in between must agree.
        sharded.diff_images(clip[2], clip[3])
        assert sharded.merged_snapshot() == sharded.merged_snapshot()

    def test_breaker_fields_report_the_worst_worker(self):
        """A breaker state code and a failure rate do not add: with both
        workers' breakers open, the fleet reports one open breaker
        (2.0) at a failure rate of 1.0, not their sums."""
        policy = ResiliencePolicy(
            deadline=1e-9,
            breaker_window=4,
            breaker_min_requests=2,
            breaker_reset_timeout=60.0,
        )
        with ShardedDiffService(BATCHED, workers=2, policy=policy) as fleet:
            for length in range(1, 5):  # fresh content: no cache hits
                rows = [RLERow.from_pairs([(i, length)], width=64) for i in range(16)]
                with pytest.raises(ReproError):
                    fleet.diff_rows(rows, rows[::-1])
            per_worker = fleet.worker_stats()
            stats = fleet.stats()
        assert [w["breaker_state"] for w in per_worker] == [2.0, 2.0]
        assert stats["breaker_state"] == 2.0
        assert stats["breaker_failure_rate"] == 1.0
        assert stats["breaker_transitions"] == sum(
            w["breaker_transitions"] for w in per_worker
        )

    def test_every_worker_reports_identity_gauge(self, sharded):
        merged = sharded.merged_registry()
        text = merged.to_prometheus_text()
        for worker_id in range(2):
            assert f'repro_shard_worker{{worker="{worker_id}"}}' in text


class TestServerAndClient:
    @pytest.fixture(scope="class")
    def client(self, sharded):
        with ServerThread(sharded) as server:
            with ShardClient(server.host, server.port) as client:
                yield client

    def test_ping_reports_worker_count(self, client):
        assert client.ping() == 2

    def test_round_trip_is_byte_identical(self, client, clip):
        results = client.diff_images(clip[0], clip[1])
        with DiffService(BATCHED, cache_bytes=0, **FAST) as single:
            reference = single.diff_images(clip[0], clip[1])
        assert len(results) == len(reference.row_results)
        for got, want in zip(results, reference.row_results):
            assert_identical(got, want)

    def test_stats_and_metrics_exposed(self, client, clip):
        client.diff_images(clip[1], clip[2])
        stats = client.stats()
        assert stats["workers"] == 2.0
        assert stats["requests"] > 0
        assert "repro_service_requests_total" in client.metrics_prometheus()
        document = client.metrics_json()
        assert document["schema"] == "repro.metrics/v1"
        families = {f["name"] for f in document["metrics"]}
        assert "repro_service_requests_total" in families

    def test_typed_error_crosses_the_socket(self, client):
        a = RLERow.from_pairs([(0, 3)], width=16)
        with pytest.raises(GeometryError):
            client.diff_rows([a, a], [a])
