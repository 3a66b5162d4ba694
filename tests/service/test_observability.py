"""Distributed observability under failure.

The happy-path contract (one request id, a stitched multi-lane trace,
schema-valid structured logs) is asserted first, then held under every
failure mode the serving tier documents:

- a worker process crashing mid-request still yields a typed error, a
  ``worker_death`` log event carrying the request id, and a stitched
  trace whose surviving spans have no orphans;
- a tripped breaker logs ``breaker_transition`` and stamps every shed
  request with a ``request_shed`` event;
- a chaos-injected transient fault logs ``retry`` and the request still
  completes byte-identical to the fault-free reference;
- everything the log ever emits round-trips as schema-valid
  ``repro.log/v1`` JSONL (:func:`repro.obs.schema.validate_log_lines`);
- ``stats()`` and ``info()`` report the registry's series, and report
  the same numbers when the service counts into a private registry.
"""

import pytest

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadError,
)
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.options import DiffOptions
from repro.obs.context import RequestContext
from repro.obs.log import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    validate_chrome_trace,
    validate_log_lines,
    validate_log_record,
)
from repro.service import (
    ChaosEngine,
    ChaosSchedule,
    DiffService,
    ResiliencePolicy,
    ResilientDiffService,
    ServerThread,
    ShardClient,
    ShardedDiffService,
)
from repro.service.batcher import compute_row_diffs
from repro.service.cache import DiffCache
from repro.service.chaos import corrupt_disk_entry
from repro.service.lifecycle import RequestLifecycle
from repro.service.store import RowStore
from tests.service.test_resilience import FakeClock
from tests.service.test_service import FAST, assert_identical

BATCHED = DiffOptions(engine="batched")

ROW_A = RLERow.from_pairs([(0, 4), (8, 2), (20, 5)], width=32)
ROW_B = RLERow.from_pairs([(2, 4), (21, 3)], width=32)

#: Trips after two failures (window 4, min 2, threshold 0.5); the long
#: reset keeps it open for the rest of the test.
TWITCHY = ResiliencePolicy(
    max_retries=0,
    breaker_window=4,
    breaker_min_requests=2,
    breaker_failure_threshold=0.5,
    breaker_reset_timeout=60.0,
    jitter=0.0,
)


def make_row_pairs(n=12, width=64):
    """``n`` distinct row pairs — enough content variety that the ring
    routes to both shards of a 2-worker service (asserted per test)."""
    rows_a = [
        RLERow.from_pairs([(i % 8, 4), (20 + (i % 5), 3 + (i % 3))], width=width)
        for i in range(n)
    ]
    rows_b = [
        RLERow.from_pairs([(2 + (i % 6), 5), (40, 1 + (i % 7))], width=width)
        for i in range(n)
    ]
    return rows_a, rows_b


def assert_no_orphan_spans(spans):
    """Every span is a root or parented by a span in the same trace."""
    span_ids = {s.span_id for s in spans}
    for span in spans:
        assert span.parent_id == -1 or span.parent_id in span_ids, span


def assert_log_schema_valid(records):
    assert records, "expected at least one structured log record"
    for record in records:
        validate_log_record(record)


# --------------------------------------------------------------------- #
# Happy path: the invariants the failure tests then hold under fire     #
# --------------------------------------------------------------------- #
class TestStitchedTrace:
    def test_one_request_id_spans_every_touched_process(self):
        rows_a, rows_b = make_row_pairs()
        with ShardedDiffService(BATCHED, workers=2) as svc:
            assert {svc.ring.shard_for_row(r) for r in rows_a} == {0, 1}
            ctx = RequestContext.new()
            svc.diff_rows(rows_a, rows_b, ctx=ctx)

            spans = svc.trace_store.get(ctx.request_id)
            names = [s.name for s in spans]
            assert names.count("sharded_diff_rows") == 1
            assert names.count("shard_diff_rows") == 2
            # lane 0 = front-end, lanes 1..N = workers
            assert {s.lane for s in spans} == {0, 1, 2}
            assert_no_orphan_spans(spans)
            for span in spans:
                assert span.attributes["request_id"] == ctx.request_id

            validate_chrome_trace(
                svc.trace_store.to_chrome_trace(ctx.request_id)
            )

    def test_worker_log_events_ship_back_with_the_request_id(self):
        rows_a, rows_b = make_row_pairs()
        with ShardedDiffService(BATCHED, workers=2) as svc:
            ctx = RequestContext.new()
            svc.diff_rows(rows_a, rows_b, ctx=ctx)

            records = svc.log.records()
            assert_log_schema_valid(records)
            mine = [r for r in records if r["request_id"] == ctx.request_id]
            kinds = [r["event"] for r in mine]
            # front-end lifecycle + one admitted/completed per worker,
            # shipped back inside the shard replies
            assert kinds.count("request_admitted") >= 3
            assert kinds.count("request_completed") >= 3
            frontend_done = [
                r
                for r in mine
                if r["event"] == "request_completed"
                and r["fields"].get("tier") == "frontend"
            ]
            assert len(frontend_done) == 1
            assert frontend_done[0]["fields"]["ok"] is True

    def test_unsampled_requests_skip_spans_but_keep_logs(self):
        rows_a, rows_b = make_row_pairs()
        with ShardedDiffService(BATCHED, workers=2) as svc:
            ctx = RequestContext(request_id="feedfacefeedface", sampled=False)
            svc.diff_rows(rows_a, rows_b, ctx=ctx)
            assert svc.trace_store.get(ctx.request_id) == []
            assert any(
                r["request_id"] == ctx.request_id for r in svc.log.records()
            )


# --------------------------------------------------------------------- #
# Worker crash mid-request                                              #
# --------------------------------------------------------------------- #
class TestWorkerCrash:
    def test_dead_worker_logs_worker_death_with_the_request_id(self):
        rows_a, rows_b = make_row_pairs()
        with ShardedDiffService(BATCHED, workers=2) as svc:
            svc.ping()
            assert {svc.ring.shard_for_row(r) for r in rows_a} == {0, 1}
            handle = svc._workers[0]
            handle._process.terminate()
            handle._process.join(timeout=10)
            assert not handle.alive

            ctx = RequestContext.new()
            with pytest.raises(ServiceError):
                svc.diff_rows(rows_a, rows_b, ctx=ctx)

            records = svc.log.records()
            assert_log_schema_valid(records)
            deaths = [r for r in records if r["event"] == "worker_death"]
            assert deaths
            assert deaths[0]["request_id"] == ctx.request_id
            assert deaths[0]["level"] == "error"
            assert deaths[0]["fields"]["worker"] == 0
            # the failed request still gets terminal accounting
            done = [
                r
                for r in records
                if r["event"] == "request_completed"
                and r["request_id"] == ctx.request_id
                and r["fields"].get("tier") == "frontend"
            ]
            assert len(done) == 1
            assert done[0]["fields"]["ok"] is False
            assert done[0]["fields"]["error"] == "ServiceError"
            assert done[0]["level"] == "warning"

    def test_surviving_worker_spans_still_stitch_without_orphans(self):
        rows_a, rows_b = make_row_pairs()
        with ShardedDiffService(BATCHED, workers=2) as svc:
            svc.ping()
            handle = svc._workers[0]
            handle._process.terminate()
            handle._process.join(timeout=10)

            ctx = RequestContext.new()
            with pytest.raises(ServiceError):
                svc.diff_rows(rows_a, rows_b, ctx=ctx)

            spans = svc.trace_store.get(ctx.request_id)
            lanes = {s.lane for s in spans}
            assert 0 in lanes  # the front-end span survives the failure
            assert 1 not in lanes  # the dead worker shipped nothing
            assert_no_orphan_spans(spans)
            validate_chrome_trace(
                svc.trace_store.to_chrome_trace(ctx.request_id)
            )

            health = svc.health()
            assert health["status"] == "degraded"
            assert health["workers_alive"] == 1


# --------------------------------------------------------------------- #
# Breaker-open shedding                                                 #
# --------------------------------------------------------------------- #
class TestBreakerShedEvents:
    def test_shed_requests_log_breaker_transition_and_request_shed(self):
        log = StructuredLog()
        chaos = ChaosEngine(
            ChaosSchedule(["error"], cycle=True), sleep=lambda _s: None
        )
        with ResilientDiffService(
            BATCHED,
            policy=TWITCHY,
            compute=chaos,
            cache_bytes=0,
            log=log,
            sleep=lambda _s: None,
            **FAST,
        ) as svc:
            for _ in range(2):
                with pytest.raises(ReproError):
                    svc.row_diff(ROW_A, ROW_B)
            with pytest.raises(ServiceOverloadError):
                svc.row_diff(ROW_A, ROW_B, request_id="feedface00000001")

        records = log.records()
        assert_log_schema_valid(records)
        transitions = [
            r for r in records if r["event"] == "breaker_transition"
        ]
        assert transitions
        assert transitions[0]["fields"] == {
            "from_state": "closed",
            "to_state": "open",
        }
        shed = [r for r in records if r["event"] == "request_shed"]
        assert shed
        assert shed[-1]["request_id"] == "feedface00000001"
        assert shed[-1]["level"] == "warning"


# --------------------------------------------------------------------- #
# Chaos-injected retry                                                  #
# --------------------------------------------------------------------- #
class TestRetryEvents:
    def test_transient_fault_logs_retry_and_still_completes(self):
        log = StructuredLog()
        chaos = ChaosEngine(ChaosSchedule(["error"]), sleep=lambda _s: None)
        policy = ResiliencePolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        with ResilientDiffService(
            BATCHED,
            policy=policy,
            compute=chaos,
            cache_bytes=0,
            log=log,
            sleep=lambda _s: None,
            **FAST,
        ) as svc:
            result = svc.row_diff(ROW_A, ROW_B, request_id="c0ffee0000000001")
        with DiffService(BATCHED, cache_bytes=0, **FAST) as single:
            assert_identical(result, single.row_diff(ROW_A, ROW_B))

        records = log.records()
        assert_log_schema_valid(records)
        events = [r["event"] for r in records]
        assert events.count("retry") == 1
        done = [
            r
            for r in records
            if r["event"] == "request_completed"
            and r["request_id"] == "c0ffee0000000001"
        ]
        assert len(done) == 1
        assert done[0]["fields"]["ok"] is True
        # lifecycle ordering: admitted -> retry -> completed
        assert events.index("request_admitted") < events.index("retry")
        assert events.index("retry") < events.index("request_completed")

    def test_log_round_trips_as_schema_valid_jsonl(self, tmp_path):
        log = StructuredLog()
        chaos = ChaosEngine(ChaosSchedule(["error"]), sleep=lambda _s: None)
        policy = ResiliencePolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
        with ResilientDiffService(
            BATCHED,
            policy=policy,
            compute=chaos,
            cache_bytes=0,
            log=log,
            sleep=lambda _s: None,
            **FAST,
        ) as svc:
            svc.row_diff(ROW_A, ROW_B, request_id="c0ffee0000000002")

        path = tmp_path / "events.jsonl"
        log.write_jsonl(path)
        checked = validate_log_lines(path.read_text(encoding="utf-8"))
        assert checked == len(log.records()) > 0


# --------------------------------------------------------------------- #
# Request-lifecycle records: one pair per tier, one field set            #
# --------------------------------------------------------------------- #
LIFECYCLE_EVENTS = (
    "request_admitted",
    "request_completed",
    "request_shed",
    "deadline_expired",
)
TERMINAL_FIELDS = {"op", "tier", "seconds", "slo_breach"}


def lifecycle(records):
    """``(event, op, tier)`` of every request-lifecycle record."""
    return [
        (r["event"], r["fields"]["op"], r["fields"]["tier"])
        for r in records
        if r["event"] in LIFECYCLE_EVENTS
    ]


class TestLifecycleRecords:
    @pytest.mark.parametrize("entry", ["diff_rows", "diff_images"])
    @pytest.mark.parametrize("tier", ["base", "service", "frontend"])
    def test_each_tier_accounts_the_called_entry_once(self, tier, entry):
        rows_a, rows_b = make_row_pairs(n=4)
        log = StructuredLog()
        if tier == "frontend":
            svc = ShardedDiffService(BATCHED, workers=1)
            log = svc.log
        elif tier == "service":
            svc = ResilientDiffService(BATCHED, log=log, **FAST)
        else:
            svc = DiffService(BATCHED, log=log, **FAST)
        with svc:
            if entry == "diff_rows":
                svc.diff_rows(rows_a, rows_b)
            else:
                svc.diff_images(
                    RLEImage(rows_a, width=64), RLEImage(rows_b, width=64)
                )
        records = log.records()
        expected = [
            ("request_admitted", entry, tier),
            ("request_completed", entry, tier),
        ]
        if tier == "frontend":
            # the worker's resilient tier serves the routed slice, which
            # is a diff_rows request whatever the front-end entry was
            expected[1:1] = [
                ("request_admitted", "diff_rows", "service"),
                ("request_completed", "diff_rows", "service"),
            ]
        assert lifecycle(records) == expected
        for record in records:
            if record["event"] == "request_admitted":
                assert set(record["fields"]) == {"op", "tier", "units"}
                assert record["fields"]["units"] == 4
            elif record["event"] == "request_completed":
                assert set(record["fields"]) == TERMINAL_FIELDS | {"ok"}

    @pytest.mark.parametrize(
        "error, event",
        [
            (ServiceOverloadError, "request_shed"),
            (DeadlineExceededError, "deadline_expired"),
        ],
    )
    def test_base_tier_sheds_and_expires_like_the_others(self, error, event):
        def failing(options, rows_a, rows_b):
            raise error("injected")

        log = StructuredLog()
        with DiffService(BATCHED, compute=failing, log=log, **FAST) as svc:
            with pytest.raises(error):
                svc.diff_rows([ROW_A], [ROW_B], request_id="feedface00000002")
        records = log.records()
        assert lifecycle(records) == [
            ("request_admitted", "diff_rows", "base"),
            (event, "diff_rows", "base"),
        ]
        assert records[-1]["request_id"] == "feedface00000002"
        assert set(records[-1]["fields"]) == TERMINAL_FIELDS

    def test_base_tier_without_a_log_reads_no_clock(self):
        reads = []
        base = RequestLifecycle("base", clock=lambda: reads.append(1) or 0.0)
        with base.track("diff_rows", None, 1):
            pass
        assert reads == []


# --------------------------------------------------------------------- #
# End-to-end over TCP                                                   #
# --------------------------------------------------------------------- #
class TestTcpPropagation:
    def test_request_id_joins_trace_and_logs_across_the_socket(self):
        rows_a, rows_b = make_row_pairs()
        with ShardedDiffService(BATCHED, workers=2) as svc:
            with ServerThread(svc) as server:
                with ShardClient(server.host, server.port) as client:
                    client.diff_rows(
                        rows_a, rows_b, request_id="upstream-trace-01"
                    )
                    rid = client.last_request_id
                    assert rid

                    trace = client.trace(rid)
                    validate_chrome_trace(trace)
                    tids = {e["tid"] for e in trace["traceEvents"]}
                    assert len(tids) >= 2

                    logs = client.logs()
                    assert_log_schema_valid(logs)
                    assert any(r["request_id"] == rid for r in logs)
                    assert rid in client.trace()


# --------------------------------------------------------------------- #
# stats() and info() are views of the registry                          #
# --------------------------------------------------------------------- #
def distinct_rows(n, width=32):
    """``n`` distinct rows; every diff of two of them is a 1,280-byte
    cache entry, so a 3,000-byte cache holds two."""
    return [RLERow.from_pairs([(i, 3), (i + 12, 2)], width=width) for i in range(n)]


def histogram_count(snapshot, name):
    return sum(s.count for f in snapshot.families if f.name == name for s in f.series)


def resilient_stats(metrics):
    """``stats()`` after one deterministic sequence: hits and misses, a
    coalesced duplicate, two evictions, an injected error retried, an
    injected latency past the deadline, then a degraded serve and a
    shed with the breaker tripped."""
    clock = FakeClock()
    chaos = ChaosEngine(
        ChaosSchedule([None, "error", None, "latency"]),
        latency=1.0,
        sleep=clock.advance,
    )
    policy = ResiliencePolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
    a, b, c, d, e, f = distinct_rows(6)
    with ResilientDiffService(
        DiffOptions(engine="batched", metrics=metrics),
        policy=policy,
        compute=chaos,
        cache_bytes=3000,
        clock=clock,
        sleep=clock.advance,
        **FAST,
    ) as svc:
        svc.diff_rows([a, a, c], [b, b, d])
        svc.diff_rows([a, c], [b, d])
        svc.row_diff(c, a)  # retried once; evicts (a, b)
        with pytest.raises(DeadlineExceededError):
            svc.diff_rows([e], [f], deadline=0.5)  # evicts (c, d)
        svc.breaker.trip()
        svc.row_diff(e, f)  # degraded: served from the cache
        with pytest.raises(ServiceOverloadError):
            svc.row_diff(a, b)  # shed: evicted
        return svc.stats()


def counter_keys(stats):
    return {
        key: value
        for key, value in stats.items()
        if not key.startswith("latency_") and key != "slo_breaches"
    }


class TestStatsAreRegistryViews:
    def test_resilient_stats_read_their_series(self):
        registry = MetricsRegistry()
        stats = resilient_stats(registry)
        assert counter_keys(stats) == counter_keys(resilient_stats(None))
        snap = registry.snapshot()
        total = snap.counter_total
        assert snap.counter_total("repro_service_requests_total", outcome="coalesced") == 1
        series = {
            "hits": total("repro_cache_hits_total"),
            "misses": total("repro_cache_misses_total"),
            "evictions": total("repro_cache_evictions_total"),
            "collisions": total("repro_cache_collisions_total"),
            "requests": total("repro_service_requests_total"),
            "batches": histogram_count(snap, "repro_service_batch_size"),
            "resilience_retries": total("repro_resilience_retries_total"),
            "resilience_deadline_expirations": total(
                "repro_resilience_deadline_expired_total"
            ),
            "resilience_degraded_serves": total(
                "repro_resilience_degraded_total", mode="cache_only"
            ),
            "resilience_shed": total("repro_resilience_degraded_total", mode="shed"),
            "slo_breaches": total("repro_slo_breaches_total"),
        }
        assert {key: stats[key] for key in series} == series
        assert series == {
            "hits": 3, "misses": 6, "evictions": 2, "collisions": 0,
            "requests": 7, "batches": 3, "resilience_retries": 1,
            "resilience_deadline_expirations": 1,
            "resilience_degraded_serves": 1, "resilience_shed": 1,
            "slo_breaches": 1,
        }
        for q, key in ((0.5, "latency_p50"), (0.99, "latency_p99")):
            assert stats[key] == snap.histogram_quantile(
                "repro_request_latency_seconds", q, tier="service"
            )

    def test_cache_info_reads_its_series(self):
        def info(metrics):
            # rows of one width share a fingerprint: (c, d) collides
            # with (a, b); the other widths fill the 3,000-byte budget
            cache = DiffCache(
                max_bytes=3000,
                metrics=metrics,
                fingerprint=lambda row: row.width.to_bytes(16, "little"),
            )
            a, b, c, d = distinct_rows(4)
            cache.store(a, b, BATCHED, compute_row_diffs(BATCHED, [a], [b])[0])
            assert cache.lookup(c, d, BATCHED) is None
            assert cache.lookup(a, b, BATCHED) is not None
            for width in (40, 48, 56):
                x, y = distinct_rows(2, width)
                cache.store(x, y, BATCHED, compute_row_diffs(BATCHED, [x], [y])[0])
            return cache.info()

        registry = MetricsRegistry()
        got = info(registry)
        assert got == info(None)
        total = registry.snapshot().counter_total
        series = {
            key: total(f"repro_cache_{key}_total")
            for key in ("hits", "misses", "evictions", "collisions")
        }
        assert {key: got[key] for key in series} == series
        assert series == {"hits": 1, "misses": 1, "evictions": 2, "collisions": 1}

    def test_store_info_reads_its_series(self, tmp_path):
        def info(metrics, directory):
            a, b, c, d = distinct_rows(4)
            with RowStore(str(directory), metrics=metrics) as store:
                # a one-entry RAM tier: each store demotes the last one
                cache = DiffCache(max_bytes=2000, metrics=metrics, store=store)
                for x, y in ((a, b), (c, d), (a, b)):
                    cache.store(x, y, BATCHED, compute_row_diffs(BATCHED, [x], [y])[0])
                # (c, d) comes back from disk and demotes (a, b) again
                assert cache.lookup(c, d, BATCHED) is not None
                assert corrupt_disk_entry(store, a, b, BATCHED, "bitflip")
                assert cache.lookup(a, b, BATCHED) is None  # quarantined
                return cache.info()

        registry = MetricsRegistry()
        got = info(registry, tmp_path / "shared")
        assert got == info(None, tmp_path / "private")
        total = registry.snapshot().counter_total
        series = {
            f"disk_{key}": total(f"repro_cache_disk_{key}_total")
            for key in ("hits", "misses", "writes", "evictions", "quarantined", "collisions")
        }
        assert {key: got[key] for key in series} == series
        assert series["disk_hits"] == 1 and series["disk_quarantined"] == 1
