"""DiffCache: hits, eviction under pressure, collision safety, metrics."""

import pytest

from repro.errors import ServiceError
from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.options import DiffOptions
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import DiffCache, row_fingerprint

OPTS = DiffOptions(engine="systolic")


def make_row(shift: int, width: int = 64) -> RLERow:
    return RLERow.from_pairs([(shift, 3), (shift + 10, 2)], width=width)


def compute(a: RLERow, b: RLERow):
    return row_diff(a, b, options=OPTS)


class TestFingerprint:
    def test_deterministic_and_content_addressed(self):
        a1 = make_row(1)
        a2 = RLERow.from_pairs(a1.to_pairs(), width=a1.width)
        assert row_fingerprint(a1) == row_fingerprint(a2)
        assert row_fingerprint(a1) != row_fingerprint(make_row(2))
        assert len(row_fingerprint(a1)) == 16

    def test_width_participates(self):
        runs = [(0, 3)]
        assert row_fingerprint(
            RLERow.from_pairs(runs, width=32)
        ) != row_fingerprint(RLERow.from_pairs(runs, width=64))

    def test_fragmentation_distinguished(self):
        # (0,4) vs (0,2)+(2,2): same pixels, different structure — the
        # engines' iteration counts differ, so the cache must too
        whole = RLERow.from_pairs([(0, 4)], width=16)
        split = RLERow.from_pairs([(0, 2), (2, 2)], width=16)
        assert row_fingerprint(whole) != row_fingerprint(split)

    def test_empty_row(self):
        empty = RLERow.from_pairs([], width=16)
        assert row_fingerprint(empty) == row_fingerprint(
            RLERow.from_pairs([], width=16)
        )


class TestHitMiss:
    def test_miss_then_hit_round_trip(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        assert cache.lookup(a, b, OPTS) is None
        result = compute(a, b)
        cache.store(a, b, OPTS, result)
        assert cache.lookup(a, b, OPTS) is result
        assert cache.info()["hits"] == 1 and cache.info()["misses"] == 1
        assert cache.hit_rate == 0.5

    def test_direction_matters(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        # XOR is symmetric but iteration counts need not be — (b, a) is
        # a distinct key
        assert cache.lookup(b, a, OPTS) is None

    def test_options_partition_the_keyspace(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        assert cache.lookup(a, b, DiffOptions(engine="batched")) is None
        assert cache.lookup(a, b, OPTS.replace(n_cells=32)) is None

    def test_observability_handles_share_entries(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        instrumented = OPTS.replace(metrics=MetricsRegistry())
        assert cache.lookup(a, b, instrumented) is not None


class TestEviction:
    def test_lru_eviction_under_pressure(self):
        cache = DiffCache(max_bytes=4096)
        pairs = [(make_row(i), make_row(i + 7)) for i in range(24)]
        for a, b in pairs:
            cache.store(a, b, OPTS, compute(a, b))
        assert cache.info()["evictions"] > 0
        assert cache.total_bytes <= 4096
        # the oldest entry is gone, the newest survives
        assert cache.lookup(*pairs[0], OPTS) is None
        assert cache.lookup(*pairs[-1], OPTS) is not None

    def test_recently_used_survives(self):
        cache = DiffCache(max_bytes=4096)
        hot = (make_row(0), make_row(7))
        cache.store(*hot, OPTS, compute(*hot))
        for i in range(1, 24):
            cache.lookup(*hot, OPTS)  # keep it hot
            a, b = make_row(i), make_row(i + 7)
            cache.store(a, b, OPTS, compute(a, b))
        assert cache.lookup(*hot, OPTS) is not None

    def test_oversized_entry_rejected_not_stored(self):
        cache = DiffCache(max_bytes=1)
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        assert len(cache) == 0
        assert cache.info()["evictions"] == 1

    def test_restore_replaces_not_duplicates(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        result = compute(a, b)
        cache.store(a, b, OPTS, result)
        before = cache.total_bytes
        cache.store(a, b, OPTS, result)
        assert len(cache) == 1
        assert cache.total_bytes == before

    def test_clear(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        cache.clear()
        assert len(cache) == 0 and cache.total_bytes == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ServiceError):
            DiffCache(max_bytes=0)


class TestCollisions:
    def test_collision_detected_never_served(self):
        # a fingerprint that maps every row to the same digest: maximal
        # collisions — the verbatim-input check must catch all of them
        cache = DiffCache(fingerprint=lambda row: b"\x00" * 16)
        a, b = make_row(1), make_row(5)
        c, d = make_row(2), make_row(9)
        cache.store(a, b, OPTS, compute(a, b))
        assert cache.lookup(c, d, OPTS) is None  # collides, rejected
        assert cache.info()["collisions"] == 1
        # the genuine entry still round-trips
        assert cache.lookup(a, b, OPTS) is not None

    def test_truncated_fingerprint_still_correct(self):
        cache = DiffCache(fingerprint=lambda row: row_fingerprint(row)[:1])
        pairs = [(make_row(i), make_row(i + 7)) for i in range(16)]
        for a, b in pairs:
            expected = compute(a, b)
            cached = cache.lookup(a, b, OPTS)
            if cached is None:
                cache.store(a, b, OPTS, expected)
            else:
                # whatever survives the verbatim check must be exact
                assert cached.result.to_pairs() == expected.result.to_pairs()
                assert cached.iterations == expected.iterations


class TestMetrics:
    def test_counters_mirror_into_registry(self):
        registry = MetricsRegistry()
        cache = DiffCache(metrics=registry, name="test")
        a, b = make_row(1), make_row(5)
        cache.lookup(a, b, OPTS)  # miss
        cache.store(a, b, OPTS, compute(a, b))
        cache.lookup(a, b, OPTS)  # hit
        doc = registry.to_json()
        by_name = {family["name"]: family for family in doc["metrics"]}
        assert "repro_cache_hits_total" in by_name
        assert "repro_cache_misses_total" in by_name
        assert "repro_cache_bytes" in by_name
        hits = by_name["repro_cache_hits_total"]["series"]
        assert hits[0]["labels"] == {"cache": "test"}
        assert hits[0]["value"] == 1.0


class TestHitRateThreadSafety:
    """``hit_rate`` reads two counters that other threads are bumping;
    it must read them under the cache lock — a torn read could pair a
    new numerator with a stale denominator."""

    def test_counts_exact_and_ratio_sane_under_threads(self):
        import threading

        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        cache.store(a, b, OPTS, compute(a, b))
        n_threads, per_thread = 6, 200
        torn = []

        def hammer(seed: int) -> None:
            miss_a, miss_b = make_row(10 + seed), make_row(20 + seed)
            for i in range(per_thread):
                if i % 2:
                    assert cache.lookup(a, b, OPTS) is not None  # hit
                else:
                    cache.lookup(miss_a, miss_b, OPTS)  # miss
                rate = cache.hit_rate
                if not 0.0 <= rate <= 1.0:  # pragma: no cover - failure path
                    torn.append(rate)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not torn
        total = n_threads * per_thread
        # each thread split its lookups 50/50 (store does not count)
        assert cache.info()["hits"] == total // 2
        assert cache.info()["misses"] == total // 2
        assert cache.hit_rate == cache.info()["hits"] / (cache.info()["hits"] + cache.info()["misses"])
