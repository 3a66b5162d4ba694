"""DiffService: the cache-identity invariant, equivalence with the
functional API, and end-to-end behaviour on realistic workloads."""

import pytest
from hypothesis import given, settings

from repro.errors import GeometryError, ServiceError
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.machine import XorRunResult
from repro.core.options import ENGINE_NAMES, DiffOptions
from repro.core.pipeline import diff_images
from repro.obs.metrics import MetricsRegistry
from repro.service import DiffService
from tests.conftest import row_pairs

FAST = {"max_latency": 0.0}  # no coalescing wait — keeps tests snappy


def assert_identical(a: XorRunResult, b: XorRunResult) -> None:
    """Byte-identical across every field of the run result."""
    assert a.result.to_pairs() == b.result.to_pairs()
    assert a.result.width == b.result.width
    assert a.iterations == b.iterations
    assert a.k1 == b.k1 and a.k2 == b.k2
    assert a.n_cells == b.n_cells
    assert a.stats.items() == b.stats.items()


class TestCacheIdentityInvariant:
    """The tentpole contract: cached results are byte-identical to
    fresh ones — cache on vs cache off can never disagree."""

    @given(pairs=row_pairs(max_width=96))
    @settings(max_examples=30, deadline=None)
    def test_property_cache_on_off_identical(self, pairs):
        a, b = pairs
        opts = DiffOptions(engine="batched")
        with DiffService(opts, **FAST) as cached, DiffService(
            opts, cache_bytes=0, **FAST
        ) as uncached:
            fresh_first = cached.row_diff(a, b)
            from_cache = cached.row_diff(a, b)  # second time: a hit
            no_cache = uncached.row_diff(a, b)
        assert from_cache is fresh_first or from_cache == fresh_first
        assert_identical(from_cache, no_cache)
        assert_identical(fresh_first, no_cache)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_every_engine_upholds_the_invariant(self, engine, paper_rows):
        a, b, _ = paper_rows
        opts = DiffOptions(engine=engine)
        with DiffService(opts, **FAST) as cached, DiffService(
            opts, cache_bytes=0, **FAST
        ) as uncached:
            cached.row_diff(a, b)
            hit = cached.row_diff(a, b)
            fresh = uncached.row_diff(a, b)
        assert_identical(hit, fresh)

    def test_hit_is_identical_under_eviction_pressure(self):
        # a tiny cache churning under pressure must still never serve a
        # result that differs from a fresh computation
        opts = DiffOptions(engine="batched")
        with DiffService(opts, cache_bytes=2048, **FAST) as service, DiffService(
            opts, cache_bytes=0, **FAST
        ) as reference:
            for wave in range(3):
                for i in range(20):
                    a = RLERow.from_pairs([(i, 2), (i + 20, 3)], width=64)
                    b = RLERow.from_pairs([(i + 1, 2)], width=64)
                    assert_identical(
                        service.row_diff(a, b), reference.row_diff(a, b)
                    )
            assert service.cache is not None
            assert service.cache.info()["evictions"] > 0


class TestImageEquivalence:
    def test_matches_functional_api_with_fixed_n_cells(self):
        rows_a = [RLERow.from_pairs([(i % 5, 3), (20, 2)], width=48) for i in range(12)]
        rows_b = [RLERow.from_pairs([(i % 3 + 1, 4)], width=48) for i in range(12)]
        image_a, image_b = RLEImage(rows_a, width=48), RLEImage(rows_b, width=48)
        opts = DiffOptions(engine="batched", n_cells=32)
        direct = diff_images(image_a, image_b, options=opts)
        with DiffService(opts, **FAST) as service:
            served = service.diff_images(image_a, image_b)
        assert [r.to_pairs() for r in served.image] == [
            r.to_pairs() for r in direct.image
        ]
        for s, d in zip(served.row_results, direct.row_results):
            assert_identical(s, d)

    def test_matches_functional_api_modulo_n_cells_normalization(self):
        # with automatic sizing the service reports the per-row default
        # n_cells instead of the shared batch width — everything else
        # (result, iterations, stats) is identical
        rows_a = [RLERow.from_pairs([(i % 5, 3), (20, 2)], width=48) for i in range(8)]
        rows_b = [RLERow.from_pairs([(i % 3 + 1, 4)], width=48) for i in range(8)]
        image_a, image_b = RLEImage(rows_a, width=48), RLEImage(rows_b, width=48)
        opts = DiffOptions(engine="batched")
        direct = diff_images(image_a, image_b, options=opts)
        with DiffService(opts, **FAST) as service:
            served = service.diff_images(image_a, image_b)
        assert [r.to_pairs() for r in served.image] == [
            r.to_pairs() for r in direct.image
        ]
        for s, d in zip(served.row_results, direct.row_results):
            assert s.result.to_pairs() == d.result.to_pairs()
            assert s.iterations == d.iterations
            assert s.stats.items() == d.stats.items()

    def test_canonical_option_respected(self, paper_rows):
        a, b, _ = paper_rows
        image_a = RLEImage([a], width=a.width)
        image_b = RLEImage([b], width=b.width)
        with DiffService(
            DiffOptions(engine="batched", canonical=False), **FAST
        ) as raw_svc:
            raw = raw_svc.diff_images(image_a, image_b)
        with DiffService(DiffOptions(engine="batched"), **FAST) as canon_svc:
            canon = canon_svc.diff_images(image_a, image_b)
        assert [r.to_pairs() for r in canon.image] == [
            r.canonical().to_pairs() for r in raw.image
        ]

    def test_shape_mismatch_rejected(self):
        a = RLEImage([RLERow.from_pairs([], width=8)], width=8)
        b = RLEImage([RLERow.from_pairs([], width=9)], width=9)
        with DiffService(**FAST) as service:
            with pytest.raises(GeometryError):
                service.diff_images(a, b)

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_row_result_past_its_width_rejected(self, engine):
        narrow = RLERow.from_pairs([(0, 2)], width=4)
        wide = RLERow.from_pairs([(8, 2)], width=20)
        with DiffService(DiffOptions(engine=engine), **FAST) as service:
            with pytest.raises(GeometryError):
                service.diff_rows([narrow], [wide])
            assert service.stats()["entries"] == 0


class TestServiceBehaviour:
    def test_repeated_frames_mostly_hit(self):
        from repro.workloads.motion import generate_sequence

        clip = generate_sequence(height=48, width=48, n_frames=6, seed=11)
        with DiffService(DiffOptions(engine="batched"), **FAST) as service:
            for _ in range(2):
                for prev, cur in zip(clip, clip[1:]):
                    service.diff_images(prev, cur)
            stats = service.stats()
        assert stats["hit_rate"] >= 0.5  # static rows + full second pass

    def test_stats_shape(self):
        with DiffService(**FAST) as service:
            a, b = RLERow.from_pairs([(0, 3)], width=16), RLERow.from_pairs(
                [(1, 3)], width=16
            )
            service.row_diff(a, b)
            stats = service.stats()
        for key in ("hit_rate", "batches", "requests", "entries", "bytes"):
            assert key in stats

    def test_cache_disabled_has_no_cache(self):
        with DiffService(cache_bytes=0, **FAST) as service:
            assert service.cache is None
            a = RLERow.from_pairs([(0, 3)], width=16)
            b = RLERow.from_pairs([(1, 3)], width=16)
            first = service.row_diff(a, b)
            second = service.row_diff(a, b)
            assert first is not second  # recomputed, not served
            assert_identical(first, second)

    def test_bare_engine_string_rejected(self, paper_rows):
        # the pre-1.1 bare-string spelling is a typed hard error now
        from repro.errors import OptionsError

        a, b, _ = paper_rows
        with pytest.raises(OptionsError, match="bare string"):
            DiffService("systolic", **FAST)

    def test_metrics_flow_through(self, paper_rows):
        a, b, _ = paper_rows
        registry = MetricsRegistry()
        with DiffService(
            DiffOptions(engine="batched", metrics=registry), **FAST
        ) as service:
            service.row_diff(a, b)
            service.row_diff(a, b)
        assert "repro_cache_hits_total" in registry
        assert "repro_service_batch_size" in registry

    def test_submit_after_close(self):
        service = DiffService(**FAST)
        service.close()
        a = RLERow.from_pairs([(0, 3)], width=16)
        with pytest.raises(ServiceError):
            service.submit_row_diff(a, a)

    def test_results_are_observability_independent(self, paper_rows):
        # a caller's tracer/probe must not leak into (or alter) what the
        # shared service computes and caches
        a, b, _ = paper_rows
        opts = DiffOptions(engine="batched", metrics=MetricsRegistry())
        with DiffService(opts, **FAST) as instrumented, DiffService(
            DiffOptions(engine="batched"), cache_bytes=0, **FAST
        ) as bare:
            assert_identical(instrumented.row_diff(a, b), bare.row_diff(a, b))


class TestBulkComputeContract:
    """The ComputeFn contract on the bulk (whole-image) path: exactly
    one result per unique miss.  A short return used to be masked by
    zip truncation plus None-filtering — ``diff_images`` came back with
    fewer rows than its inputs, silently."""

    @staticmethod
    def _rows(n: int = 6):
        rows_a = [RLERow.from_pairs([(i % 7, 3), (16, 2)], width=32) for i in range(n)]
        rows_b = [RLERow.from_pairs([(i % 5 + 1, 2)], width=32) for i in range(n)]
        return rows_a, rows_b

    @pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
    def test_short_compute_raises_not_short_result(self, cache_bytes):
        from repro.service.batcher import compute_row_diffs

        def short(options, rows_a, rows_b):
            return compute_row_diffs(options, rows_a, rows_b)[:-1]

        rows_a, rows_b = self._rows()
        with DiffService(
            DiffOptions(engine="batched"), cache_bytes=cache_bytes,
            compute=short, **FAST
        ) as service:
            with pytest.raises(ServiceError, match="mismatched batch"):
                service.diff_rows(rows_a, rows_b)

    @pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
    def test_long_compute_raises(self, cache_bytes):
        from repro.service.batcher import compute_row_diffs

        def long(options, rows_a, rows_b):
            results = compute_row_diffs(options, rows_a, rows_b)
            return results + results[:1]

        rows_a, rows_b = self._rows()
        with DiffService(
            DiffOptions(engine="batched"), cache_bytes=cache_bytes,
            compute=long, **FAST
        ) as service:
            with pytest.raises(ServiceError, match="mismatched batch"):
                service.diff_rows(rows_a, rows_b)

    def test_image_diff_never_returns_short_image(self):
        from repro.service.batcher import compute_row_diffs

        def short(options, rows_a, rows_b):
            return compute_row_diffs(options, rows_a, rows_b)[:-1]

        rows_a, rows_b = self._rows()
        image_a = RLEImage(rows_a, width=32)
        image_b = RLEImage(rows_b, width=32)
        with DiffService(
            DiffOptions(engine="batched"), compute=short, **FAST
        ) as service:
            with pytest.raises(ServiceError):
                service.diff_images(image_a, image_b)


class TestBatchSizeHistogramParity:
    """``repro_service_batch_size`` observes *computed unique misses*
    only — hits and coalesced duplicates are excluded — and does so
    identically on the queued row path and the bulk image path."""

    @staticmethod
    def _histogram(registry: MetricsRegistry):
        for family in registry.snapshot().families:
            if family.name == "repro_service_batch_size":
                (series,) = family.series
                return series.sum, series.count
        raise AssertionError("repro_service_batch_size family missing")

    @staticmethod
    def _traffic(n_unique: int = 8):
        pairs = [
            (
                RLERow.from_pairs([(i % 9, 3), (20, 2)], width=48),
                RLERow.from_pairs([(i % 6 + 1, 4)], width=48),
            )
            for i in range(n_unique)
        ]
        return pairs + pairs[:3]  # the tail repeats become cache hits

    def test_queued_and_bulk_observe_identically(self):
        queued_reg, bulk_reg = MetricsRegistry(), MetricsRegistry()
        traffic = self._traffic()
        with DiffService(
            DiffOptions(engine="batched", metrics=queued_reg), **FAST
        ) as queued:
            for a, b in traffic:
                queued.row_diff(a, b)
        with DiffService(
            DiffOptions(engine="batched", metrics=bulk_reg), **FAST
        ) as bulk:
            for a, b in traffic:
                bulk.diff_rows([a], [b])
        assert self._histogram(queued_reg) == self._histogram(bulk_reg)
        # serial single-pair requests: one observation of 1.0 per unique
        # miss, nothing for the repeated (hit) tail
        assert self._histogram(bulk_reg) == (8.0, 8)

    def test_coalesced_duplicates_not_observed(self):
        registry = MetricsRegistry()
        a = RLERow.from_pairs([(1, 3)], width=32)
        b = RLERow.from_pairs([(2, 3)], width=32)
        with DiffService(
            DiffOptions(engine="batched", metrics=registry), **FAST
        ) as service:
            service.diff_rows([a, a, a], [b, b, b])
        # one unique miss computed, two coalesced waiters: the histogram
        # sees a single batch of size 1
        assert self._histogram(registry) == (1.0, 1)
