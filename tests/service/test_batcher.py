"""RowDiffBatcher: coalescing, backpressure, lifecycle, error paths."""

import sys
import threading

import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.machine import default_cell_count
from repro.core.options import DiffOptions
from repro.service.batcher import RowDiffBatcher, compute_row_diffs
from repro.service.cache import DiffCache
from repro.service.service import DiffService

BATCHED = DiffOptions(engine="batched")


def make_row(shift: int, width: int = 64) -> RLERow:
    return RLERow.from_pairs([(shift, 3), (shift + 10, 2)], width=width)


class TestComputeRowDiffs:
    def test_batched_n_cells_normalized(self):
        # the batch sizes lanes to the widest pair; the helper must
        # rewrite n_cells to the per-row default so the result does not
        # depend on batch composition
        narrow_a, narrow_b = make_row(1), make_row(5)
        wide_a = RLERow.from_pairs([(i * 4, 2) for i in range(12)], width=64)
        wide_b = RLERow.from_pairs([(i * 4 + 2, 2) for i in range(12)], width=64)
        alone = compute_row_diffs(BATCHED, [narrow_a], [narrow_b])[0]
        with_wide = compute_row_diffs(
            BATCHED, [narrow_a, wide_a], [narrow_b, wide_b]
        )[0]
        assert alone.n_cells == with_wide.n_cells
        assert alone.n_cells == default_cell_count(alone.k1, alone.k2)
        assert alone.iterations == with_wide.iterations
        assert alone.result.to_pairs() == with_wide.result.to_pairs()
        assert alone.stats.items() == with_wide.stats.items()

    def test_explicit_n_cells_untouched(self):
        a, b = make_row(1), make_row(5)
        result = compute_row_diffs(BATCHED.replace(n_cells=32), [a], [b])[0]
        assert result.n_cells == 32

    @pytest.mark.parametrize("engine", ["systolic", "sequential"])
    def test_per_row_engines_match_functional_api(self, engine):
        opts = DiffOptions(engine=engine)
        a, b = make_row(1), make_row(5)
        batch = compute_row_diffs(opts, [a], [b])[0]
        direct = row_diff(a, b, options=opts)
        assert batch.result.to_pairs() == direct.result.to_pairs()
        assert batch.iterations == direct.iterations
        assert batch.n_cells == direct.n_cells


class TestBatching:
    def test_concurrent_submissions_coalesce(self):
        # hold the worker on a first request, pile more up behind it,
        # and check they ride in fewer batches than requests
        with RowDiffBatcher(BATCHED, max_latency=0.05, max_batch=64) as batcher:
            futures = [
                batcher.submit(make_row(i % 8), make_row((i + 3) % 8))
                for i in range(32)
            ]
            results = [f.result(timeout=10) for f in futures]
        assert batcher.totals()[0] == 32
        assert batcher.totals()[1] < 32
        for i, result in enumerate(results):
            direct = compute_row_diffs(
                BATCHED, [make_row(i % 8)], [make_row((i + 3) % 8)]
            )[0]
            assert result.result.to_pairs() == direct.result.to_pairs()

    def test_duplicate_pairs_compute_once(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        with RowDiffBatcher(BATCHED, cache=cache, max_latency=0.05) as batcher:
            futures = [batcher.submit(a, b) for _ in range(16)]
            results = [f.result(timeout=10) for f in futures]
        # every waiter got the same object: one compute, shared fan-out
        assert all(r is results[0] for r in results)

    def test_cache_hits_skip_the_engine(self):
        cache = DiffCache()
        a, b = make_row(1), make_row(5)
        with RowDiffBatcher(BATCHED, cache=cache) as batcher:
            first = batcher.submit(a, b).result(timeout=10)
            second = batcher.submit(a, b).result(timeout=10)
        assert second is first  # served straight from the cache
        assert cache.info()["hits"] >= 1

    def test_many_threads_one_batcher(self):
        errors = []
        with RowDiffBatcher(BATCHED, cache=DiffCache(), max_latency=0.01) as batcher:
            def hammer(seed: int) -> None:
                try:
                    for i in range(20):
                        a, b = make_row((seed + i) % 10), make_row((seed + i + 3) % 10)
                        got = batcher.submit(a, b).result(timeout=10)
                        want = compute_row_diffs(BATCHED, [a], [b])[0]
                        assert got.result.to_pairs() == want.result.to_pairs()
                        assert got.iterations == want.iterations
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors


class TestBackpressureAndLifecycle:
    def test_overload_raises_typed_error(self):
        # block the worker inside its cache lookup (injected fingerprint
        # waits on an event), then flood the bounded queue: the batcher
        # must push back with the typed error, and every accepted
        # request must still resolve once the worker is released
        from repro.service.cache import row_fingerprint

        gate = threading.Event()

        def gated_fingerprint(row):
            gate.wait(timeout=30)
            return row_fingerprint(row)

        batcher = RowDiffBatcher(
            BATCHED,
            cache=DiffCache(fingerprint=gated_fingerprint),
            max_batch=2,
            max_latency=0.0,
            max_pending=2,
        )
        try:
            accepted = []
            with pytest.raises(ServiceOverloadError, match="queue full"):
                for i in range(8):
                    accepted.append(batcher.submit(make_row(i), make_row(i + 3)))
            assert 1 <= len(accepted) < 8
        finally:
            gate.set()
            batcher.close()
        for future in accepted:
            assert future.result(timeout=10) is not None

    def test_overload_is_service_error(self):
        assert issubclass(ServiceOverloadError, ServiceError)

    def test_submit_after_close_raises(self):
        batcher = RowDiffBatcher(BATCHED)
        batcher.close()
        with pytest.raises(ServiceError, match="close"):
            batcher.submit(make_row(0), make_row(3))

    def test_close_drains_pending(self):
        batcher = RowDiffBatcher(BATCHED, max_latency=0.2)
        futures = [batcher.submit(make_row(i), make_row(i + 3)) for i in range(8)]
        batcher.close()
        for f in futures:
            assert f.result(timeout=1) is not None

    def test_close_idempotent(self):
        batcher = RowDiffBatcher(BATCHED)
        batcher.close()
        batcher.close()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_latency": -1.0},
            {"max_pending": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            RowDiffBatcher(BATCHED, **kwargs)

    def test_short_compute_fails_every_future(self):
        # regression: a ComputeFn returning fewer results than unique
        # misses used to be zip-truncated — the trailing futures never
        # resolved and callers blocked forever.  Every future must now
        # fail promptly with a typed error.
        def short(options, rows_a, rows_b):
            return compute_row_diffs(options, rows_a, rows_b)[:-1]

        with RowDiffBatcher(BATCHED, max_latency=0.05, compute=short) as batcher:
            futures = [batcher.submit(make_row(i), make_row(i + 3)) for i in range(6)]
            for future in futures:
                with pytest.raises(ServiceError, match="mismatched batch"):
                    future.result(timeout=10)

    def test_long_compute_fails_every_future(self):
        def long(options, rows_a, rows_b):
            results = compute_row_diffs(options, rows_a, rows_b)
            return results + results[:1]

        with RowDiffBatcher(BATCHED, max_latency=0.05, compute=long) as batcher:
            futures = [batcher.submit(make_row(i), make_row(i + 3)) for i in range(6)]
            for future in futures:
                with pytest.raises(ServiceError, match="mismatched batch"):
                    future.result(timeout=10)

    def test_worker_survives_contract_violation(self):
        calls = []

        def flaky(options, rows_a, rows_b):
            calls.append(len(rows_a))
            results = compute_row_diffs(options, rows_a, rows_b)
            return [] if len(calls) == 1 else results

        with RowDiffBatcher(BATCHED, compute=flaky) as batcher:
            with pytest.raises(ServiceError, match="mismatched batch"):
                batcher.submit(make_row(0), make_row(3)).result(timeout=10)
            good = batcher.submit(make_row(1), make_row(4)).result(timeout=10)
            want = compute_row_diffs(BATCHED, [make_row(1)], [make_row(4)])[0]
            assert good.result.to_pairs() == want.result.to_pairs()

    def test_engine_failure_propagates_to_future(self):
        # capacity overflow inside the engine must surface through the
        # future, not kill the worker thread
        from repro.errors import CapacityError

        tiny = DiffOptions(engine="systolic", n_cells=1)
        wide_a = RLERow.from_pairs([(i * 4, 2) for i in range(8)], width=64)
        wide_b = RLERow.from_pairs([(i * 4 + 2, 2) for i in range(8)], width=64)
        with RowDiffBatcher(tiny) as batcher:
            future = batcher.submit(wide_a, wide_b)
            with pytest.raises(CapacityError):
                future.result(timeout=10)
            # the worker survived and serves the next request (which
            # must fit the single-cell array: empty rows do)
            empty = RLERow.from_pairs([], width=64)
            ok = batcher.submit(empty, empty).result(timeout=10)
            assert ok.result.to_pairs() == []


class TestCounterIntegrity:
    """``requests``/``batches`` are bumped by ``RowDiffBatcher.serve``
    from the worker thread (queued path) and from caller threads
    (``DiffService.diff_rows``, the bulk path); the totals must be exact
    under concurrency — lost ``+=`` increments were a real bug."""

    def test_bulk_serving_lossless_under_threads(self):
        n_threads, per_thread = 8, 150
        a, b = make_row(1), make_row(5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # no cache: every single-pair request is one computed batch
            with DiffService(BATCHED, cache_bytes=0, max_latency=0.0) as service:
                def hammer() -> None:
                    for _ in range(per_thread):
                        service.diff_rows([a], [b])

                threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert stats["requests"] == n_threads * per_thread
        assert stats["batches"] == n_threads * per_thread

    def test_bulk_recording_races_queued_serving(self):
        # the actual production interleaving: caller threads serving
        # bulk requests while the worker thread serves queued ones
        n_threads, per_thread, queued = 4, 300, 40
        a, b = make_row(1), make_row(5)
        with DiffService(BATCHED, max_latency=0.0) as service:
            service.diff_rows([a], [b])  # warm: the bulk calls below hit

            def record() -> None:
                for _ in range(per_thread):
                    service.diff_rows([a], [b])

            threads = [threading.Thread(target=record) for _ in range(n_threads)]
            for t in threads:
                t.start()
            futures = [
                service.submit_row_diff(make_row(i % 16), make_row((i + 3) % 16))
                for i in range(queued)
            ]
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for f in futures:
                f.result(timeout=10)
            stats = service.stats()
        assert stats["requests"] == 1 + n_threads * per_thread + queued
        assert stats["batches"] >= 2
