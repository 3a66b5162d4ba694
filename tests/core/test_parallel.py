"""Tests for the process-pool parallel differencing path."""

import numpy as np
import pytest

from repro.errors import GeometryError, SystolicError
from repro.rle.image import RLEImage
from repro.core.options import DiffOptions
from repro.core.parallel import parallel_diff_images
from repro.core.pipeline import diff_images


def images(seed=0, h=32, w=128):
    rng = np.random.default_rng(seed)
    a = rng.random((h, w)) < 0.3
    b = a.copy()
    for _ in range(10):
        y = int(rng.integers(0, h))
        x = int(rng.integers(0, w - 4))
        b[y, x : x + 3] ^= True
    return RLEImage.from_array(a), RLEImage.from_array(b)


class TestEquivalenceWithSerial:
    def test_same_image_and_iterations(self):
        a, b = images(1)
        serial = diff_images(a, b, options=DiffOptions(engine="batched"))
        parallel = parallel_diff_images(a, b, workers=2)
        assert parallel.image == serial.image
        assert parallel.total_iterations == serial.total_iterations
        assert [r.iterations for r in parallel.row_results] == [
            r.iterations for r in serial.row_results
        ]

    def test_raw_output_mode(self):
        a, b = images(2)
        serial = diff_images(
            a, b, options=DiffOptions(engine="batched", canonical=False)
        )
        parallel = parallel_diff_images(
            a, b, workers=2, options=DiffOptions(canonical=False)
        )
        assert parallel.image == serial.image

    def test_odd_chunking(self):
        a, b = images(3, h=17)
        parallel = parallel_diff_images(a, b, workers=2, chunk_rows=5)
        serial = diff_images(a, b, options=DiffOptions(engine="batched"))
        assert parallel.image == serial.image

    def test_single_worker_short_circuits(self):
        a, b = images(4)
        result = parallel_diff_images(a, b, workers=1)
        assert (
            result.image
            == diff_images(a, b, options=DiffOptions(engine="batched")).image
        )

    def test_stats_match_serial(self):
        """Regression: workers used to run with ``collect_stats=False``,
        so the reassembled results carried empty counters and
        ``ImageDiffResult.stats`` silently reported all zeros."""
        a, b = images(7)
        serial = diff_images(a, b, options=DiffOptions(engine="batched"))
        parallel = parallel_diff_images(a, b, workers=2)
        assert parallel.stats.as_dict() == serial.stats.as_dict()
        assert parallel.stats.as_dict() != {}  # the counters really fired
        for par_row, ser_row in zip(parallel.row_results, serial.row_results):
            assert par_row.stats.as_dict() == ser_row.stats.as_dict()


class TestObservability:
    def test_merged_worker_metrics_match_serial(self):
        """Workers record into private registries; the parent's merged
        snapshot must equal a serial batched run's registry exactly —
        same families, same series, same values."""
        from repro.obs.metrics import MetricsRegistry

        a, b = images(8)
        serial_registry = MetricsRegistry()
        diff_images(a, b, options=DiffOptions(metrics=serial_registry))
        parallel_registry = MetricsRegistry()
        parallel_diff_images(
            a, b, workers=2, options=DiffOptions(metrics=parallel_registry)
        )
        assert parallel_registry.snapshot() == serial_registry.snapshot()

    def test_tracer_gets_chunk_spans(self):
        from repro.obs.tracing import Tracer

        a, b = images(9)
        tracer = Tracer()
        parallel_diff_images(
            a, b, workers=2, chunk_rows=8, options=DiffOptions(tracer=tracer)
        )
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["parallel_diff"]) == 1
        chunks = by_name["chunk"]
        assert len(chunks) == 4  # 32 rows / 8 per chunk
        assert sum(s.attributes["rows"] for s in chunks) == a.height
        # worker-measured durations are re-recorded under the parent span
        parent_id = by_name["parallel_diff"][0].span_id
        assert all(s.parent_id == parent_id for s in chunks)
        assert all(s.duration >= 0.0 for s in chunks)

    def test_single_worker_passes_observability_through(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracing import Tracer

        a, b = images(10)
        registry = MetricsRegistry()
        tracer = Tracer()
        parallel_diff_images(
            a, b, workers=1, options=DiffOptions(metrics=registry, tracer=tracer)
        )
        serial_registry = MetricsRegistry()
        diff_images(a, b, options=DiffOptions(metrics=serial_registry))
        assert registry.snapshot() == serial_registry.snapshot()
        assert {s.name for s in tracer.spans} >= {"image_diff", "row_batch", "step"}

    def test_row_stats_rebuilt_via_from_items(self):
        """The reassembly path round-trips every row's counters through
        ``CounterBag.items()`` → ``ActivityStats.from_items`` without
        loss, including utilization derivation."""
        a, b = images(11)
        serial = diff_images(a, b, options=DiffOptions(engine="batched"))
        parallel = parallel_diff_images(a, b, workers=2)
        for par_row, ser_row in zip(parallel.row_results, serial.row_results):
            assert par_row.stats == ser_row.stats
            # n_cells is a batch-width fact (chunked batches are narrower
            # than the whole-image batch), but held fixed the utilization
            # derived from the round-tripped counters is well-formed
            if par_row.iterations and par_row.n_cells:
                u = par_row.stats.utilization(par_row.iterations, par_row.n_cells)
                assert 0.0 <= u <= 1.0
                assert u == ser_row.stats.utilization(
                    par_row.iterations, par_row.n_cells
                )


class TestOptionsPassThrough:
    """The pool honours the full DiffOptions bundle instead of
    hard-coding the batched engine and dropping n_cells/probe."""

    @pytest.mark.parametrize("engine", ["systolic", "sequential"])
    def test_requested_engine_runs_in_workers(self, engine):
        from repro.core.options import DiffOptions

        a, b = images(12, h=12, w=64)
        opts = DiffOptions(engine=engine)
        parallel = parallel_diff_images(a, b, workers=2, chunk_rows=4, options=opts)
        serial = diff_images(a, b, options=opts)
        assert parallel.image == serial.image
        assert [r.iterations for r in parallel.row_results] == [
            r.iterations for r in serial.row_results
        ]
        assert [r.n_cells for r in parallel.row_results] == [
            r.n_cells for r in serial.row_results
        ]

    def test_paranoid_checks_run_in_workers(self, monkeypatch):
        """The chunk workers honour ``paranoid``: one checker per row,
        exactly as the serial path builds them (chunks run in-process
        here, so the spy sees them)."""
        from repro.core import invariants, parallel
        from repro.core.options import DiffOptions

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, items):
                return map(fn, items)

        built = []
        checker = invariants.ParanoidChecker

        def spy(*args, **kwargs):
            built.append(args)
            return checker(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(invariants, "ParanoidChecker", spy)
        a, b = images(16, h=4, w=64)
        opts = DiffOptions(engine="systolic", paranoid=True)
        parallel_diff_images(a, b, workers=2, chunk_rows=1, options=opts)
        assert len(built) == a.height

    def test_n_cells_reaches_workers(self):
        from repro.core.options import DiffOptions

        a, b = images(13, h=12, w=64)
        opts = DiffOptions(engine="systolic", n_cells=48)
        parallel = parallel_diff_images(a, b, workers=2, chunk_rows=4, options=opts)
        assert all(r.n_cells == 48 for r in parallel.row_results)

    def test_unknown_engine_rejected_at_boundary(self):
        from repro.errors import OptionsError, UnknownEngineError

        a, b = images(14, h=4)
        with pytest.raises(UnknownEngineError):
            parallel_diff_images(
                a, b, workers=2, options=DiffOptions(engine="warp")
            )
        # the pre-1.1 bare-string spelling is a typed hard error now
        with pytest.raises(OptionsError):
            parallel_diff_images(a, b, workers=2, options="batched")

    def test_probe_samples_replayed_from_workers(self):
        from repro.core.options import DiffOptions
        from repro.obs.profile import EngineProfiler

        a, b = images(15, h=16, w=64)
        probe = EngineProfiler()
        parallel_diff_images(
            a,
            b,
            workers=2,
            chunk_rows=4,
            options=DiffOptions(engine="batched", probe=probe),
        )
        assert probe.samples  # the workers' convergence data came home
        steps = [s.step for s in probe.samples]
        assert steps == sorted(steps)  # chunk-order replay, renumbered
        # Corollary 1.1: within a batch the active-lane count only falls;
        # it may jump back up at a chunk boundary (a new batch starts)
        assert all(s.active_lanes >= 0 for s in probe.samples)


class TestValidation:
    def test_shape_mismatch(self):
        a, _ = images(5)
        with pytest.raises(GeometryError):
            parallel_diff_images(a, RLEImage.blank(1, 1), workers=2)

    def test_bad_worker_count(self):
        a, b = images(6)
        with pytest.raises(SystolicError):
            parallel_diff_images(a, b, workers=0)

    def test_empty_image(self):
        empty = RLEImage([], width=8)
        result = parallel_diff_images(empty, empty, workers=2)
        assert result.image.height == 0
