"""DiffOptions: validation, cache keys, and the removed legacy spellings."""

import warnings

import pytest

from repro.errors import (
    CapacityError,
    OptionsError,
    ReproError,
    SystolicError,
    UnknownEngineError,
)
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.api import image_diff, row_diff
from repro.core.options import (
    ENGINE_NAMES,
    IMAGE_DEFAULTS,
    ROW_DEFAULTS,
    DiffOptions,
    validate_engine,
)
from repro.core.parallel import parallel_diff_images
from repro.core.pipeline import diff_images
from repro.obs.metrics import MetricsRegistry


def small_images():
    rows_a = [RLERow.from_pairs([(0, 4), (10, 2)], width=24) for _ in range(3)]
    rows_b = [RLERow.from_pairs([(1, 4)], width=24) for _ in range(3)]
    return RLEImage(rows_a, width=24), RLEImage(rows_b, width=24)


class TestValidation:
    def test_engine_vocabulary(self):
        assert ENGINE_NAMES == ("systolic", "batched", "sequential")
        for name in ENGINE_NAMES:
            assert validate_engine(name) == name

    def test_validate_engine_rejects_unknown(self):
        with pytest.raises(UnknownEngineError, match="quantum"):
            validate_engine("quantum")

    def test_unknown_engine_is_systolic_and_repro_error(self):
        # catchability contract: pre-DiffOptions callers caught
        # SystolicError (or the root ReproError) — both must keep working
        assert issubclass(UnknownEngineError, SystolicError)
        assert issubclass(UnknownEngineError, ReproError)

    def test_options_construction_validates_engine(self):
        with pytest.raises(UnknownEngineError):
            DiffOptions(engine="gpu")

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_options_construction_validates_n_cells(self, bad):
        with pytest.raises(CapacityError):
            DiffOptions(n_cells=bad)

    def test_replace_revalidates(self):
        opts = DiffOptions()
        with pytest.raises(UnknownEngineError):
            opts.replace(engine="bogus")
        with pytest.raises(CapacityError):
            opts.replace(n_cells=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DiffOptions().engine = "systolic"  # type: ignore[misc]


class TestCacheKey:
    def test_semantic_fields_only(self):
        base = DiffOptions(engine="batched", n_cells=64)
        instrumented = base.replace(metrics=MetricsRegistry())
        assert base.cache_key() == instrumented.cache_key()

    def test_semantic_fields_distinguish(self):
        a = DiffOptions(engine="batched")
        assert a.cache_key() != a.replace(engine="systolic").cache_key()
        assert a.cache_key() != a.replace(n_cells=64).cache_key()
        assert a.cache_key() != a.replace(paranoid=True).cache_key()

    def test_canonical_not_in_key(self):
        # canonicalization happens at image assembly, after the cached
        # row result — both settings must share entries
        a = DiffOptions(canonical=True)
        assert a.cache_key() == a.replace(canonical=False).cache_key()

    def test_without_observability(self):
        registry = MetricsRegistry()
        opts = DiffOptions(metrics=registry)
        stripped = opts.without_observability()
        assert stripped.metrics is None
        assert stripped.engine == opts.engine
        # already-bare options return themselves (no churn)
        assert stripped.without_observability() is stripped


class TestDefaults:
    def test_row_defaults_keep_reference_engine(self):
        assert ROW_DEFAULTS.engine == "systolic"

    def test_image_defaults_keep_batched_engine(self):
        assert IMAGE_DEFAULTS.engine == "batched"


class TestRemovedLegacySpellings:
    """The pre-1.1 keyword/positional spellings completed their
    deprecation cycle and are now a typed hard error (see docs/API.md
    and CHANGELOG.md) — stale call sites must fail loudly and
    actionably, never silently drift."""

    def test_legacy_kwarg_is_hard_error(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(OptionsError, match="row_diff.*engine"):
            row_diff(a, b, engine="batched")

    def test_error_names_every_offending_kwarg(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(OptionsError, match="engine.*paranoid"):
            row_diff(a, b, engine="systolic", paranoid=True)

    def test_error_points_at_the_replacement(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(OptionsError, match=r"DiffOptions\(.*docs/API\.md"):
            row_diff(a, b, engine="batched")

    def test_bare_engine_string_is_hard_error(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(OptionsError, match="bare string"):
            row_diff(a, b, "sequential")

    def test_kwarg_alongside_options_is_hard_error(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(OptionsError):
            row_diff(
                a, b, options=DiffOptions(engine="systolic"), engine="sequential"
            )

    def test_options_error_is_catchable_as_repro_error(self):
        # catchability contract for callers with broad except clauses
        assert issubclass(OptionsError, ReproError)

    def test_options_object_does_not_warn(self, paper_rows):
        a, b, _ = paper_rows
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            row_diff(a, b, options=DiffOptions(engine="batched"))

    def test_diff_images_legacy_kwargs_hard_error(self):
        image_a, image_b = small_images()
        with pytest.raises(OptionsError, match="diff_images"):
            diff_images(image_a, image_b, engine="batched")

    def test_parallel_legacy_kwargs_hard_error(self):
        image_a, image_b = small_images()
        with pytest.raises(OptionsError, match="parallel_diff_images"):
            parallel_diff_images(image_a, image_b, workers=1, engine="systolic")


class TestBoundaryRejection:
    """Unknown engines are rejected at every entry point, pre-dispatch."""

    def test_row_diff(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(UnknownEngineError):
            row_diff(a, b, options=DiffOptions(engine="quantum"))

    def test_image_diff_and_pipeline(self):
        image_a, image_b = small_images()
        with pytest.raises(UnknownEngineError):
            image_diff(image_a, image_b, options=DiffOptions(engine="bogus"))
        with pytest.raises(UnknownEngineError):
            diff_images(image_a, image_b, options=DiffOptions(engine="bogus"))

    def test_parallel(self):
        image_a, image_b = small_images()
        with pytest.raises(UnknownEngineError):
            parallel_diff_images(
                image_a, image_b, workers=2, options=DiffOptions(engine="bogus")
            )


class TestUniformOptionsAcrossEntryPoints:
    """The same DiffOptions value drives all three entry points."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_same_options_same_answer(self, engine):
        image_a, image_b = small_images()
        opts = DiffOptions(engine=engine)
        serial = diff_images(image_a, image_b, options=opts)
        para = parallel_diff_images(image_a, image_b, workers=1, options=opts)
        assert [r.to_pairs() for r in serial.image] == [
            r.to_pairs() for r in para.image
        ]
        row = row_diff(image_a[0], image_b[0], options=opts)
        assert row.result.to_pairs() == serial.row_results[0].result.to_pairs()

    def test_n_cells_respected_everywhere(self):
        image_a, image_b = small_images()
        opts = DiffOptions(engine="systolic", n_cells=16)
        serial = diff_images(image_a, image_b, options=opts)
        assert all(r.n_cells == 16 for r in serial.row_results)
        row = row_diff(image_a[0], image_b[0], options=opts)
        assert row.n_cells == 16
