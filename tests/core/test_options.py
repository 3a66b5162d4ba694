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
from repro.core.pipeline import diff_images
from repro.obs.metrics import MetricsRegistry
from repro.service import DiffService, ResilientDiffService, ShardedDiffService


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


#: The pre-1.1 keyword parameters of ``row_diff``, now gone from its
#: signature.
ROW_DIFF_LEGACY_KEYWORDS = (
    "engine",
    "paranoid",
    "record_trace",
    "n_cells",
    "tracer",
    "metrics",
    "probe",
)


def _call_with_options(entry_point, options):
    """``entry_point`` called with ``options`` in its options position."""
    image_a, image_b = small_images()
    calls = {
        "row_diff": lambda: row_diff(image_a[0], image_b[0], options),
        "image_diff": lambda: image_diff(image_a, image_b, options),
        "diff_images": lambda: diff_images(image_a, image_b, options),
        "DiffService": lambda: DiffService(options),
        "ResilientDiffService": lambda: ResilientDiffService(options),
        "ShardedDiffService": lambda: ShardedDiffService(options, workers=1),
    }
    return calls[entry_point]()


class TestRemovedLegacySpellings:
    """The pre-1.1 spellings completed their deprecation cycle: the
    keyword parameters are gone (a stale keyword is Python's own
    ``TypeError``), and a bare engine string in the ``options``
    position is a typed :class:`OptionsError` from the one shared check
    (see docs/API.md and CHANGELOG.md) — stale call sites fail loudly,
    never silently drift."""

    def test_legacy_kwarg_is_hard_error(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(TypeError, match="row_diff.*engine"):
            row_diff(a, b, engine="batched")

    @pytest.mark.parametrize(
        "entry_point",
        [
            "row_diff",
            "image_diff",
            "diff_images",
            "DiffService",
            "ResilientDiffService",
            "ShardedDiffService",
        ],
    )
    def test_bare_string_rejected_by_the_shared_check(self, entry_point):
        with pytest.raises(OptionsError, match="bare string") as excinfo:
            _call_with_options(entry_point, "batched")
        assert entry_point in str(excinfo.value)
        assert excinfo.traceback[-1].name == "checked_options"

    def test_error_names_every_offending_kwarg(self, paper_rows):
        a, b, _ = paper_rows
        for keyword in ROW_DIFF_LEGACY_KEYWORDS:
            with pytest.raises(TypeError, match=keyword):
                row_diff(a, b, **{keyword: None})

    def test_error_points_at_the_replacement(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(OptionsError, match=r"DiffOptions\(.*docs/API\.md"):
            row_diff(a, b, "batched")

    def test_bare_engine_string_is_hard_error(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(OptionsError, match="bare string"):
            row_diff(a, b, "sequential")

    def test_kwarg_alongside_options_is_hard_error(self, paper_rows):
        a, b, _ = paper_rows
        with pytest.raises(TypeError):
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
        with pytest.raises(TypeError, match="diff_images"):
            diff_images(image_a, image_b, engine="batched")
        with pytest.raises(TypeError, match="image_diff"):
            image_diff(image_a, image_b, canonical=False)

    def test_parallel_legacy_kwargs_hard_error(self):
        # the multi-process path never had the keywords; no worker starts
        with pytest.raises(TypeError, match="engine"):
            ShardedDiffService(workers=1, engine="systolic")


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
        from repro.service.shard import decode_options, encode_options

        with pytest.raises(UnknownEngineError):
            ShardedDiffService(DiffOptions(engine="bogus"), workers=2)
        # a shard worker re-validates the engine it is handed
        wire = ("bogus",) + encode_options(DiffOptions())[1:]
        with pytest.raises(UnknownEngineError):
            decode_options(wire)


class TestUniformOptionsAcrossEntryPoints:
    """The same DiffOptions value drives the row, image and sharded
    entry points."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_same_options_same_answer(self, engine):
        image_a, image_b = small_images()
        opts = DiffOptions(engine=engine)
        serial = diff_images(image_a, image_b, options=opts)
        with ShardedDiffService(opts, workers=1) as sharded:
            fanned = sharded.diff_images(image_a, image_b)
        assert [r.to_pairs() for r in serial.image] == [
            r.to_pairs() for r in fanned.image
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
