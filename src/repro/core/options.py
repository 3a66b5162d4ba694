"""One options object for every differencing entry point.

Three PRs of feature growth left the public entry points with drifted
signatures: :func:`repro.core.api.row_diff` grew ``paranoid`` and
``record_trace``, :func:`repro.core.pipeline.diff_images` grew
``canonical`` and the observability handles, and the old process-pool
entry point hard-coded the batched engine and silently dropped the
rest.  Every new capability had to pick one signature to land on, and
callers could not move between entry points without rewriting their
keyword soup.

:class:`DiffOptions` is the fix: a frozen, validated bundle of every
knob the differencing stack understands, accepted uniformly by
``row_diff``, ``image_diff``, ``diff_images`` and the service
constructors (:class:`repro.service.DiffService`,
``ResilientDiffService``, ``ShardedDiffService``).  Each of them takes
its inputs plus ``options`` and passes that through
:func:`checked_options`, the one boundary check: ``None`` means the
entry point's defaults, and anything that is not a :class:`DiffOptions`
(notably the engine as a bare string, a pre-1.1 spelling) raises a
typed :class:`~repro.errors.OptionsError` naming the replacement.  The
pre-1.1 keyword parameters are gone from the signatures, so a stale
keyword gets Python's own ``TypeError`` (see ``docs/API.md`` and
CHANGELOG.md).

Engine names are validated *here*, at construction / coercion time, so
an unknown engine raises :class:`~repro.errors.UnknownEngineError` at
the API boundary instead of surfacing as a dispatch failure deep inside
an engine loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Literal, Optional, Tuple, cast, get_args

from repro.errors import CapacityError, OptionsError, UnknownEngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import EngineProfiler
    from repro.obs.tracing import Tracer

__all__ = [
    "EngineName",
    "ENGINE_NAMES",
    "validate_engine",
    "DiffOptions",
    "ROW_DEFAULTS",
    "IMAGE_DEFAULTS",
    "checked_options",
]

#: The engine vocabulary (:func:`repro.core.api.diff_rows` maps each
#: name to its simulator).
EngineName = Literal["systolic", "batched", "sequential"]

#: Runtime view of :data:`EngineName` — the single source of truth for
#: boundary validation and CLI choice lists.
ENGINE_NAMES: Tuple[str, ...] = tuple(get_args(EngineName))


def validate_engine(name: str) -> EngineName:
    """Check ``name`` against :data:`ENGINE_NAMES`.

    Returns the (now narrowed) name so callers can write
    ``engine = validate_engine(user_input)``; raises
    :class:`~repro.errors.UnknownEngineError` otherwise.
    """
    if name not in ENGINE_NAMES:
        raise UnknownEngineError(
            f"unknown engine {name!r}; choose one of "
            f"{', '.join(ENGINE_NAMES)}"
        )
    return cast(EngineName, name)


@dataclass(frozen=True)
class DiffOptions:
    """Every knob of a differencing run, as one immutable value.

    Semantic fields (``engine``, ``n_cells``, ``canonical``,
    ``paranoid``, ``record_trace``) select *what* is computed;
    observability handles (``tracer``, ``metrics``, ``probe``) attach
    instrumentation and never change the result.  Only the semantic
    fields participate in :meth:`cache_key`, so two runs that differ
    only in instrumentation share cache entries.

    Instances validate on construction: an unknown ``engine`` raises
    :class:`~repro.errors.UnknownEngineError`, a non-positive
    ``n_cells`` raises :class:`~repro.errors.CapacityError`.
    """

    #: Which simulator computes the diff (see :mod:`repro.core.api`).
    engine: EngineName = "batched"
    #: Fixed array size shared by every row, or ``None`` to size per
    #: row / per batch via :func:`repro.core.machine.default_cell_count`.
    n_cells: Optional[int] = None
    #: Merge adjacent runs in image outputs (the paper's optional final
    #: compression pass).  Row-level results are always raw.
    canonical: bool = True
    #: Run invariant checks every iteration (systolic engine only).
    paranoid: bool = False
    #: Record a phase-by-phase trace (systolic engine only).
    record_trace: bool = False
    #: Optional :class:`repro.obs.tracing.Tracer` span sink.
    tracer: "Optional[Tracer]" = None
    #: Optional :class:`repro.obs.metrics.MetricsRegistry` to record into.
    metrics: "Optional[MetricsRegistry]" = None
    #: Optional :class:`repro.obs.profile.EngineProfiler` convergence
    #: probe (batched engine only).
    probe: "Optional[EngineProfiler]" = None
    #: Directory of the persistent disk tier under the service cache
    #: (:class:`repro.service.store.RowStore`), or ``None`` for RAM-only
    #: caching.  Deployment plumbing, not semantics: where a result is
    #: *stored* never changes its bytes, so it is excluded from
    #: :meth:`cache_key` (entries written under one directory are valid
    #: under any other).
    cache_dir: Optional[str] = None
    #: On-disk byte budget for the persistent tier, or ``None`` for the
    #: store default (:data:`repro.service.store.DEFAULT_DISK_BUDGET`).
    #: Only read when ``cache_dir`` is set.
    disk_budget: Optional[int] = None

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        if self.n_cells is not None and self.n_cells < 1:
            raise CapacityError(
                f"n_cells must be >= 1 (or None for per-row sizing), "
                f"got {self.n_cells}"
            )
        if self.disk_budget is not None and self.disk_budget < 1:
            raise OptionsError(
                f"disk_budget must be >= 1 (or None for the store "
                f"default), got {self.disk_budget}"
            )

    # ------------------------------------------------------------------ #
    def cache_key(self) -> Tuple[str, Optional[int], bool, bool]:
        """The options component of a content-addressed cache key.

        Only fields that can change a cached
        :class:`~repro.core.machine.XorRunResult` are included:
        ``canonical`` is applied at image-assembly time (row results are
        always raw) and the observability handles are instrumentation,
        so neither belongs in the key.
        """
        return (self.engine, self.n_cells, self.paranoid, self.record_trace)

    def replace(self, **changes: Any) -> "DiffOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def without_observability(self) -> "DiffOptions":
        """A copy with the instrumentation handles detached — what the
        service layer stores alongside cached results."""
        if self.tracer is None and self.metrics is None and self.probe is None:
            return self
        return replace(self, tracer=None, metrics=None, probe=None)


#: Defaults preserved from the pre-``DiffOptions`` signatures:
#: ``row_diff`` defaulted to the reference machine, whole-image paths to
#: the batched engine.
ROW_DEFAULTS = DiffOptions(engine="systolic")
IMAGE_DEFAULTS = DiffOptions(engine="batched")


def checked_options(
    options: Optional[DiffOptions], defaults: DiffOptions, caller: str
) -> DiffOptions:
    """``options``, or the entry point's ``defaults`` when it is ``None``.

    The one boundary check every entry point runs: anything that is not
    a :class:`DiffOptions` — notably the engine as a bare string, the
    pre-1.1 spelling — raises a typed
    :class:`~repro.errors.OptionsError` naming the replacement.
    """
    if options is None:
        return defaults
    if not isinstance(options, DiffOptions):
        raise OptionsError(
            f"{caller}: options must be a DiffOptions or None, got "
            f"{type(options).__name__} (the bare string engine spelling was "
            f"removed in 1.1); pass options=DiffOptions(...) instead (see "
            f"docs/API.md)"
        )
    return options
