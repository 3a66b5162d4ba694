"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate failure classes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the :mod:`repro` package."""


class EncodingError(ReproError):
    """An RLE structure is malformed (unordered, overlapping, or negative runs)."""


class GeometryError(ReproError):
    """Two images/rows with incompatible shapes were combined."""


class SystolicError(ReproError):
    """The systolic machine was misused (e.g. stepped after halting)."""


class CapacityError(SystolicError):
    """An input does not fit in the configured number of cells."""


class UnknownEngineError(SystolicError):
    """An engine name outside :data:`repro.core.options.ENGINE_NAMES` was
    requested.

    Raised at the public API boundary (:func:`repro.core.api.row_diff`,
    :func:`repro.core.pipeline.diff_images`, ...) before any dispatch
    happens, so callers see the full list of valid names instead of a
    failure from deep inside an engine loop.  Subclasses
    :class:`SystolicError` for backward compatibility with callers that
    caught the old dispatch-time error.
    """


class OptionsError(ReproError):
    """An options value the differencing entry points cannot use.

    Raised by :func:`repro.core.options.checked_options` when the
    ``options`` position of ``row_diff``, ``image_diff``,
    ``diff_images`` or a service constructor holds anything but a
    :class:`repro.core.options.DiffOptions` or ``None`` — notably the
    bare engine string removed in 1.1 — and by ``DiffOptions`` itself
    for an invalid ``disk_budget``.  The pre-1.1 keyword arguments
    (``engine=``, ``tracer=``, ...) are no longer parameters, so they
    get Python's own ``TypeError`` (see ``docs/API.md``)."""


class ServiceError(ReproError):
    """The :mod:`repro.service` layer was misconfigured or misused
    (non-positive cache budget, submit after close, ...)."""


class ProtocolError(ServiceError):
    """A line-JSON wire request violated the protocol contract:
    not valid JSON, not an object, an unknown ``op``, an unsupported
    protocol version ``v``, or a missing or malformed field.

    Raised (and returned typed over the socket) by
    :class:`repro.service.frontend.ShardedServer` so clients can
    distinguish "you spoke the protocol wrong" from service-side
    failures.  See the op-vocabulary table in ``docs/SERVING.md``.

    ``reason`` is the rejection's label on the server's
    ``repro_protocol_rejects_total`` counter (``line_too_long``,
    ``invalid_json``, ``nesting_too_deep``, ``not_object``,
    ``unsupported_version``, ``unknown_op``, ``missing_field``,
    ``malformed_field``); it does not travel over the wire.
    """

    def __init__(self, message: str = "", reason: str = "unspecified") -> None:
        super().__init__(message)
        self.reason = reason


class UnknownSessionError(ServiceError):
    """A streaming op named a session id this tier does not hold.

    Raised by :class:`repro.service.stream.StreamingDiffService` (and
    rehydrated across the shard pipe / TCP boundary) when
    ``stream_frame`` / ``stream_close`` / ``stream_stats`` reference a
    session that was never opened, was already closed, or was lost with
    a crashed shard worker.  Clients recover by reopening the session —
    the ring walk places it on a live shard (see ``docs/SERVING.md``).
    """


class ServiceOverloadError(ServiceError):
    """The :class:`repro.service.DiffService` request queue is full.

    Backpressure signal: the batcher's bounded queue rejected a new
    request rather than growing without limit.  Callers should retry
    later or shed load.  Also raised by
    :class:`repro.service.resilience.ResilientDiffService` when the
    circuit breaker is open and the request cannot be served from the
    cache (deliberate load shedding).
    """


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before a complete result was ready.

    Raised by the :mod:`repro.service.resilience` layer.  A deadline
    expiry never returns partial runs — the caller either gets a full
    :class:`~repro.core.machine.XorRunResult` or this error.
    """


class RetryExhaustedError(ServiceError):
    """Every retry attempt permitted by the
    :class:`~repro.service.resilience.ResiliencePolicy` failed.

    The final underlying failure is chained as ``__cause__``.  Raised in
    place of non-:class:`ReproError` engine exceptions so nothing
    untyped ever escapes the service boundary.
    """


class CorruptResultError(ReproError):
    """An engine (or cache entry) produced a result that fails the
    resilience layer's structural validation — mismatched ``k1``/``k2``,
    impossible iteration counts, or an inconsistent output width.

    Treated as a *transient* failure: the resilience layer retries (and
    invalidates the offending cache entry) before surfacing it.
    """


class InjectedFaultError(ReproError):
    """A fault deliberately injected by
    :class:`repro.service.chaos.ChaosEngine`.

    Only raised by the chaos tooling; seeing it in production means a
    chaos schedule was left attached.  Transient by definition — the
    resilience layer retries it.
    """


class InvariantViolation(ReproError):
    """A runtime invariant derived from the paper's theorems failed.

    Raised by :mod:`repro.core.invariants` checkers (and by machines running
    in *paranoid* mode).  Seeing this on an unmodified machine indicates a
    simulator bug; the fault-injection tests raise it deliberately.
    """

    def __init__(self, name: str, detail: str = "") -> None:
        self.name = name
        self.detail = detail
        message = f"invariant {name!r} violated" + (f": {detail}" if detail else "")
        super().__init__(message)


class WorkloadError(ReproError):
    """A workload specification is invalid or cannot be satisfied."""


class AnalysisError(ReproError):
    """An analysis/evaluation routine was given unusable data (e.g. too
    few points to fit a model)."""


class LintError(ReproError):
    """The :mod:`repro.analysis.lint` tooling was misconfigured (bad
    path, malformed suppression directive or baseline file, unknown rule
    code)."""


class FormatError(ReproError):
    """A file being read is not in the expected format (PBM, RLE text...)."""


class ObservabilityError(ReproError):
    """The :mod:`repro.obs` layer was misused (metric re-registered with a
    different type, label mismatch, unbalanced span exit) or an emitted
    metrics/trace document failed schema validation."""
