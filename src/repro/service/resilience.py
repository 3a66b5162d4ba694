"""Resilience for the serving path: deadlines, retries, a circuit
breaker, and degraded modes.

The paper's Theorem 1 guarantees bounded completion only for a
*fault-free* array; :class:`~repro.service.DiffService` inherited that
optimism — any engine exception, slow batch or corrupted result
propagated straight to the caller.  This module is the service-level
counterpart of the hardware story: :class:`ResilientDiffService` wraps
the cache + batcher stack with explicit failure policies, and
:mod:`repro.service.chaos` proves every one of them against seeded,
reproducible fault schedules.

The policy surface is one frozen dataclass, :class:`ResiliencePolicy`:

- **Deadlines** — per-request budgets.  Expiry raises
  :class:`~repro.errors.DeadlineExceededError` and *never* returns
  partial runs.
- **Retries** — transient engine failures retry up to ``max_retries``
  times with jittered exponential backoff, *inside* the compute hook,
  so the cache only ever stores results that survived.  Non-transient
  caller errors (:class:`~repro.errors.GeometryError`, ...) never
  retry.  Exhausted retries surface the last typed error, or wrap an
  untyped one in :class:`~repro.errors.RetryExhaustedError` — nothing
  untyped escapes the boundary.
- **Circuit breaker** — an error-rate breaker over a sliding window of
  request outcomes.  ``closed`` serves normally; past the failure
  threshold it ``open``\\ s; after ``breaker_reset_timeout`` seconds it
  admits ``half_open`` probes whose outcomes close or re-open it.
- **Degraded modes** — with the breaker open, requests are served
  *cache-only*: a hit is returned (counted as a degraded serve), a
  miss is shed with :class:`~repro.errors.ServiceOverloadError` instead
  of hammering a failing engine.
- **Result validation** — computed and cache-served results are checked
  structurally (:func:`validate_result`); a corrupted cache entry is
  invalidated and recomputed (self-healing), a corrupted engine result
  is retried.

Outcome accounting lands in the ``repro_resilience_*`` metric families
(see ``docs/OBSERVABILITY.md``), which the ``resilience_*`` keys of
:meth:`ResilientDiffService.stats` read.  Time and randomness are
injectable (``clock`` / ``sleep`` / ``rng``), so the chaos suites drive
every state machine transition deterministically.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.errors import (
    CapacityError,
    CorruptResultError,
    DeadlineExceededError,
    EncodingError,
    GeometryError,
    ReproError,
    RetryExhaustedError,
    ServiceError,
    ServiceOverloadError,
    UnknownEngineError,
)
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.machine import XorRunResult
from repro.core.options import DiffOptions, IMAGE_DEFAULTS, checked_options
from repro.core.pipeline import ImageDiffResult
from repro.obs.log import StructuredLog
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.service.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_LATENCY,
    DEFAULT_MAX_PENDING,
    ComputeFn,
    compute_row_diffs,
)
from repro.service.cache import DEFAULT_CACHE_BYTES
from repro.service.lifecycle import DEFAULT_SLO_SECONDS, RequestLifecycle
from repro.service.service import DiffService

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_VALUES",
    "ResiliencePolicy",
    "CircuitBreaker",
    "validate_result",
    "ResilientDiffService",
]

#: Breaker state names (also the ``repro_resilience_breaker_state``
#: gauge's vocabulary, via :data:`BREAKER_STATE_VALUES`).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"

#: Numeric encoding of breaker states for the state gauge and
#: ``stats()`` (0 = healthy, 2 = tripped).
BREAKER_STATE_VALUES: Dict[str, float] = {
    BREAKER_CLOSED: 0.0,
    BREAKER_HALF_OPEN: 1.0,
    BREAKER_OPEN: 2.0,
}

#: Caller/config mistakes — never retried, never counted against the
#: breaker (a malformed request says nothing about engine health).
_CALLER_ERRORS: Tuple[Type[ReproError], ...] = (
    GeometryError,
    EncodingError,
    CapacityError,
    UnknownEngineError,
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every failure-handling knob of the resilient service, as one
    immutable, validated value (mirroring
    :class:`~repro.core.options.DiffOptions` for the semantic knobs).

    Pass it as the ``policy`` argument of :class:`ResilientDiffService`
    (or of :class:`~repro.service.frontend.ShardedDiffService`, which
    hands it to every worker).
    """

    #: Per-request budget in seconds; ``None`` disables deadlines.
    deadline: Optional[float] = None
    #: Retries per engine batch after the first attempt (0 = fail fast).
    max_retries: int = 2
    #: First backoff delay, in seconds.
    backoff_base: float = 0.01
    #: Multiplier applied per further attempt.
    backoff_multiplier: float = 2.0
    #: Hard cap on a single backoff delay.
    backoff_max: float = 0.25
    #: Uniform jitter fraction added to each delay (0 = deterministic).
    jitter: float = 0.1
    #: Sliding window of request outcomes the breaker looks at;
    #: ``0`` disables the breaker entirely.
    breaker_window: int = 16
    #: Outcomes required in the window before the breaker may trip.
    breaker_min_requests: int = 8
    #: Failure rate (over the window) at which the breaker opens.
    breaker_failure_threshold: float = 0.5
    #: Seconds the breaker stays open before admitting probes.
    breaker_reset_timeout: float = 1.0
    #: Consecutive half-open probe successes required to close.
    breaker_half_open_probes: int = 1
    #: Structurally validate every computed / cache-served result.
    validate_results: bool = True
    #: Latency SLO per request, in seconds; a request finishing (or
    #: failing) later than this counts as an SLO breach in the
    #: ``repro_slo_breaches_total`` family and ``stats()``.  ``None``
    #: disables SLO accounting.
    slo_seconds: Optional[float] = DEFAULT_SLO_SECONDS

    def __post_init__(self) -> None:
        if self.slo_seconds is not None and self.slo_seconds <= 0:
            raise ServiceError(
                f"slo_seconds must be > 0 (or None to disable), "
                f"got {self.slo_seconds}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ServiceError(
                f"deadline must be > 0 seconds (or None), got {self.deadline}"
            )
        if self.max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ServiceError(
                f"backoff delays must be >= 0, got base={self.backoff_base}, "
                f"max={self.backoff_max}"
            )
        if self.backoff_multiplier < 1.0:
            raise ServiceError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ServiceError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.breaker_window < 0:
            raise ServiceError(
                f"breaker_window must be >= 0 (0 disables), got {self.breaker_window}"
            )
        if self.breaker_window:
            if not 1 <= self.breaker_min_requests <= self.breaker_window:
                raise ServiceError(
                    f"breaker_min_requests must be in [1, breaker_window], "
                    f"got {self.breaker_min_requests} (window {self.breaker_window})"
                )
            if not 0.0 < self.breaker_failure_threshold <= 1.0:
                raise ServiceError(
                    f"breaker_failure_threshold must be in (0, 1], "
                    f"got {self.breaker_failure_threshold}"
                )
            if self.breaker_reset_timeout < 0:
                raise ServiceError(
                    f"breaker_reset_timeout must be >= 0, "
                    f"got {self.breaker_reset_timeout}"
                )
            if self.breaker_half_open_probes < 1:
                raise ServiceError(
                    f"breaker_half_open_probes must be >= 1, "
                    f"got {self.breaker_half_open_probes}"
                )

    def backoff_for(self, attempt: int) -> float:
        """The un-jittered delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ServiceError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )


class CircuitBreaker:
    """An error-rate circuit breaker over a sliding outcome window.

    State machine::

        closed --[rate >= threshold over full-enough window]--> open
        open   --[reset_timeout elapsed]--------------------> half_open
        half_open --[probe failure]-------------------------> open
        half_open --[half_open_probes successes]------------> closed

    ``allow()`` answers admission (and performs the timed
    ``open -> half_open`` transition); ``record_success`` /
    ``record_failure`` feed outcomes back.  All methods are
    thread-safe.  With ``policy.breaker_window == 0`` the breaker is
    inert: always closed, never trips.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.policy = policy
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._window: List[bool] = []  # True = failure; newest last
        self._opened_at = 0.0
        self._probes_issued = 0
        self._probe_successes = 0
        self.transitions: List[Tuple[str, str]] = []

    @property
    def enabled(self) -> bool:
        return self.policy.breaker_window > 0

    @property
    def state(self) -> str:
        """Current state (performs the timed half-open transition)."""
        with self._lock:
            self._tick()
            return self._state

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the current window (0.0 when empty)."""
        with self._lock:
            if not self._window:
                return 0.0
            return sum(self._window) / len(self._window)

    def allow(self) -> bool:
        """May a request go to the engine path right now?"""
        if not self.enabled:
            return True
        with self._lock:
            self._tick()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_HALF_OPEN:
                if self._probes_issued < self.policy.breaker_half_open_probes:
                    self._probes_issued += 1
                    return True
                return False
            return False

    def record_success(self) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._tick()
            if self._state == BREAKER_HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.policy.breaker_half_open_probes:
                    self._transition(BREAKER_CLOSED)
                    self._window.clear()
                return
            self._observe(False)

    def record_failure(self) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._tick()
            if self._state == BREAKER_HALF_OPEN:
                self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()
                return
            if self._state == BREAKER_OPEN:
                return
            self._observe(True)
            window, policy = self._window, self.policy
            if (
                len(window) >= policy.breaker_min_requests
                and sum(window) / len(window) >= policy.breaker_failure_threshold
            ):
                self._transition(BREAKER_OPEN)
                self._opened_at = self._clock()

    @property
    def transition_count(self) -> int:
        """Number of state transitions so far, read under the lock.

        ``transitions`` itself is appended to while the lock is held;
        external readers (e.g. :meth:`ResilientDiffService.stats`) go
        through this accessor so the length is never sampled mid-append.
        """
        with self._lock:
            return len(self.transitions)

    def trip(self) -> None:
        """Force the breaker open (tests, operational kill switch)."""
        with self._lock:
            if self._state != BREAKER_OPEN:
                self._transition(BREAKER_OPEN)
            self._opened_at = self._clock()

    def reset(self) -> None:
        """Force the breaker closed and clear the window."""
        with self._lock:
            if self._state != BREAKER_CLOSED:
                self._transition(BREAKER_CLOSED)
            self._window.clear()

    # -- internals (caller holds the lock) ----------------------------- #
    def _observe(self, failed: bool) -> None:
        self._window.append(failed)
        excess = len(self._window) - self.policy.breaker_window
        if excess > 0:
            del self._window[:excess]

    def _tick(self) -> None:
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.policy.breaker_reset_timeout
        ):
            self._transition(BREAKER_HALF_OPEN)

    def _transition(self, to_state: str) -> None:
        from_state = self._state
        self._state = to_state
        if to_state == BREAKER_HALF_OPEN:
            self._probes_issued = 0
            self._probe_successes = 0
        self.transitions.append((from_state, to_state))
        if self._on_transition is not None:
            self._on_transition(from_state, to_state)


def _min_cells(options: DiffOptions) -> int:
    """The least ``n_cells`` a valid result reports: the sequential
    engine builds no array and reports 0; the cell engines need one."""
    return 0 if options.engine == "sequential" else 1


def validate_result(
    options: DiffOptions,
    row_a: RLERow,
    row_b: RLERow,
    result: XorRunResult,
) -> None:
    """Structural validation of one served result against its inputs.

    Catches the corruption the chaos engine models — metadata rot in a
    computed result or a cache entry: mismatched ``k1``/``k2``,
    impossible iteration counts, bad ``n_cells``, or an output width
    inconsistent with the inputs.  O(1): safe on every request.  Raises
    :class:`~repro.errors.CorruptResultError` (transient — callers
    retry / invalidate).  A *plausible-but-wrong* result row cannot be
    caught without recomputing; that is the trace verifier's job, not a
    per-request check.
    """
    if result.k1 != row_a.run_count or result.k2 != row_b.run_count:
        raise CorruptResultError(
            f"result k1/k2 ({result.k1}/{result.k2}) do not match inputs "
            f"({row_a.run_count}/{row_b.run_count})"
        )
    if result.iterations < 0:
        raise CorruptResultError(
            f"negative iteration count {result.iterations}"
        )
    if result.n_cells < _min_cells(options):
        raise CorruptResultError(f"impossible n_cells {result.n_cells}")
    if (
        row_a.width is not None
        and result.result.width is not None
        and result.result.width != row_a.width
    ):
        raise CorruptResultError(
            f"result width {result.result.width} does not match input "
            f"width {row_a.width}"
        )


class ResilientDiffService:
    """A :class:`~repro.service.DiffService` wrapped in the
    :class:`ResiliencePolicy` failure machinery.

    Same request surface as the inner service (``row_diff``,
    ``submit_row_diff``, ``diff_images``, ``stats``, ``close``, context
    manager) with the guarantees layered on top:

    - every engine batch runs through the retry/validation wrapper
      *before* its results can reach the cache;
    - every request passes breaker admission, falling back to
      cache-only serving / typed load shedding when the breaker is
      open;
    - per-request deadlines raise
      :class:`~repro.errors.DeadlineExceededError`, never partial runs;
    - everything that escapes is a :class:`~repro.errors.ReproError`.

    Parameters mirror :class:`~repro.service.DiffService`, plus:

    policy:
        The :class:`ResiliencePolicy` (``None``: the defaults).
    compute:
        Innermost compute hook — pass a
        :class:`~repro.service.chaos.ChaosEngine` here to exercise the
        policies against injected faults.
    clock / sleep / rng:
        Injectable time and jitter sources, so tests drive deadlines,
        backoff and breaker timeouts deterministically.
    log:
        An optional :class:`~repro.obs.log.StructuredLog`; when given,
        the lifecycle events of every request (admitted / completed /
        shed, retries, breaker transitions, deadline expiries, cache
        self-heals) land there as ``repro.log/v1`` records.  Shard
        workers pass their per-process log so the events ship back to
        the front-end with replies.

    The service counts in one :class:`~repro.obs.metrics.MetricsRegistry`
    — ``options.metrics``, or a private one when that is ``None`` — and
    hands it to the inner service, so :meth:`stats` is a view of the
    cache, batcher, lifecycle and ``repro_resilience_*`` series there.
    """

    def __init__(
        self,
        options: Optional[DiffOptions] = None,
        policy: Optional[ResiliencePolicy] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_latency: float = DEFAULT_MAX_LATENCY,
        max_pending: int = DEFAULT_MAX_PENDING,
        compute: Optional[ComputeFn] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        log: Optional[StructuredLog] = None,
    ) -> None:
        opts = checked_options(options, IMAGE_DEFAULTS, "ResilientDiffService")
        metrics = opts.metrics if opts.metrics is not None else MetricsRegistry()
        opts = opts.replace(metrics=metrics)
        self.policy = policy if policy is not None else ResiliencePolicy()
        self._clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._base_compute: ComputeFn = (
            compute if compute is not None else compute_row_diffs
        )
        self._lock = threading.Lock()
        #: Cache self-heals (no metric series counts them).
        self.healed = 0
        self.log = log
        self._lifecycle = RequestLifecycle(
            "service",
            log=log,
            metrics=metrics,
            slo_seconds=self.policy.slo_seconds,
            clock=clock,
        )

        self._m_retries = metrics.counter(
            "repro_resilience_retries_total",
            "engine batch retry attempts",
        ).labels()
        self._m_deadline = metrics.counter(
            "repro_resilience_deadline_expired_total",
            "requests that exceeded their deadline",
        ).labels()
        self._m_degraded = metrics.counter(
            "repro_resilience_degraded_total",
            "degraded-mode dispositions while the breaker was open",
            ("mode",),
        )
        self._m_outcomes = metrics.counter(
            "repro_resilience_requests_total",
            "resilient-service requests by outcome",
            ("outcome",),
        )
        self._m_transitions = metrics.counter(
            "repro_resilience_breaker_transitions_total",
            "circuit breaker state transitions",
            ("from_state", "to_state"),
        )
        self._m_state = metrics.gauge(
            "repro_resilience_breaker_state",
            "breaker state (0=closed, 1=half_open, 2=open)",
        ).labels()
        self._m_state.set(BREAKER_STATE_VALUES[BREAKER_CLOSED])

        self.breaker = CircuitBreaker(
            self.policy, clock=clock, on_transition=self._note_transition
        )
        self._service = DiffService(
            opts,
            cache_bytes=cache_bytes,
            max_batch=max_batch,
            max_latency=max_latency,
            max_pending=max_pending,
            compute=self._guarded_compute,
            # The wrapper logs the request lifecycle itself, so the
            # inner service's `log` stays unset — but the disk tier's
            # cache_warm/cache_quarantine events should still land.
            store_log=log,
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def options(self) -> DiffOptions:
        return self._service.options

    @property
    def service(self) -> DiffService:
        """The wrapped inner service (cache and batcher live there)."""
        return self._service

    @property
    def slo_breaches(self) -> int:
        """Requests that ended later than ``policy.slo_seconds``."""
        return int(self._lifecycle.slo_breach_total())

    def stats(self) -> Dict[str, float]:
        """Inner cache/batcher stats plus the resilience counters, each
        read from its series in the service's registry."""
        info = self._service.stats()
        degraded = MetricsSnapshot((self._m_degraded.snapshot(),))
        info["resilience_retries"] = self._m_retries.read()
        info["resilience_deadline_expirations"] = self._m_deadline.read()
        info["resilience_degraded_serves"] = degraded.counter_total(
            self._m_degraded.name, mode="cache_only"
        )
        info["resilience_shed"] = degraded.counter_total(
            self._m_degraded.name, mode="shed"
        )
        with self._lock:
            info["resilience_healed"] = float(self.healed)
        info["slo_breaches"] = self._lifecycle.slo_breach_total()
        info["latency_p50"] = self._lifecycle.latency_quantile(0.5)
        info["latency_p99"] = self._lifecycle.latency_quantile(0.99)
        info["breaker_state"] = BREAKER_STATE_VALUES[self.breaker.state]
        info["breaker_failure_rate"] = self.breaker.failure_rate
        # transition_count reads len() under the breaker's own lock —
        # sampling the list bare here could race a mid-append resize.
        info["breaker_transitions"] = float(self.breaker.transition_count)
        return info

    # ------------------------------------------------------------------ #
    # Requests: every entry point adapts the one _serve sequence         #
    # ------------------------------------------------------------------ #
    def submit_row_diff(
        self, row_a: RLERow, row_b: RLERow
    ) -> "Future[XorRunResult]":
        """Asynchronous row diff through the resilient path.

        Breaker admission applies: with the breaker open, a cache hit
        comes back as an already-resolved future and a miss raises
        :class:`~repro.errors.ServiceOverloadError`.  Computed results
        are retried/validated inside the batch wrapper; deadline
        enforcement is the caller's (use
        ``future.result(timeout=...)`` or :meth:`row_diff`).
        """
        if not self.breaker.allow():
            future: "Future[XorRunResult]" = Future()
            future.set_result(self._degraded_lookup([row_a], [row_b])[0])
            return future
        return self._service.submit_row_diff(row_a, row_b)

    def row_diff(
        self,
        row_a: RLERow,
        row_b: RLERow,
        deadline: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> XorRunResult:
        """Synchronous row diff under the full policy (``deadline``
        overrides ``policy.deadline``).

        The :meth:`diff_rows` sequence for one pair, except that the
        pair is queued on the inner batcher and its future is awaited
        against the deadline — so this call returns at its deadline
        even while the engine batch is still running.  ``request_id``
        stamps the request's log events (see
        :class:`~repro.obs.context.RequestContext`).
        """
        with self._lifecycle.track("row_diff", request_id, 1):
            return self._serve([row_a], [row_b], deadline, queued=True)[0]

    def diff_images(
        self,
        image_a: RLEImage,
        image_b: RLEImage,
        deadline: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> ImageDiffResult:
        """Whole-image diff under the full policy: :meth:`diff_rows`
        over the images' rows, assembled like
        :meth:`DiffService.diff_images
        <repro.service.DiffService.diff_images>`."""
        with self._lifecycle.track("diff_images", request_id, image_a.height):
            if image_a.shape != image_b.shape:
                raise GeometryError(
                    f"image shapes differ: {image_a.shape} vs {image_b.shape}"
                )
            rows = self._serve(list(image_a), list(image_b), deadline)
        return ImageDiffResult.assemble(rows, image_a.width, self.options.canonical)

    def diff_rows(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        deadline: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> List[XorRunResult]:
        """Bulk row-pair diff under the full policy.

        The request unit of the sharded tier
        (:mod:`repro.service.shard`) and the path under every other
        entry point: breaker admission (degraded cache-only serving
        when open), the inner service's bulk serve, validation with
        self-healing, and the deadline.  The bulk path computes inline,
        so the deadline is checked when the batch ends (a running NumPy
        batch cannot be preempted): retries stop once the budget is
        gone, and a request finishing later raises
        :class:`~repro.errors.DeadlineExceededError` rather than
        returning late results.  ``request_id`` stamps the request's
        log events with the originating request's identity.
        """
        with self._lifecycle.track("diff_rows", request_id, len(rows_a)):
            return self._serve(rows_a, rows_b, deadline)

    def _serve(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        deadline: Optional[float],
        queued: bool = False,
    ) -> List[XorRunResult]:
        """Admission, serve, self-heal, deadline and outcome for one
        request."""
        if len(rows_a) != len(rows_b):
            raise GeometryError(
                f"row sequences differ in length: {len(rows_a)} vs {len(rows_b)}"
            )
        budget = deadline if deadline is not None else self.policy.deadline
        start = self._clock()
        if not self.breaker.allow():
            return self._degraded_lookup(rows_a, rows_b)
        try:
            results = self._fetch(rows_a, rows_b, start, budget, queued)
            if self.policy.validate_results:
                results = self._heal(rows_a, rows_b, results, start, budget, queued)
            if budget is not None and self._clock() - start > budget:
                raise DeadlineExceededError(
                    f"request completed after its {budget:g}s deadline"
                )
        except _CALLER_ERRORS:
            raise
        except ServiceOverloadError:
            raise
        except DeadlineExceededError:
            self._count_deadline()
            self.breaker.record_failure()
            raise
        except ReproError:
            self._count_outcome("failed")
            self.breaker.record_failure()
            raise
        except Exception as exc:
            self._count_outcome("failed")
            self.breaker.record_failure()
            raise RetryExhaustedError(
                f"request failed with untyped {type(exc).__name__}: {exc}"
            ) from exc
        self._count_outcome("ok")
        self.breaker.record_success()
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def close(self, timeout: Optional[float] = None) -> None:
        self._service.close(timeout=timeout)

    def __enter__(self) -> "ResilientDiffService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The guarded compute hook (runs inside the inner service, before    #
    # any result can reach the cache)                                    #
    # ------------------------------------------------------------------ #
    def _guarded_compute(
        self,
        options: DiffOptions,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
    ) -> List[XorRunResult]:
        policy = self.policy
        start = self._clock()
        attempt = 0
        while True:
            # >= not >: backoff delays are clamped to the remaining
            # budget, so elapsed time converges on exactly the deadline
            if (
                policy.deadline is not None
                and self._clock() - start >= policy.deadline
                and attempt > 0
            ):
                raise DeadlineExceededError(
                    f"engine batch abandoned after {policy.deadline:g}s "
                    f"({attempt} attempt(s) made)"
                )
            try:
                results = self._base_compute(options, rows_a, rows_b)
                if policy.validate_results:
                    # inlined fast path: one predicate per row, and only
                    # a failing row pays for the full (raising) check
                    min_cells = _min_cells(options)
                    for row_a, row_b, result in zip(rows_a, rows_b, results):
                        if (
                            result.k1 != row_a.run_count
                            or result.k2 != row_b.run_count
                            or result.iterations < 0
                            or result.n_cells < min_cells
                            or (
                                row_a.width is not None
                                and result.result.width is not None
                                and result.result.width != row_a.width
                            )
                        ):
                            validate_result(options, row_a, row_b, result)
                return results
            except _CALLER_ERRORS:
                raise
            except DeadlineExceededError:
                raise
            except Exception as exc:
                attempt += 1
                if attempt > policy.max_retries:
                    if isinstance(exc, ReproError):
                        raise
                    raise RetryExhaustedError(
                        f"engine batch failed after {attempt} attempt(s) "
                        f"with untyped {type(exc).__name__}: {exc}"
                    ) from exc
                self._count_retry()
                self._backoff(attempt, start)

    def _backoff(self, attempt: int, start: float) -> None:
        policy = self.policy
        delay = policy.backoff_for(attempt)
        if policy.jitter:
            with self._lock:
                delay *= 1.0 + policy.jitter * self._rng.random()
        if policy.deadline is not None:
            remaining = policy.deadline - (self._clock() - start)
            delay = min(delay, max(0.0, remaining))
        if delay > 0:
            self._sleep(delay)

    # ------------------------------------------------------------------ #
    # Inner serve, self-healing and the degraded mode                    #
    # ------------------------------------------------------------------ #
    def _fetch(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        start: float,
        budget: Optional[float],
        queued: bool,
    ) -> List[XorRunResult]:
        """The inner service's results: one bulk request, or (``queued``)
        the single pair's batcher future awaited against the budget."""
        if not queued:
            return self._service.diff_rows(rows_a, rows_b)
        future = self._service.submit_row_diff(rows_a[0], rows_b[0])
        if budget is None:
            return [future.result()]
        try:
            return [future.result(timeout=max(0.0, budget - (self._clock() - start)))]
        except FuturesTimeout:
            raise DeadlineExceededError(
                f"row diff still pending after its {budget:g}s deadline"
            ) from None

    def _heal(
        self,
        rows_a: Sequence[RLERow],
        rows_b: Sequence[RLERow],
        results: List[XorRunResult],
        start: float,
        budget: Optional[float],
        queued: bool,
    ) -> List[XorRunResult]:
        """Validate every served result; a corrupt one is a rotted cache
        entry (computed results were validated upstream), so invalidate
        the corrupt entries and serve the request once more."""
        cache = self._service.cache
        if cache is None:
            # no cache, no rot: every row came straight out of the
            # validated compute chain — don't pay for a second pass
            return results
        corrupt = [
            (row_a, row_b)
            for row_a, row_b, result in zip(rows_a, rows_b, results)
            if not _is_valid(self.options, row_a, row_b, result)
        ]
        if not corrupt:
            return results
        for row_a, row_b in corrupt:
            cache.invalidate(cache.key_for(row_a, row_b, self.options))
        self._count_retry()
        self._count_healed()
        fresh = self._fetch(rows_a, rows_b, start, budget, queued)
        for row_a, row_b, result in zip(rows_a, rows_b, fresh):
            validate_result(self.options, row_a, row_b, result)
        return fresh

    def _degraded_lookup(
        self, rows_a: Sequence[RLERow], rows_b: Sequence[RLERow]
    ) -> List[XorRunResult]:
        """Breaker open: serve the whole request from the cache, or shed
        it — the engine path stays disabled either way."""
        cache = self._service.cache
        served: List[XorRunResult] = []
        if cache is not None:
            for row_a, row_b in zip(rows_a, rows_b):
                hit = cache.lookup(row_a, row_b, self.options)
                if hit is None or not _is_valid(self.options, row_a, row_b, hit):
                    break
                served.append(hit)
        if cache is None or len(served) < len(rows_a):
            self._count_degraded("shed")
            raise ServiceOverloadError(
                "circuit breaker open: engine path disabled and the request "
                "is not fully cached — shedding load, retry after "
                f"{self.policy.breaker_reset_timeout:g}s"
            )
        self._count_degraded("cache_only")
        return served

    # ------------------------------------------------------------------ #
    # Accounting                                                         #
    # ------------------------------------------------------------------ #
    def _count_retry(self) -> None:
        with self._lock:
            self._m_retries.inc()
            total = int(self._m_retries.read())
        if self.log is not None:
            self.log.log("retry", level="warning", total=total)

    def _count_healed(self) -> None:
        with self._lock:
            self.healed += 1
            total = self.healed
        if self.log is not None:
            self.log.log("cache_self_heal", level="warning", total=total)

    def _count_deadline(self) -> None:
        self._m_deadline.inc()
        self._count_outcome("deadline")

    def _count_degraded(self, mode: str) -> None:
        self._m_degraded.labels(mode=mode).inc()
        self._count_outcome("degraded" if mode == "cache_only" else "shed")

    def _count_outcome(self, outcome: str) -> None:
        self._m_outcomes.labels(outcome=outcome).inc()

    def _note_transition(self, from_state: str, to_state: str) -> None:
        self._m_transitions.labels(from_state=from_state, to_state=to_state).inc()
        self._m_state.set(BREAKER_STATE_VALUES[to_state])
        if self.log is not None:
            self.log.log(
                "breaker_transition",
                level="warning",
                from_state=from_state,
                to_state=to_state,
            )


def _is_valid(
    options: DiffOptions,
    row_a: RLERow,
    row_b: RLERow,
    result: XorRunResult,
) -> bool:
    try:
        validate_result(options, row_a, row_b, result)
        return True
    except CorruptResultError:
        return False
