"""Request accounting shared by every serving tier.

The base :class:`~repro.service.DiffService` (tier ``base``), the
:class:`~repro.service.resilience.ResilientDiffService` (tier
``service``) and the sharded front-end (tier ``frontend``) each wrap
every entry point in :meth:`RequestLifecycle.track`.  A request is
therefore accounted exactly once per tier, under the ``op`` of the
entry point the caller invoked, with the same record fields at every
tier (the table is in ``docs/OBSERVABILITY.md``): one
``request_admitted`` record and one terminal record — ``request_shed``
for a :class:`~repro.errors.ServiceOverloadError`, ``deadline_expired``
for a :class:`~repro.errors.DeadlineExceededError`, ``request_completed``
otherwise.  The ``service`` and ``frontend`` tiers also record the
latency and the SLO verdict in their registry, and read them back from
there; the base tier records no metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional

from repro.errors import DeadlineExceededError, ServiceOverloadError
from repro.obs.context import new_request_id
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.log import StructuredLog
    from repro.obs.metrics import MetricsRegistry

__all__ = ["DEFAULT_SLO_SECONDS", "RequestLifecycle"]

#: The latency budget a request is held to when no
#: :class:`~repro.service.resilience.ResiliencePolicy` sets one.
DEFAULT_SLO_SECONDS = 0.5


def _unrecorded(op: str, elapsed: float, breached: bool) -> None:
    """The base tier's recorder: its requests leave no metrics."""


class RequestLifecycle:
    """One tier's request accounting.

    Parameters
    ----------
    tier:
        The ``tier`` field of every record and latency series.
    log:
        Optional :class:`~repro.obs.log.StructuredLog` for the
        lifecycle records; without one no request id is generated and
        nothing is formatted.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` for the
        ``repro_request_latency_seconds`` (labels ``op``, ``tier``) and
        ``repro_slo_breaches_total`` (label ``op``) families.  Only the
        base tier passes none.
    slo_seconds:
        A request ending later than this is an SLO breach; ``None``
        disables the verdict.
    clock:
        Latency time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        tier: str,
        log: "Optional[StructuredLog]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        slo_seconds: Optional[float] = DEFAULT_SLO_SECONDS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.tier = tier
        self.log = log
        self.slo_seconds = slo_seconds
        self._clock = clock
        #: Whether a request is timed at all: the base tier, built
        #: without a registry, times one only for the records of a log.
        self._timed = log is not None or metrics is not None
        self._record: Callable[[str, float, bool], None] = _unrecorded
        if metrics is not None:
            self._latency = metrics.histogram(
                "repro_request_latency_seconds",
                "request latency by operation and tier",
                ("op", "tier"),
                buckets=LATENCY_BUCKETS_S,
            )
            self._slo = metrics.counter(
                "repro_slo_breaches_total",
                "requests slower than the policy's slo_seconds budget",
                ("op",),
            )
            self._record = self._record_series

    @contextmanager
    def track(
        self, op: str, request_id: Optional[str], units: int
    ) -> Iterator[None]:
        """Account the request run inside the ``with`` block: the
        admitted record on entry, then the latency, the SLO verdict and
        the terminal record on every exit path."""
        if not self._timed:
            yield
            return
        if self.log is not None:
            if request_id is None:
                request_id = new_request_id()
            self.log.log(
                "request_admitted",
                request_id=request_id,
                level="debug",
                op=op,
                tier=self.tier,
                units=units,
            )
        started = self._clock()
        try:
            yield
        except BaseException as exc:
            self._finish(op, request_id, started, exc)
            raise
        self._finish(op, request_id, started, None)

    def _finish(
        self,
        op: str,
        request_id: Optional[str],
        started: float,
        exc: Optional[BaseException],
    ) -> None:
        elapsed = max(0.0, self._clock() - started)
        breached = self.slo_seconds is not None and elapsed > self.slo_seconds
        self._record(op, elapsed, breached)
        if self.log is None:
            return
        extra: Dict[str, object] = {}
        if exc is None:
            event, level = "request_completed", "debug"
            extra["ok"] = True
        elif isinstance(exc, ServiceOverloadError):
            event, level = "request_shed", "warning"
        elif isinstance(exc, DeadlineExceededError):
            event, level = "deadline_expired", "warning"
        else:
            event, level = "request_completed", "warning"
            extra.update(ok=False, error=type(exc).__name__)
        self.log.log(
            event,
            request_id,
            level,
            op=op,
            tier=self.tier,
            seconds=elapsed,
            slo_breach=breached,
            **extra,
        )

    def _record_series(self, op: str, elapsed: float, breached: bool) -> None:
        self._latency.labels(op=op, tier=self.tier).observe(elapsed)
        if breached:
            self._slo.labels(op=op).inc()

    def latency_quantile(self, q: float) -> float:
        """This tier's request latency ``q``-quantile, pooled over ops."""
        view = MetricsSnapshot((self._latency.snapshot(),))
        return view.histogram_quantile(self._latency.name, q, tier=self.tier)

    def slo_breach_total(self) -> float:
        """``repro_slo_breaches_total`` summed over ops (it has no
        ``tier`` label)."""
        return MetricsSnapshot((self._slo.snapshot(),)).counter_total(self._slo.name)
