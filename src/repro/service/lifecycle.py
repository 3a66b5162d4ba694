"""Request accounting shared by every serving tier.

The base :class:`~repro.service.DiffService` (tier ``base``), the
:class:`~repro.service.resilience.ResilientDiffService` (tier
``service``) and the sharded front-end (tier ``frontend``) each wrap
every entry point in :meth:`RequestLifecycle.track`.  A request is
therefore accounted exactly once per tier, under the ``op`` of the
entry point the caller invoked, with the same record fields at every
tier (the table is in ``docs/OBSERVABILITY.md``): one
``request_admitted`` record, one latency observation, one SLO verdict,
and one terminal record — ``request_shed`` for a
:class:`~repro.errors.ServiceOverloadError`, ``deadline_expired`` for a
:class:`~repro.errors.DeadlineExceededError`, ``request_completed``
otherwise.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional

from repro.errors import DeadlineExceededError, ServiceOverloadError
from repro.obs.context import new_request_id
from repro.obs.metrics import LATENCY_BUCKETS_S, Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.log import StructuredLog
    from repro.obs.metrics import MetricFamily, MetricsRegistry

__all__ = ["DEFAULT_SLO_SECONDS", "RequestLifecycle"]

#: The latency budget a request is held to when no
#: :class:`~repro.service.resilience.ResiliencePolicy` sets one.
DEFAULT_SLO_SECONDS = 0.5


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
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for the
        ``repro_request_latency_seconds`` (labels ``op``, ``tier``) and
        ``repro_slo_breaches_total`` (label ``op``) families.
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
        self._lock = threading.Lock()
        #: Always-on latency distribution, so ``stats()`` can report
        #: quantiles even when no registry was threaded.
        self.latency = Histogram(LATENCY_BUCKETS_S)
        self.slo_breaches = 0
        self._m_latency: "Optional[MetricFamily]" = None
        self._m_slo: "Optional[MetricFamily]" = None
        if metrics is not None:
            self._m_latency = metrics.histogram(
                "repro_request_latency_seconds",
                "request latency by operation and tier",
                ("op", "tier"),
                buckets=LATENCY_BUCKETS_S,
            )
            self._m_slo = metrics.counter(
                "repro_slo_breaches_total",
                "requests slower than the policy's slo_seconds budget",
                ("op",),
            )

    @contextmanager
    def track(
        self, op: str, request_id: Optional[str], units: int
    ) -> Iterator[None]:
        """Account the request run inside the ``with`` block: the
        admitted record on entry, then the latency, the SLO verdict and
        the terminal record on every exit path."""
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
        self.latency.observe(elapsed)
        if self._m_latency is not None:
            self._m_latency.labels(op=op, tier=self.tier).observe(elapsed)
        breached = self.slo_seconds is not None and elapsed > self.slo_seconds
        if breached:
            with self._lock:
                self.slo_breaches += 1
            if self._m_slo is not None:
                self._m_slo.labels(op=op).inc()
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
