"""Metrics: named counters, gauges and fixed-bucket histograms.

The paper's claims are quantitative — Theorem 1's ``k1 + k2`` iteration
bound, Table 1's run counts — so the repo measures everything it does
through one registry instead of ad-hoc counter bags and scattered
``perf_counter`` calls.  Three metric kinds, all label-aware:

``counter``
    Monotonically increasing totals (rows differenced, iterations run,
    activity events).
``gauge``
    Last-written values (batch width, active worker count).
``histogram``
    Fixed-bucket distributions (per-row iteration counts) — buckets are
    upper bounds, cumulated only at export time.

Design constraints inherited from the rest of the repo:

* **Picklable snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
  :class:`MetricsSnapshot` built from frozen dataclasses of builtin
  types, so shard workers can export their metrics across the process
  boundary and the front-end merges them
  (:meth:`MetricsRegistry.merge_snapshot`, behind
  :meth:`ShardedDiffService.merged_registry
  <repro.service.frontend.ShardedDiffService.merged_registry>`) — the
  recorded totals do not depend on how the rows were split, which the
  equivalence tests assert.
* **No ambient global registry.**  Registries are always passed
  explicitly (rule RLE005: module-level mutable state diverges silently
  between forked workers).
* **Zero cost when off, on the engine path.**  The engines and the
  pipeline take ``metrics=None`` and record only behind an
  ``is not None`` check.  The service components
  (:mod:`repro.service`) always count, into a private registry when
  given none: their ``stats()`` and ``info()`` read these series, so
  the registry is their only set of counters.

Exporters: :meth:`MetricsRegistry.to_json` (machine-readable document,
validated by :func:`repro.obs.schema.validate_metrics_json`) and
:meth:`MetricsRegistry.to_prometheus_text` (Prometheus textfile format
for node-exporter style scraping).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "DEFAULT_BUCKETS",
    "ITERATION_BUCKETS",
    "LATENCY_BUCKETS_S",
    "quantile_from_buckets",
    "CounterBag",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "SeriesSnapshot",
    "FamilySnapshot",
    "MetricsSnapshot",
    "MetricsRegistry",
    "record_image_diff",
]

#: General-purpose histogram buckets (upper bounds; +inf is implicit).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)

#: Buckets sized for per-row systolic iteration counts: Figure 5 rows
#: terminate in a handful of iterations, Table 1's densest pairings in a
#: few hundred.
ITERATION_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Request-latency buckets in seconds, log-spaced from 100µs to 10s —
#: the ``repro_request_latency_seconds`` families at the sharded
#: front-end and in each shard worker share these bounds so worker
#: cells merge into the fleet histogram without resampling.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def quantile_from_buckets(
    bounds: Sequence[float], bucket_counts: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket distribution.

    Classic Prometheus-style estimation: find the bucket the target
    rank lands in and interpolate linearly inside it (lower edge 0.0
    for the first bucket).  Observations in the +inf overflow bucket
    clamp to the last finite bound — the estimator never invents a
    value beyond what the bucket layout can resolve.  An empty
    histogram yields 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
    if len(bucket_counts) != len(bounds) + 1:
        raise ObservabilityError(
            f"expected {len(bounds) + 1} bucket cells (bounds + overflow), "
            f"got {len(bucket_counts)}"
        )
    total = sum(bucket_counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for i, cell in enumerate(bucket_counts):
        if cell == 0:
            continue
        if cumulative + cell >= target:
            if i >= len(bounds):  # +inf overflow: clamp to last bound
                return float(bounds[-1])
            lower = float(bounds[i - 1]) if i > 0 else 0.0
            upper = float(bounds[i])
            fraction = max(0.0, (target - cumulative) / cell)
            return lower + (upper - lower) * fraction
        cumulative += cell
    return float(bounds[-1])


class CounterBag:
    """A minimal named-counter bag — the primitive under both
    :class:`~repro.systolic.stats.ActivityStats` and the labelled
    counters here.

    Dict-backed, picklable, and cheap enough for the engines' per-step
    accounting.  Zero increments are dropped so a counter that never
    fired is *absent* — keeps bags comparable across engines that
    evaluate counters eagerly (vectorized reductions) vs. lazily (per
    event).
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Mapping[str, int]] = None) -> None:
        self._counts: Dict[str, int] = dict(counts) if counts else {}

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (no-op when 0)."""
        if amount:
            self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def __len__(self) -> int:
        return len(self._counts)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def items(self) -> Tuple[Tuple[str, int], ...]:
        """Sorted ``(name, count)`` tuples — the picklable wire form."""
        return tuple(sorted(self._counts.items()))

    def merge_into(self, other: "CounterBag") -> None:
        """Add ``other``'s counts into this bag in place."""
        for name, count in other._counts.items():
            self.bump(name, count)

    def clear(self) -> None:
        self._counts.clear()


# --------------------------------------------------------------------- #
# Snapshots — frozen builtin-typed wire forms                            #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SeriesSnapshot:
    """One labelled series.  ``value`` carries counters/gauges;
    histograms use ``bucket_counts``/``sum``/``count``."""

    labels: Tuple[str, ...]
    value: float = 0.0
    bucket_counts: Tuple[int, ...] = ()
    sum: float = 0.0
    count: int = 0


@dataclass(frozen=True)
class FamilySnapshot:
    """One metric family: kind, metadata and its sorted series."""

    kind: str
    name: str
    help: str
    labelnames: Tuple[str, ...]
    buckets: Tuple[float, ...] = ()
    series: Tuple[SeriesSnapshot, ...] = ()


@dataclass(frozen=True)
class MetricsSnapshot:
    """A picklable, mergeable point-in-time copy of a registry."""

    families: Tuple[FamilySnapshot, ...] = ()

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Sum two snapshots (counters and histograms add; gauges take
        ``other``'s value, last-write-wins)."""
        registry = MetricsRegistry.from_snapshot(self)
        registry.merge_snapshot(other)
        return registry.snapshot()

    def counter_total(self, name: str, **labels: str) -> float:
        """Sum of counter family ``name``'s series whose labels include
        the given subset (all series when no labels are given).

        The cross-process sanity check of the sharded tier: the
        front-end's merged snapshot must report the same totals as the
        sum over per-worker snapshots, and this is the accessor both
        sides use.  Returns ``0.0`` for absent families — a worker that
        never fired a counter simply contributes nothing.
        """
        total = 0.0
        for family in self.families:
            if family.name != name or family.kind != "counter":
                continue
            for series in family.series:
                have = dict(zip(family.labelnames, series.labels))
                if all(have.get(key) == value for key, value in labels.items()):
                    total += series.value
        return total

    def histogram_quantile(self, name: str, q: float, **labels: str) -> float:
        """Estimated ``q``-quantile over histogram family ``name``,
        pooling the cells of every series whose labels include the
        given subset (see :func:`quantile_from_buckets`).

        This is the merged-fleet view: the front-end folds worker
        snapshots and asks one question — "what was p99 across all
        shards?" — without shipping raw observations.  Returns ``0.0``
        for absent families or when nothing matched.
        """
        bounds: Tuple[float, ...] = ()
        pooled: List[int] = []
        for family in self.families:
            if family.name != name or family.kind != "histogram":
                continue
            bounds = family.buckets
            for series in family.series:
                have = dict(zip(family.labelnames, series.labels))
                if not all(have.get(k) == v for k, v in labels.items()):
                    continue
                if not pooled:
                    pooled = list(series.bucket_counts)
                else:
                    for i, cell in enumerate(series.bucket_counts):
                        pooled[i] += cell
        if not bounds or not pooled:
            return 0.0
        return quantile_from_buckets(bounds, pooled, q)


# --------------------------------------------------------------------- #
# Live metric instances                                                 #
# --------------------------------------------------------------------- #
class Counter:
    """A monotonically increasing total.

    Mutation is locked: series are bumped concurrently — the batcher's
    worker thread and caller threads share ``repro_service_requests_total``
    — and an unsynchronized ``+=`` loses increments under bytecode
    interleaving (RLE102).
    """

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; inc({amount}) is negative"
            )
        with self._lock:
            self.value += amount

    def read(self) -> float:
        """The current total, sampled under the lock."""
        with self._lock:
            return self.value


class Gauge:
    """A last-written value (mutation locked, like :class:`Counter`)."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def read(self) -> float:
        """The current value, sampled under the lock."""
        with self._lock:
            return self.value


class Histogram:
    """A fixed-bucket distribution.

    ``buckets`` are strictly increasing upper bounds; an implicit +inf
    bucket catches the overflow.  Counts are stored per bucket
    (non-cumulative) and cumulated only by the Prometheus exporter.
    Mutation and snapshotting are locked so ``sum``/``count`` and the
    bucket cells never tear against a concurrent :meth:`observe`.
    """

    __slots__ = ("buckets", "bucket_counts", "sum", "count", "_lock")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram buckets must be non-empty and strictly "
                f"increasing, got {bounds}"
            )
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +inf overflow
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1

    def merge_series(
        self, bucket_counts: Sequence[int], sum_: float, count: int
    ) -> None:
        """Fold another series' cells into this one atomically."""
        with self._lock:
            for i, c in enumerate(bucket_counts):
                self.bucket_counts[i] += c
            self.sum += sum_
            self.count += count

    def snap(self) -> Tuple[Tuple[int, ...], float, int]:
        """Consistent ``(bucket_counts, sum, count)`` triple."""
        with self._lock:
            return tuple(self.bucket_counts), self.sum, self.count

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile of the observed distribution
        (see :func:`quantile_from_buckets`) — how ``stats()`` turns a
        latency histogram into p50/p99 numbers."""
        cells, _, _ = self.snap()
        return quantile_from_buckets(self.buckets, cells, q)


class MetricFamily:
    """All series of one metric name, keyed by label values.

    Obtain series with :meth:`labels`; a label-less family proxies the
    single unlabelled series' mutators directly (``family.inc(...)``).
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(float(b) for b in buckets)
        self._series: Dict[Tuple[str, ...], object] = {}
        # guards lazy series insertion and the snapshot iteration; two
        # threads racing labels() on a fresh key must not double-create
        # (one thread's increments would land on the orphaned instance)
        self._lock = threading.Lock()

    def _make(self) -> object:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets)

    def labels(self, **labels: str):
        """The series for one label-value combination (created lazily)."""
        if set(labels) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._make()
        return series

    # Label-less convenience proxies ----------------------------------- #
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    # Snapshot --------------------------------------------------------- #
    def snapshot(self) -> FamilySnapshot:
        with self._lock:
            items = sorted(self._series.items())
        series: List[SeriesSnapshot] = []
        for key, inst in items:
            if isinstance(inst, Histogram):
                bucket_counts, sum_, count = inst.snap()
                series.append(
                    SeriesSnapshot(
                        labels=key,
                        bucket_counts=bucket_counts,
                        sum=sum_,
                        count=count,
                    )
                )
            else:
                series.append(SeriesSnapshot(labels=key, value=inst.read()))  # type: ignore[union-attr]
        return FamilySnapshot(
            kind=self.kind,
            name=self.name,
            help=self.help,
            labelnames=self.labelnames,
            buckets=self.buckets if self.kind == "histogram" else (),
            series=tuple(series),
        )


class MetricsRegistry:
    """The one place metrics live for a run.

    Registration is idempotent: asking for an existing name returns the
    existing family, provided kind and label names agree (a mismatch
    raises :class:`~repro.errors.ObservabilityError` — silent type
    drift between producers is how metrics rot).
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        # guards the family dict: producers register lazily from worker
        # and caller threads alike (idempotent get-or-create races)
        self._lock = threading.Lock()

    # Registration ----------------------------------------------------- #
    def _register(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}; cannot re-register "
                        f"as {kind} with labels {tuple(labelnames)}"
                    )
                return existing
            family = MetricFamily(kind, name, help, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register("counter", name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register("histogram", name, help, labelnames, buckets)

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._families

    def family(self, name: str) -> MetricFamily:
        """The registered family called ``name``.

        Raises :class:`~repro.errors.ObservabilityError` for unknown
        names — reading a metric that nothing registered is a test or
        wiring bug, not an empty result.  (The resilience suites use
        this to assert on ``repro_resilience_*`` series without
        re-registering the families themselves.)
        """
        with self._lock:
            family = self._families.get(name)
            present = len(self._families)
        if family is None:
            raise ObservabilityError(
                f"no metric family named {name!r} is registered "
                f"({present} families present)"
            )
        return family

    # Snapshot / merge ------------------------------------------------- #
    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        return MetricsSnapshot(
            families=tuple(family.snapshot() for family in families)
        )

    @classmethod
    def from_snapshot(cls, snap: MetricsSnapshot) -> "MetricsRegistry":
        registry = cls()
        registry.merge_snapshot(snap)
        return registry

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold a (possibly remote) snapshot into this registry.

        Counters and histogram cells add; gauges take the snapshot's
        value.  This is how
        :meth:`ShardedDiffService.merged_registry
        <repro.service.frontend.ShardedDiffService.merged_registry>`
        reassembles worker metrics; merging the registries of row chunks
        gives the totals of one whole-image run.
        """
        for fam in snap.families:
            family = self._register(
                fam.kind, fam.name, fam.help, fam.labelnames,
                fam.buckets or DEFAULT_BUCKETS,
            )
            for series in fam.series:
                labels = dict(zip(fam.labelnames, series.labels))
                inst = family.labels(**labels)
                if fam.kind == "counter":
                    inst.inc(series.value)
                elif fam.kind == "gauge":
                    inst.set(series.value)
                else:
                    # bucket structure is fixed at construction, so the
                    # length check needs no lock; the cell merge itself
                    # runs atomically inside the series lock
                    if len(series.bucket_counts) != len(inst.bucket_counts):
                        raise ObservabilityError(
                            f"histogram {fam.name!r}: snapshot has "
                            f"{len(series.bucket_counts)} buckets, registry "
                            f"has {len(inst.bucket_counts)}"
                        )
                    inst.merge_series(
                        series.bucket_counts, series.sum, series.count
                    )

    # Exporters -------------------------------------------------------- #
    def to_json(self) -> Dict:
        """The machine-readable metrics document (see
        :func:`repro.obs.schema.validate_metrics_json`)."""
        metrics: List[Dict] = []
        for fam in self.snapshot().families:
            series: List[Dict] = []
            for s in fam.series:
                entry: Dict = {"labels": dict(zip(fam.labelnames, s.labels))}
                if fam.kind == "histogram":
                    entry["buckets"] = [
                        {"le": le, "count": c}
                        for le, c in zip(list(fam.buckets) + ["+Inf"], s.bucket_counts)
                    ]
                    entry["sum"] = s.sum
                    entry["count"] = s.count
                else:
                    entry["value"] = s.value
                series.append(entry)
            metrics.append(
                {
                    "name": fam.name,
                    "kind": fam.kind,
                    "help": fam.help,
                    "labelnames": list(fam.labelnames),
                    "series": series,
                }
            )
        return {"schema": "repro.metrics/v1", "metrics": metrics}

    def to_prometheus_text(self) -> str:
        """Prometheus textfile exposition format."""
        lines: List[str] = []
        for fam in self.snapshot().families:
            if fam.help:
                lines.append(f"# HELP {fam.name} {fam.help}")
            lines.append(f"# TYPE {fam.name} {fam.kind}")
            for s in fam.series:
                base = dict(zip(fam.labelnames, s.labels))
                if fam.kind == "histogram":
                    cumulative = 0
                    for le, c in zip(
                        [_format_value(b) for b in fam.buckets] + ["+Inf"],
                        s.bucket_counts,
                    ):
                        cumulative += c
                        lines.append(
                            f"{fam.name}_bucket"
                            f"{_format_labels({**base, 'le': le})} {cumulative}"
                        )
                    lines.append(
                        f"{fam.name}_sum{_format_labels(base)} "
                        f"{_format_value(s.sum)}"
                    )
                    lines.append(f"{fam.name}_count{_format_labels(base)} {s.count}")
                else:
                    lines.append(
                        f"{fam.name}{_format_labels(base)} {_format_value(s.value)}"
                    )
        return "\n".join(lines) + "\n"


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# --------------------------------------------------------------------- #
# The engine recording convention                                        #
# --------------------------------------------------------------------- #
def record_image_diff(registry: MetricsRegistry, engine: str, row_results) -> None:
    """Record one image differencing run under the standard metric names.

    Called by :func:`~repro.core.pipeline.diff_images` and
    :func:`~repro.core.api.row_diff` with the *same* names and labels
    for every run, so the merged snapshots of row chunks are directly
    comparable to (and must equal) one whole-image registry.  Only
    quantities that are invariant to chunking are recorded — ``n_cells``
    depends on the batch width, so it is deliberately absent.
    """
    rows = registry.counter(
        "repro_rows_total", "image rows differenced", ("engine",)
    )
    iters = registry.counter(
        "repro_iterations_total", "systolic iterations executed", ("engine",)
    )
    runs_out = registry.counter(
        "repro_output_runs_total",
        "raw runs produced (the paper's k3, pre-compaction)",
        ("engine",),
    )
    hist = registry.histogram(
        "repro_row_iterations",
        "per-row systolic iteration distribution",
        ("engine",),
        buckets=ITERATION_BUCKETS,
    )
    activity = registry.counter(
        "repro_activity_total",
        "cell activity events (swaps, moves, xor_splits, shifts, busy_cells)",
        ("engine", "counter"),
    )
    rows.labels(engine=engine).inc(len(row_results))
    row_iters = hist.labels(engine=engine)
    total_iters = iters.labels(engine=engine)
    total_runs = runs_out.labels(engine=engine)
    for result in row_results:
        row_iters.observe(result.iterations)
        total_iters.inc(result.iterations)
        total_runs.inc(result.result.run_count)
        for name, count in result.stats:
            activity.labels(engine=engine, counter=name).inc(count)
