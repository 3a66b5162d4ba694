"""Content-addressed row-diff caching.

The paper's whole premise is that compressed rows are *cheap to key and
compare*: a row is a short tuple list, so hashing it costs O(k) — tiny
next to even one systolic run — and identical rows are everywhere in
real workloads (static backgrounds between surveillance frames, golden
reference rows in PCB inspection, repeated scan lines in documents).
:class:`DiffCache` exploits that redundancy: results are keyed by
``(fingerprint(row_a), fingerprint(row_b), options)`` so *any* caller
presenting the same content gets the stored
:class:`~repro.core.machine.XorRunResult` back, byte-identical to a
fresh computation (asserted by the service invariant tests).

Correctness before speed: fingerprints are 128-bit BLAKE2b digests, but
the cache never *trusts* them — every entry stores the verbatim input
run pairs and a hit is only served after an exact comparison.  A
fingerprint collision therefore degrades to a counted miss
(``repro_cache_collisions_total``), never a wrong answer; the collision
tests inject a deliberately truncated fingerprint function to exercise
exactly that path.

Eviction is byte-budgeted LRU: every entry's footprint is estimated
from its run counts, and inserts evict least-recently-used entries
until the configured ``max_bytes`` is respected again.  Hits, misses,
evictions and collisions are counted only in a
:class:`~repro.obs.metrics.MetricsRegistry` (the caller's, or a private
one) under the ``repro_cache_*`` families, and :meth:`DiffCache.info`
reads them there (see ``docs/OBSERVABILITY.md``).

Since PR 10 the cache is optionally *two-tier*: give it a
:class:`~repro.service.store.RowStore` and it becomes read-through /
write-behind over disk.  A RAM miss probes the store (a valid disk
entry is promoted back into RAM and served as a hit), entries evicted
under the RAM byte budget are demoted to disk instead of discarded, and
:meth:`DiffCache.flush` demotes everything still resident — the service
calls it on close so a restarted process warms up from where the last
one left off.  The disk tier has its own corruption story (checksums,
quarantine — see :mod:`repro.service.store`); this class only ever sees
entries that already validated.

All operations are thread-safe — the batcher's worker thread and any
number of submitting threads share one cache.  Disk probes and demotion
writes happen *outside* the RAM lock, so slow IO never blocks
concurrent RAM hits.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.rle.row import RLERow
from repro.core.machine import XorRunResult
from repro.core.options import DiffOptions
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.store import RowStore

__all__ = ["row_fingerprint", "DiffCache", "CacheKey"]

#: Default cache budget: 32 MiB of estimated entry footprint.
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024

#: A cache key: the two content fingerprints plus the semantic options
#: key (:meth:`repro.core.options.DiffOptions.cache_key`).
CacheKey = Tuple[bytes, bytes, Tuple[str, Optional[int], bool, bool]]

#: Verbatim inputs stored for collision verification: the two rows'
#: run pairs and widths, as builtin tuples.
_Inputs = Tuple[Tuple[Tuple[int, int], ...], Optional[int], Tuple[Tuple[int, int], ...], Optional[int]]

#: Fixed per-entry overhead estimate (key, dict slot, dataclass, result
#: object shells) in bytes.
_ENTRY_OVERHEAD = 512

#: Estimated bytes per stored run: one (start, length) int pair in the
#: verbatim inputs or the result row, plus tuple/Run object overhead.
_RUN_BYTES = 96


def row_fingerprint(row: RLERow) -> bytes:
    """A 128-bit content digest of one RLE row.

    Covers the width and every ``(start, length)`` pair, so two rows
    fingerprint equal iff they are structurally identical (same runs,
    same declared width — ``None`` widths are distinguished from every
    concrete width).  O(k) in the run count: this is the "compressed
    rows are cheap to key" dividend the service layer is built on.
    """
    digest = blake2b(digest_size=16)
    width = -1 if row.width is None else row.width
    runs = row.runs
    flat = [0] * (2 * len(runs) + 1)
    flat[0] = width
    i = 1
    for run in runs:
        flat[i] = run.start
        flat[i + 1] = run.length
        i += 2
    digest.update(struct.pack(f"<{len(flat)}q", *flat))
    return digest.digest()


def _verbatim(row_a: RLERow, row_b: RLERow) -> _Inputs:
    return (
        tuple((r.start, r.length) for r in row_a.runs),
        row_a.width,
        tuple((r.start, r.length) for r in row_b.runs),
        row_b.width,
    )


@dataclass
class _CacheEntry:
    inputs: _Inputs
    result: XorRunResult
    nbytes: int


def _entry_nbytes(inputs: _Inputs, result: XorRunResult) -> int:
    runs = len(inputs[0]) + len(inputs[2]) + result.result.run_count
    return _ENTRY_OVERHEAD + _RUN_BYTES * runs


class DiffCache:
    """A byte-budgeted, content-addressed LRU of row-diff results.

    Parameters
    ----------
    max_bytes:
        Eviction budget for the *estimated* total entry footprint.
        Inserting past it evicts least-recently-used entries; a single
        entry larger than the whole budget is simply not stored (and
        counted as an eviction).
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the hit / miss /
        eviction / collision counters and the byte/entry gauges live in,
        under the ``repro_cache_*`` families labelled with this cache's
        ``name`` (a private registry when ``None``).  :meth:`info` and
        :attr:`hit_rate` read those series, so two caches of one
        ``name`` sharing a registry report their sum.
    fingerprint:
        Row digest function (default :func:`row_fingerprint`).  The
        tests inject deliberately colliding functions here; because
        entries verify verbatim inputs on every hit, a weak fingerprint
        only costs hit rate, never correctness.
    name:
        The ``cache`` label value used in the metric families.
    store:
        Optional :class:`~repro.service.store.RowStore` disk tier.
        When given, RAM misses probe it (read-through with promotion),
        RAM evictions demote into it (write-behind), and
        :meth:`invalidate` reaches through so a self-healed entry
        cannot be re-promoted.  The store is *used*, not owned — the
        caller (normally :class:`~repro.service.service.DiffService`)
        decides when to :meth:`flush` and close it.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        metrics: "Optional[MetricsRegistry]" = None,
        fingerprint: Optional[Callable[[RLERow], bytes]] = None,
        name: str = "row-diff",
        store: "Optional[RowStore]" = None,
    ) -> None:
        if max_bytes < 1:
            raise ServiceError(f"cache max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.name = name
        self._store = store
        self._fingerprint = fingerprint if fingerprint is not None else row_fingerprint
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, _CacheEntry]" = OrderedDict()
        self._bytes = 0
        # Counters are bumped and read under self._lock: info() and
        # hit_rate never pair a fresh hit count with a stale miss count.
        registry = metrics if metrics is not None else MetricsRegistry()
        labels = ("cache",)
        self._m_hits = registry.counter(
            "repro_cache_hits_total", "row-diff cache hits", labels
        ).labels(cache=name)
        self._m_misses = registry.counter(
            "repro_cache_misses_total", "row-diff cache misses", labels
        ).labels(cache=name)
        self._m_evictions = registry.counter(
            "repro_cache_evictions_total",
            "row-diff cache entries evicted under the byte budget",
            labels,
        ).labels(cache=name)
        self._m_collisions = registry.counter(
            "repro_cache_collisions_total",
            "fingerprint collisions detected by verbatim-input verification",
            labels,
        ).labels(cache=name)
        self._m_bytes = registry.gauge(
            "repro_cache_bytes", "estimated cached bytes", labels
        ).labels(cache=name)
        self._m_entries = registry.gauge(
            "repro_cache_entries", "live cache entries", labels
        ).labels(cache=name)

    # ------------------------------------------------------------------ #
    # Keys                                                               #
    # ------------------------------------------------------------------ #
    def key_for(self, row_a: RLERow, row_b: RLERow, options: DiffOptions) -> CacheKey:
        """The content-addressed key of one request — compute it once
        and pass it to :meth:`get` / :meth:`put` to avoid re-hashing."""
        return (
            self._fingerprint(row_a),
            self._fingerprint(row_b),
            options.cache_key(),
        )

    # ------------------------------------------------------------------ #
    # Lookup / store                                                     #
    # ------------------------------------------------------------------ #
    def get(
        self, key: CacheKey, row_a: RLERow, row_b: RLERow
    ) -> Optional[XorRunResult]:
        """The cached result for ``key``, or ``None``.

        The rows are required so the stored verbatim inputs can be
        compared — a fingerprint collision is counted and reported as a
        miss, never served.
        """
        inputs = _verbatim(row_a, row_b)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if entry.inputs != inputs:
                    self._m_collisions.inc()
                    self._m_misses.inc()
                    return None
                self._entries.move_to_end(key)
                self._m_hits.inc()
                return entry.result
            if self._store is None:
                self._m_misses.inc()
                return None
        # RAM miss with a disk tier: probe outside the lock (slow IO
        # must not serialize concurrent RAM hits).  The store validates
        # checksum, key and verbatim inputs itself — anything it
        # returns is promotable as-is.
        promoted = self._store.get(key, inputs)
        if promoted is None:
            with self._lock:
                self._m_misses.inc()
            return None
        self.put(key, row_a, row_b, promoted)
        with self._lock:
            self._m_hits.inc()
        return promoted

    def lookup(
        self, row_a: RLERow, row_b: RLERow, options: DiffOptions
    ) -> Optional[XorRunResult]:
        """Convenience: :meth:`key_for` + :meth:`get` in one call."""
        return self.get(self.key_for(row_a, row_b, options), row_a, row_b)

    def put(
        self, key: CacheKey, row_a: RLERow, row_b: RLERow, result: XorRunResult
    ) -> None:
        """Store ``result`` under ``key``, evicting LRU entries past the
        byte budget.  Idempotent: re-storing an existing key refreshes
        its recency and replaces the entry.

        With a disk tier attached, entries leaving RAM under byte
        pressure — including an entry too large to ever fit — are
        demoted to the store (write-behind) after the lock is released,
        so an eviction costs disk IO but never discards work."""
        inputs = _verbatim(row_a, row_b)
        nbytes = _entry_nbytes(inputs, result)
        demoted: "List[Tuple[CacheKey, _Inputs, XorRunResult]]" = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            if nbytes > self.max_bytes:
                # would evict the whole cache and still not fit
                self._m_evictions.inc()
                demoted.append((key, inputs, result))
                self._sync_gauges()
            else:
                self._entries[key] = _CacheEntry(inputs, result, nbytes)
                self._bytes += nbytes
                while self._bytes > self.max_bytes:
                    evicted_key, evicted = self._entries.popitem(last=False)
                    self._bytes -= evicted.nbytes
                    self._m_evictions.inc()
                    demoted.append((evicted_key, evicted.inputs, evicted.result))
                self._sync_gauges()
        if self._store is not None:
            for d_key, d_inputs, d_result in demoted:
                self._store.put(d_key, d_inputs, d_result)

    def store(
        self, row_a: RLERow, row_b: RLERow, options: DiffOptions, result: XorRunResult
    ) -> None:
        """Convenience: :meth:`key_for` + :meth:`put` in one call."""
        self.put(self.key_for(row_a, row_b, options), row_a, row_b, result)

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Estimated footprint of all live entries."""
        with self._lock:
            return self._bytes

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` over the cache's lifetime
        (``0.0`` before the first lookup), both read under the lock: a
        torn pair could report a rate above 1.0, and the CLI's
        ``--min-hit-rate`` gate trusts this number."""
        with self._lock:
            hits, misses = self._m_hits.read(), self._m_misses.read()
        seen = hits + misses
        return hits / seen if seen else 0.0

    def info(self) -> Dict[str, float]:
        """Counters and budget as one plain dict (for logs and the CLI),
        the counters read from their ``repro_cache_*`` series.  With a
        disk tier attached its ``disk_*`` counters are merged in (see
        :meth:`RowStore.info <repro.service.store.RowStore.info>`)."""
        with self._lock:
            hits, misses = self._m_hits.read(), self._m_misses.read()
            out = {
                "entries": float(len(self._entries)),
                "bytes": float(self._bytes),
                "max_bytes": float(self.max_bytes),
                "hits": hits,
                "misses": misses,
                "evictions": self._m_evictions.read(),
                "collisions": self._m_collisions.read(),
            }
        seen = hits + misses
        out["hit_rate"] = hits / seen if seen else 0.0
        if self._store is not None:
            out.update(self._store.info())
        return out

    def invalidate(self, key: CacheKey) -> bool:
        """Drop the entry stored under ``key``, if any.

        Returns whether an entry was removed.  Used by the resilience
        layer to self-heal: a cached result that fails structural
        validation (see :mod:`repro.service.resilience`) is invalidated
        and recomputed instead of being served again.  Counted as an
        eviction — the entry left under pressure, just not *byte*
        pressure.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            removed = False
            if entry is not None:
                removed = True
                self._bytes -= entry.nbytes
                self._m_evictions.inc()
                self._sync_gauges()
        # Reach through to the disk tier outside the lock: a corrupt
        # result must not be re-promoted on the next miss (the
        # resilience suite proves heal-once semantics through both
        # tiers).
        if self._store is not None:
            removed = self._store.invalidate(key) or removed
        return removed

    def clear(self) -> None:
        """Drop every RAM entry (counters are lifetime totals and
        remain).  The disk tier is untouched — ``clear`` sheds memory,
        it does not forget; use :meth:`invalidate` to purge a key from
        both tiers."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._sync_gauges()

    @property
    def row_store(self) -> "Optional[RowStore]":
        """The attached disk tier, if any (``store`` is already taken by
        the write-through convenience method)."""
        return self._store

    def flush(self) -> int:
        """Demote every RAM-resident entry to the disk tier.

        Returns how many entries the store accepted.  A no-op (``0``)
        without a store or with a read-only one.  Called by
        :meth:`DiffService.close <repro.service.service.DiffService.close>`
        so a clean shutdown persists the working set — that is what
        makes the next process's restart *warm*.  Entries are written
        in LRU→MRU order so the disk tier's own LRU ranks the hottest
        content as most recently used.
        """
        if self._store is None:
            return 0
        with self._lock:
            snapshot = [
                (key, entry.inputs, entry.result)
                for key, entry in self._entries.items()
            ]
        flushed = 0
        for key, inputs, result in snapshot:
            if self._store.put(key, inputs, result):
                flushed += 1
        return flushed

    def _sync_gauges(self) -> None:
        # caller holds the lock
        self._m_bytes.set(float(self._bytes))
        self._m_entries.set(float(len(self._entries)))
