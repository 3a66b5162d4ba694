"""Persistent content-addressed row store — the disk tier under
:class:`~repro.service.cache.DiffCache`.

The paper's premise is that the packed representation *is* the asset:
rows are short run lists, cheap to fingerprint, cheap to store.  The
RAM LRU exploits that within one process lifetime; this module extends
it across restarts.  A :class:`RowStore` is a directory of entry files,
each holding one cached :class:`~repro.core.machine.XorRunResult`
together with the verbatim input rows that produced it, addressed by a
digest of the same :class:`~repro.service.cache.CacheKey` the RAM tier
uses.  Rows are stored packbits-compressed (:mod:`repro.rle.packbits`)
when their run structure survives a bit-pattern round trip, and as raw
run pairs otherwise — the systolic output "is not always compressed as
much as possible" (adjacent runs are legal), and the service's
byte-identity contract means the store must reproduce even those
non-canonical runs exactly.

Correctness before speed, same creed as the RAM tier:

* every entry file carries a magic tag, its own key digest, the payload
  length and a BLAKE2b payload checksum — a flipped bit, truncated
  write or renamed file fails *closed*: the entry is moved to
  ``quarantine/``, counted (``repro_cache_disk_quarantined_total``,
  ``cache_quarantine`` log event) and reported as a miss, never served;
* the payload stores the verbatim input run pairs, and a hit is only
  served after an exact comparison — a fingerprint collision on disk
  degrades to a counted miss exactly like in RAM;
* results carrying a live trace recorder are never persisted (counted
  as ``skipped``) — a trace is a debugging artifact of one process, not
  content.

Durability is write-behind and crash-tolerant rather than transactional:
entry files are written to a temp name and atomically renamed, and the
LRU order + byte accounting live in an append-only ``index.log`` that
is replayed on open and reconciled against the actual directory
contents (files without index lines are adopted; index lines without
files are dropped).  A single-writer ``LOCK`` file (``flock``) makes
sharing safe: the first opener owns writes, later openers degrade to
read-only sharing — they serve hits but never touch the index, so N
shard workers can point at one directory (or partition it, as the
sharded front-end does with per-worker subdirectories) without
corrupting each other.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import OrderedDict
from hashlib import blake2b
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

try:  # pragma: no cover - POSIX everywhere we run
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    _fcntl = None  # type: ignore[assignment]

from repro.errors import FormatError, ServiceError
from repro.core.machine import XorRunResult
from repro.rle import packbits
from repro.rle.row import RLERow
from repro.obs.metrics import MetricsRegistry
from repro.systolic.stats import ActivityStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.log import StructuredLog
    from repro.service.cache import CacheKey, _Inputs

__all__ = [
    "DEFAULT_DISK_BUDGET",
    "STORE_MAGIC",
    "RowStore",
    "encode_entry",
    "decode_entry",
    "entry_digest",
]

#: Default on-disk byte budget: 256 MiB of entry files.
DEFAULT_DISK_BUDGET = 256 * 1024 * 1024

#: Entry-file magic tag ("Repro Store Entry, format 1").
STORE_MAGIC = b"RSE1"

#: Fixed header layout after the magic: key digest (16), payload length
#: (u64), payload checksum (16).
_HEADER = struct.Struct("<16sQ16s")

#: Row payload modes: packbits over the bit pattern, or raw run pairs.
_MODE_PACKBITS = 0
_MODE_PAIRS = 1

#: Compact the append-only index when it holds this many times more
#: lines than live entries (and at least ``_COMPACT_MIN`` lines).
_COMPACT_FACTOR = 8
_COMPACT_MIN = 1024

_Pairs = Tuple[Tuple[int, int], ...]


# --------------------------------------------------------------------- #
# Entry codec                                                           #
# --------------------------------------------------------------------- #
def _encode_key(key: "CacheKey") -> bytes:
    fp_a, fp_b, (engine, n_cells, paranoid, record_trace) = key
    name = engine.encode("ascii")
    return (
        fp_a
        + fp_b
        + struct.pack("<B", len(name))
        + name
        + struct.pack(
            "<qBB",
            -1 if n_cells is None else n_cells,
            int(paranoid),
            int(record_trace),
        )
    )


def _decode_key(data: bytes, off: int) -> Tuple["CacheKey", int]:
    fp_a = data[off : off + 16]
    fp_b = data[off + 16 : off + 32]
    if len(fp_b) != 16:
        raise FormatError("store entry truncated inside the cache key")
    off += 32
    (name_len,) = struct.unpack_from("<B", data, off)
    off += 1
    engine = data[off : off + name_len].decode("ascii")
    off += name_len
    n_cells, paranoid, record_trace = struct.unpack_from("<qBB", data, off)
    off += struct.calcsize("<qBB")
    key: "CacheKey" = (
        fp_a,
        fp_b,
        (engine, None if n_cells < 0 else n_cells, bool(paranoid), bool(record_trace)),
    )
    return key, off


def _pairs_reconstructible_from_bits(pairs: _Pairs, width: Optional[int]) -> bool:
    """Whether packbits (a bit-pattern codec) can round-trip ``pairs``
    exactly.  Adjacent or unsorted runs collapse under a bit round trip
    — those rows must travel as raw pairs to keep byte identity."""
    if width is None:
        return False
    next_free = 0  # earliest start the next run may use, keeping a gap
    for start, length in pairs:
        if length < 1 or start < next_free or start + length > width:
            return False
        # from_bits merges touching runs, so demand a 1-column gap
        next_free = start + length + 1
    return True


def _encode_rle(pairs: _Pairs, width: Optional[int]) -> bytes:
    out = bytearray(struct.pack("<q", -1 if width is None else width))
    if _pairs_reconstructible_from_bits(pairs, width):
        packed = packbits.encode_row(RLERow.from_pairs(pairs, width=width))
        out += struct.pack("<BI", _MODE_PACKBITS, len(packed))
        out += packed
        return bytes(out)
    out += struct.pack("<BI", _MODE_PAIRS, len(pairs))
    for start, length in pairs:
        out += struct.pack("<qq", start, length)
    return bytes(out)


def _decode_rle(data: bytes, off: int) -> Tuple[_Pairs, Optional[int], int]:
    (raw_width,) = struct.unpack_from("<q", data, off)
    off += 8
    width: Optional[int] = None if raw_width < 0 else raw_width
    mode, count = struct.unpack_from("<BI", data, off)
    off += struct.calcsize("<BI")
    if mode == _MODE_PACKBITS:
        if width is None:
            raise FormatError("packbits-mode row without a width")
        packed = data[off : off + count]
        if len(packed) != count:
            raise FormatError("store entry truncated inside a packbits row")
        off += count
        row = packbits.decode_row(bytes(packed), width)
        return tuple(row.to_pairs()), width, off
    if mode != _MODE_PAIRS:
        raise FormatError(f"unknown row mode {mode} in store entry")
    need = 16 * count
    if len(data) - off < need:
        raise FormatError("store entry truncated inside a run-pair row")
    pairs: List[Tuple[int, int]] = []
    for _ in range(count):
        start, length = struct.unpack_from("<qq", data, off)
        off += 16
        pairs.append((start, length))
    return tuple(pairs), width, off


def encode_entry(key: "CacheKey", inputs: "_Inputs", result: XorRunResult) -> bytes:
    """One cache entry as a self-validating byte blob.

    Layout: ``RSE1`` magic, then a fixed header (key digest, payload
    length, BLAKE2b-128 payload checksum), then the payload — the full
    cache key, the two verbatim input rows, the result row (packbits
    when bit-reconstructible, raw pairs otherwise) and the run metadata
    (iterations, k1, k2, n_cells, activity counters).
    """
    pairs_a, width_a, pairs_b, width_b = inputs
    payload = bytearray(_encode_key(key))
    payload += _encode_rle(pairs_a, width_a)
    payload += _encode_rle(pairs_b, width_b)
    payload += _encode_rle(tuple(result.result.to_pairs()), result.result.width)
    payload += struct.pack(
        "<qqqq", result.iterations, result.k1, result.k2, result.n_cells
    )
    items = result.stats.items()
    payload += struct.pack("<I", len(items))
    for name, value in items:
        encoded = name.encode("utf-8")
        payload += struct.pack("<H", len(encoded)) + encoded + struct.pack("<q", value)
    blob = bytes(payload)
    checksum = blake2b(blob, digest_size=16).digest()
    return STORE_MAGIC + _HEADER.pack(entry_digest(key), len(blob), checksum) + blob


def decode_entry(blob: bytes) -> Tuple["CacheKey", "_Inputs", XorRunResult]:
    """Validate and decode :func:`encode_entry` output.

    Raises :class:`~repro.errors.FormatError` on any structural damage:
    bad magic, short header, length mismatch, checksum mismatch, or a
    payload that does not parse.  Callers quarantine on that signal.
    """
    if blob[:4] != STORE_MAGIC:
        raise FormatError("store entry has a bad magic tag")
    if len(blob) < 4 + _HEADER.size:
        raise FormatError("store entry shorter than its header")
    digest, length, checksum = _HEADER.unpack_from(blob, 4)
    payload = blob[4 + _HEADER.size :]
    if len(payload) != length:
        raise FormatError(
            f"store entry payload is {len(payload)} bytes, header says {length}"
        )
    if blake2b(payload, digest_size=16).digest() != checksum:
        raise FormatError("store entry payload checksum mismatch")
    try:
        key, off = _decode_key(payload, 0)
        pairs_a, width_a, off = _decode_rle(payload, off)
        pairs_b, width_b, off = _decode_rle(payload, off)
        pairs_r, width_r, off = _decode_rle(payload, off)
        iterations, k1, k2, n_cells = struct.unpack_from("<qqqq", payload, off)
        off += 32
        (n_items,) = struct.unpack_from("<I", payload, off)
        off += 4
        items: List[Tuple[str, int]] = []
        for _ in range(n_items):
            (name_len,) = struct.unpack_from("<H", payload, off)
            off += 2
            name = payload[off : off + name_len].decode("utf-8")
            off += name_len
            (value,) = struct.unpack_from("<q", payload, off)
            off += 8
            items.append((name, value))
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"store entry payload does not parse: {exc}") from exc
    if entry_digest(key) != digest:
        raise FormatError("store entry key does not match its header digest")
    inputs: "_Inputs" = (pairs_a, width_a, pairs_b, width_b)
    result = XorRunResult(
        result=RLERow.from_pairs(pairs_r, width=width_r),
        iterations=iterations,
        k1=k1,
        k2=k2,
        n_cells=n_cells,
        stats=ActivityStats.from_items(items),
    )
    return key, inputs, result


def entry_digest(key: "CacheKey") -> bytes:
    """The 128-bit address of one cache key — the entry's file name."""
    return blake2b(_encode_key(key), digest_size=16).digest()


# --------------------------------------------------------------------- #
# The store                                                             #
# --------------------------------------------------------------------- #
class RowStore:
    """A byte-budgeted, content-addressed directory of row-diff results.

    Parameters
    ----------
    directory:
        The store root (created if missing).  Layout: ``objects/<xx>/``
        fanout of entry files, ``index.log`` (append-only LRU journal),
        ``LOCK`` (single-writer flock), ``quarantine/`` (corrupt files,
        kept for inspection, never re-served).
    max_bytes:
        On-disk budget over the summed entry-file sizes.  Inserting
        past it evicts least-recently-used entries (files unlinked,
        ``evict`` journaled).
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the counters and
        gauges live in, under the ``repro_cache_disk_*`` families
        labelled with ``name`` (a private registry when ``None``).
        :meth:`info` reads its ``disk_*`` counters from those series.
    name:
        The ``store`` label value used in the metric families.
    log:
        Optional :class:`~repro.obs.log.StructuredLog` for the
        ``cache_warm`` (entries adopted at open) and
        ``cache_quarantine`` (corrupt entry sidelined) events.

    A store that failed to take the writer lock still *reads* (it can
    probe and serve entries, adopting files it discovers) but silently
    refuses writes, eviction and quarantine moves — check
    :attr:`writable`.  All public methods are thread-safe.
    """

    def __init__(
        self,
        directory: str,
        max_bytes: int = DEFAULT_DISK_BUDGET,
        metrics: "Optional[MetricsRegistry]" = None,
        name: str = "row-diff",
        log: "Optional[StructuredLog]" = None,
    ) -> None:
        if max_bytes < 1:
            raise ServiceError(f"store max_bytes must be >= 1, got {max_bytes}")
        self.directory = os.path.abspath(directory)
        self.max_bytes = max_bytes
        self.name = name
        self._log = log
        self._lock = threading.Lock()
        self._objects = os.path.join(self.directory, "objects")
        self._quarantine_dir = os.path.join(self.directory, "quarantine")
        self._index_path = os.path.join(self.directory, "index.log")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._quarantine_dir, exist_ok=True)
        # Counters without a metric series of their own.
        self.skipped = 0
        self.errors = 0
        self._closed = False
        self._bytes = 0
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._tombstones: Set[str] = set()
        self._index_lines = 0
        self._lock_fd = self._acquire_writer_lock()
        self._init_metrics(metrics)
        with self._lock:
            self._replay_index()
            self.warm_entries = len(self._index)
            self._sync_gauges()
        if self._log is not None:
            self._log.log(
                "cache_warm",
                level="info",
                store=self.name,
                entries=self.warm_entries,
                bytes=self.total_bytes,
                writable=self.writable,
            )

    # -- open/close ---------------------------------------------------- #
    def _acquire_writer_lock(self) -> Optional[int]:
        path = os.path.join(self.directory, "LOCK")
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        if _fcntl is None:  # pragma: no cover - non-POSIX
            return fd
        try:
            _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return None
        return fd

    @property
    def writable(self) -> bool:
        """Whether this process holds the single-writer lock."""
        with self._lock:
            return self._writable_locked()

    def _writable_locked(self) -> bool:
        return self._lock_fd is not None and not self._closed

    def close(self) -> None:
        """Release the writer lock (idempotent).  Reads and writes after
        close are refused (writes silently, reads as misses)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._lock_fd is not None:
                if _fcntl is not None:
                    _fcntl.flock(self._lock_fd, _fcntl.LOCK_UN)
                os.close(self._lock_fd)
                self._lock_fd = None

    def __enter__(self) -> "RowStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- index --------------------------------------------------------- #
    def _replay_index(self) -> None:
        """Rebuild LRU order and byte accounting from the journal, then
        reconcile against what is actually on disk."""
        try:
            with open(self._index_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    parts = line.strip().split()
                    if len(parts) < 2:
                        continue  # torn tail from a crash — ignore
                    op, digest = parts[0], parts[1]
                    if op == "put" and len(parts) == 3 and parts[2].isdigit():
                        old = self._index.pop(digest, None)
                        if old is not None:
                            self._bytes -= old
                        self._index[digest] = int(parts[2])
                        self._bytes += int(parts[2])
                    elif op == "touch":
                        if digest in self._index:
                            self._index.move_to_end(digest)
                    elif op in ("evict", "quarantine"):
                        old = self._index.pop(digest, None)
                        if old is not None:
                            self._bytes -= old
                    self._index_lines += 1
        except OSError:
            pass
        # drop index entries whose files vanished; adopt orphan files
        on_disk: Dict[str, int] = {}
        try:
            for fan in os.scandir(self._objects):
                if not fan.is_dir():
                    continue
                for entry in os.scandir(fan.path):
                    if entry.is_file():
                        on_disk[entry.name] = entry.stat().st_size
        except OSError:
            pass
        for digest in [d for d in self._index if d not in on_disk]:
            self._bytes -= self._index.pop(digest)
        for digest, size in sorted(on_disk.items()):
            if digest not in self._index:
                self._index[digest] = size
                self._bytes += size
            elif self._index[digest] != size:
                self._bytes += size - self._index[digest]
                self._index[digest] = size
        if self._writable_locked():
            self._maybe_compact_locked(force=self._index_lines > len(self._index))

    def _append_index(self, op: str, digest: str, nbytes: Optional[int] = None) -> None:
        # caller holds self._lock and has checked writable
        line = f"{op} {digest} {nbytes}\n" if nbytes is not None else f"{op} {digest}\n"
        try:
            with open(self._index_path, "a", encoding="utf-8") as fh:
                fh.write(line)
        except OSError:
            self.errors += 1
        self._index_lines += 1
        self._maybe_compact_locked()

    def _maybe_compact_locked(self, force: bool = False) -> None:
        if not self._writable_locked():
            return
        threshold = max(_COMPACT_MIN, _COMPACT_FACTOR * max(1, len(self._index)))
        if not force and self._index_lines < threshold:
            return
        tmp = self._index_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for digest, nbytes in self._index.items():
                    fh.write(f"put {digest} {nbytes}\n")
            os.replace(tmp, self._index_path)
            self._index_lines = len(self._index)
        except OSError:
            self.errors += 1

    # -- paths --------------------------------------------------------- #
    def _path_for(self, digest_hex: str) -> str:
        return os.path.join(self._objects, digest_hex[:2], digest_hex)

    # -- read path ----------------------------------------------------- #
    def get(self, key: "CacheKey", inputs: "_Inputs") -> Optional[XorRunResult]:
        """The stored result for ``key``, or ``None``.

        ``inputs`` are the requesting rows' verbatim run pairs — a hit
        is only served after they compare equal to the stored ones.
        Any structural damage (bad magic/length/checksum, unparseable
        payload, or a payload whose key disagrees with the file's
        address — the stale-fingerprint case) quarantines the file and
        reports a miss: a corrupt disk can cost hit rate, never bytes.
        """
        digest_hex = entry_digest(key).hex()
        with self._lock:
            if self._closed or digest_hex in self._tombstones:
                self._m_misses.inc()
                return None
            path = self._path_for(digest_hex)
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError:
                # unknown to the filesystem: a plain miss (drop any
                # stale index line so accounting follows reality)
                old = self._index.pop(digest_hex, None)
                if old is not None:
                    self._bytes -= old
                    if self._writable_locked():
                        self._append_index("evict", digest_hex)
                self._m_misses.inc()
                self._sync_gauges()
                return None
            try:
                stored_key, stored_inputs, result = decode_entry(blob)
            except FormatError as exc:
                self._quarantine_locked(digest_hex, path, str(exc))
                self._m_misses.inc()
                self._sync_gauges()
                return None
            if stored_key != key:
                self._quarantine_locked(
                    digest_hex, path, "stale entry: stored key differs from address"
                )
                self._m_misses.inc()
                self._sync_gauges()
                return None
            if stored_inputs != inputs:
                self._m_collisions.inc()
                self._m_misses.inc()
                return None
            # adopt files another writer produced after our replay
            if digest_hex not in self._index:
                self._index[digest_hex] = len(blob)
                self._bytes += len(blob)
                if self._writable_locked():
                    self._append_index("put", digest_hex, len(blob))
            else:
                self._index.move_to_end(digest_hex)
                if self._writable_locked():
                    self._append_index("touch", digest_hex)
            self._m_hits.inc()
            self._sync_gauges()
            return result

    def contains(self, key: "CacheKey") -> bool:
        """Whether an entry file exists for ``key`` (no validation)."""
        digest_hex = entry_digest(key).hex()
        with self._lock:
            if self._closed or digest_hex in self._tombstones:
                return False
            return digest_hex in self._index or os.path.exists(
                self._path_for(digest_hex)
            )

    # -- write path ---------------------------------------------------- #
    def put(self, key: "CacheKey", inputs: "_Inputs", result: XorRunResult) -> bool:
        """Persist one entry; returns whether it landed on disk.

        Refused (``False``, counted) when the store is read-only or
        closed, when the result carries a live trace recorder, or when
        the encoded entry alone exceeds the whole byte budget.  LRU
        entries are evicted (files unlinked) until the budget holds.
        """
        if result.trace is not None:
            with self._lock:
                self.skipped += 1
            return False
        digest_hex = entry_digest(key).hex()
        blob = encode_entry(key, inputs, result)
        with self._lock:
            if not self._writable_locked():
                self.skipped += 1
                return False
            if len(blob) > self.max_bytes:
                self.skipped += 1
                return False
            self._tombstones.discard(digest_hex)
            path = self._path_for(digest_hex)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = path + ".tmp"
            try:
                with open(tmp, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except OSError:
                self.errors += 1
                return False
            old = self._index.pop(digest_hex, None)
            if old is not None:
                self._bytes -= old
            self._index[digest_hex] = len(blob)
            self._bytes += len(blob)
            self._m_writes.inc()
            self._append_index("put", digest_hex, len(blob))
            while self._bytes > self.max_bytes and len(self._index) > 1:
                victim, nbytes = self._index.popitem(last=False)
                self._bytes -= nbytes
                try:
                    os.unlink(self._path_for(victim))
                except OSError:
                    pass
                self._m_evictions.inc()
                self._append_index("evict", victim)
            self._sync_gauges()
            return True

    def invalidate(self, key: "CacheKey") -> bool:
        """Drop the entry stored under ``key``, if any.

        The resilience layer's self-heal calls this through
        :meth:`DiffCache.invalidate <repro.service.cache.DiffCache.invalidate>`
        so a structurally-rotten result cannot be re-promoted from disk
        on the next miss.  Read-only stores cannot unlink another
        writer's files; they tombstone the key locally instead, which
        protects this process just the same.
        """
        digest_hex = entry_digest(key).hex()
        with self._lock:
            if self._closed:
                return False
            old = self._index.pop(digest_hex, None)
            if old is not None:
                self._bytes -= old
            existed = old is not None
            if self._writable_locked():
                try:
                    os.unlink(self._path_for(digest_hex))
                    existed = True
                except OSError:
                    pass
                if existed:
                    self._append_index("evict", digest_hex)
            else:
                self._tombstones.add(digest_hex)
            if existed:
                self._m_evictions.inc()
            self._sync_gauges()
            return existed

    # -- quarantine ---------------------------------------------------- #
    def _quarantine_locked(self, digest_hex: str, path: str, reason: str) -> None:
        old = self._index.pop(digest_hex, None)
        if old is not None:
            self._bytes -= old
        self._tombstones.add(digest_hex)
        if self._writable_locked():
            try:
                os.replace(
                    path, os.path.join(self._quarantine_dir, digest_hex)
                )
            except OSError:
                self.errors += 1
            self._append_index("quarantine", digest_hex)
        self._m_quarantined.inc()
        if self._log is not None:
            self._log.log(
                "cache_quarantine",
                level="warning",
                store=self.name,
                digest=digest_hex,
                reason=reason,
            )

    # -- metrics ------------------------------------------------------- #
    def _init_metrics(self, metrics: "Optional[MetricsRegistry]") -> None:
        registry = metrics if metrics is not None else MetricsRegistry()
        labels = ("store",)
        self._m_hits = registry.counter(
            "repro_cache_disk_hits_total", "disk-tier cache hits", labels
        ).labels(store=self.name)
        self._m_misses = registry.counter(
            "repro_cache_disk_misses_total", "disk-tier cache misses", labels
        ).labels(store=self.name)
        self._m_writes = registry.counter(
            "repro_cache_disk_writes_total", "entries persisted to disk", labels
        ).labels(store=self.name)
        self._m_evictions = registry.counter(
            "repro_cache_disk_evictions_total",
            "disk entries evicted under the byte budget or invalidated",
            labels,
        ).labels(store=self.name)
        self._m_quarantined = registry.counter(
            "repro_cache_disk_quarantined_total",
            "corrupt disk entries sidelined to quarantine/",
            labels,
        ).labels(store=self.name)
        self._m_collisions = registry.counter(
            "repro_cache_disk_collisions_total",
            "fingerprint collisions detected by verbatim-input verification",
            labels,
        ).labels(store=self.name)
        self._m_bytes = registry.gauge(
            "repro_cache_disk_bytes", "bytes of live entry files", labels
        ).labels(store=self.name)
        self._m_entries = registry.gauge(
            "repro_cache_disk_entries", "live disk entries", labels
        ).labels(store=self.name)

    def _sync_gauges(self) -> None:
        # caller holds the lock (or is the constructor)
        self._m_bytes.set(float(self._bytes))
        self._m_entries.set(float(len(self._index)))

    # -- introspection ------------------------------------------------- #
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def total_bytes(self) -> int:
        """Summed size of all live entry files."""
        with self._lock:
            return self._bytes

    def info(self) -> Dict[str, float]:
        """Counters and budget as one plain dict (for logs and the CLI),
        the counters read from their ``repro_cache_disk_*`` series."""
        with self._lock:
            return {
                "disk_entries": float(len(self._index)),
                "disk_bytes": float(self._bytes),
                "disk_max_bytes": float(self.max_bytes),
                "disk_hits": self._m_hits.read(),
                "disk_misses": self._m_misses.read(),
                "disk_writes": self._m_writes.read(),
                "disk_evictions": self._m_evictions.read(),
                "disk_quarantined": self._m_quarantined.read(),
                "disk_collisions": self._m_collisions.read(),
                "disk_skipped": float(self.skipped),
                "disk_errors": float(self.errors),
                "disk_warm_entries": float(self.warm_entries),
                "disk_writable": float(self._writable_locked()),
            }
