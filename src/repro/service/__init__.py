"""Long-lived differencing service: cache + batcher behind one door.

The functional API (:func:`repro.core.api.row_diff`,
:func:`repro.core.pipeline.diff_images`) treats every call as new work.
This package is for the other deployment shape — a resident service fed
a stream of frames, where most content repeats:

- :mod:`repro.service.cache` — content-addressed LRU of row-diff
  results, keyed by BLAKE2b row fingerprints plus the semantic
  :meth:`~repro.core.options.DiffOptions.cache_key`, byte-budgeted,
  collision-safe (verbatim-input verification).
- :mod:`repro.service.batcher` — bounded request queue whose worker
  coalesces concurrent submissions into single
  :class:`~repro.core.batched.BatchedXorEngine` batches, with
  :class:`~repro.errors.ServiceOverloadError` backpressure.
- :mod:`repro.service.store` — the persistent tier under the LRU:
  :class:`RowStore`, a content-addressed directory of
  packbits-compressed, checksummed entry files with an append-only LRU
  index, single-writer locking and corruption quarantine; selected via
  ``DiffOptions(cache_dir=...)`` and survives process restarts.
- :mod:`repro.service.service` — the :class:`DiffService` facade tying
  the two together.
- :mod:`repro.service.lifecycle` — the request accounting every tier
  shares: ``request_*`` log records, latency histogram, SLO breaches.
- :mod:`repro.service.resilience` — :class:`ResilientDiffService`:
  deadlines, retries with jittered backoff, an error-rate circuit
  breaker, and degraded cache-only / load-shedding modes, all
  configured by one frozen :class:`ResiliencePolicy`.
- :mod:`repro.service.chaos` — seeded fault injection for the serving
  path (:class:`ChaosEngine` / :class:`ChaosSchedule`); every
  resilience behaviour is proven against reproducible fault schedules.
- :mod:`repro.service.shard` — consistent-hash routing of row
  fingerprints (:class:`ShardRing`), the builtin-typed wire codecs, and
  the worker process loop.
- :mod:`repro.service.frontend` — the multi-process serving tier:
  :class:`ShardedDiffService` (N resilient workers behind the ring),
  the asyncio TCP :class:`ShardedServer` (+ :class:`ServerThread`)
  speaking the versioned line-JSON protocol
  (:data:`~repro.service.frontend.PROTOCOL_VERSION`), and the blocking
  :class:`ShardClient`.
- :mod:`repro.service.stream` — streaming frame-delta sessions:
  :class:`StreamingDiffService` keeps per-session
  :class:`~repro.rle.delta.DeltaSequence` chains against
  cache-resident key frames and rekeys adaptively by measured diff
  density (:class:`StreamPolicy`); exposed through the sharded tier as
  the ``stream_open`` / ``stream_frame`` / ``stream_close`` /
  ``stream_stats`` ops, routed by session id on the ring.

Every tier serves through one bulk path, ``diff_rows``: its
``diff_images`` is ``diff_rows`` plus the shape check and image
assembly, ``row_diff`` queues one pair on the batcher instead (the
resilient tier awaits it against the deadline), and streaming sessions
call ``diff_images``.  The batcher's tick and the bulk request share one
serving step, :meth:`RowDiffBatcher.serve`.

See ``docs/API.md`` for the service contract, ``docs/RESILIENCE.md``
for the failure policies and breaker state machine, ``docs/SERVING.md``
for the sharded tier (routing, worker protocol, op vocabulary, failure
semantics), and ``docs/OBSERVABILITY.md`` for the ``repro_cache_*`` /
``repro_service_*`` / ``repro_resilience_*`` / ``repro_stream_*``
metric families.
"""

from repro.service.batcher import RowDiffBatcher, compute_row_diffs
from repro.service.cache import DiffCache, row_fingerprint
from repro.service.chaos import ChaosEngine, ChaosSchedule
from repro.service.frontend import (
    PROTOCOL_VERSION,
    ServerThread,
    ShardClient,
    ShardedDiffService,
    ShardedServer,
)
from repro.service.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilientDiffService,
    validate_result,
)
from repro.service.service import DiffService
from repro.service.shard import ShardRing
from repro.service.store import DEFAULT_DISK_BUDGET, RowStore
from repro.service.stream import (
    FrameDelta,
    StreamingDiffService,
    StreamPolicy,
    StreamSession,
)

__all__ = [
    "DiffService",
    "DiffCache",
    "RowStore",
    "DEFAULT_DISK_BUDGET",
    "RowDiffBatcher",
    "compute_row_diffs",
    "row_fingerprint",
    "ResilientDiffService",
    "ResiliencePolicy",
    "CircuitBreaker",
    "validate_result",
    "ChaosEngine",
    "ChaosSchedule",
    "ShardRing",
    "ShardedDiffService",
    "ShardedServer",
    "ServerThread",
    "ShardClient",
    "PROTOCOL_VERSION",
    "StreamPolicy",
    "StreamSession",
    "StreamingDiffService",
    "FrameDelta",
]
