"""Streaming frame-delta sessions: the temporal serving surface.

The one-shot ``diff_rows`` vocabulary treats every request as new work:
the caller ships *two* full frames over the wire and gets one XOR back.
Video and sensor streams are the other shape entirely — consecutive
frames are nearly identical, so the natural unit is a *session*: the
server keeps the previous frame resident (its rows hot in the
content-addressed :class:`~repro.service.cache.DiffCache`), the client
ships only the newest frame, and the reply is the tiny XOR delta.  The
paper's decompression-free XOR is exactly this change detector, and the
delta chain it produces (:class:`~repro.rle.delta.DeltaSequence`) *is*
the compressed recording: key frame + deltas, random access by prefix
XOR (Theorem 3 associativity), never a decompressed bitmap between hops.

:class:`StreamingDiffService` manages the sessions:

* every appended frame is diffed against the session tail **through the
  underlying diff service** (:class:`~repro.service.DiffService` or
  :class:`~repro.service.resilience.ResilientDiffService`), so caching,
  batching, deadlines, retries and breaker admission all apply to the
  streaming path unchanged — a breaker-open worker sheds
  ``stream_frame`` with the same typed
  :class:`~repro.errors.ServiceOverloadError` as any other op;
* key frames are picked **adaptively from measured diff density**: when
  the runs accumulated in the chain since the last key exceed
  ``rekey_ratio`` times the key frame's own runs (or the chain hits
  ``max_chain``), the session rekeys on the newest frame — static
  scenes keep one key forever, a scene cut rekeys immediately;
* accounting lands in the ``repro_stream_*`` metric families and the
  structured log (``stream_opened`` / ``stream_rekey`` /
  ``stream_closed`` events), keyed by the session id that also serves
  as every stream request's trace ``parent_id``
  (:class:`~repro.obs.context.RequestContext`).

In the sharded tier a session lives on exactly one shard — the
front-end routes by session id on the consistent-hash ring (see
:meth:`repro.service.frontend.ShardedDiffService.stream_open`), so the
session's key frame rows stay hot in that one worker's cache.  The wire
codecs at the bottom of this module follow the builtin-types-only
discipline of :mod:`repro.service.shard` (rule RLE103 covers this
module too).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import (
    GeometryError,
    ServiceError,
    UnknownSessionError,
)
from repro.rle.delta import DeltaSequence
from repro.rle.image import RLEImage
from repro.obs.context import new_request_id
from repro.obs.metrics import MetricsRegistry
from repro.service.resilience import ResilientDiffService
from repro.service.service import DiffService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.log import StructuredLog

__all__ = [
    "StreamPolicy",
    "FrameDelta",
    "StreamSession",
    "StreamingDiffService",
    "ImageWire",
    "FrameDeltaWire",
    "StreamPolicyWire",
    "encode_image",
    "decode_image",
    "encode_frame_delta",
    "decode_frame_delta",
    "encode_stream_policy",
    "decode_stream_policy",
]

#: The diff backends a streaming service can sit on.  Both expose
#: ``diff_images(..., request_id=)`` and stamp the id on their
#: structured-log events.
DiffBackend = Union[DiffService, ResilientDiffService]


@dataclass(frozen=True)
class StreamPolicy:
    """When a session replaces its key frame, as one frozen value.

    The decision input is *measured diff density*: every appended delta
    adds its run count to the chain's total, and the chain rekeys when
    that total crosses ``rekey_ratio`` times the current key frame's
    run count.  A static scene (deltas near zero runs) never rekeys; a
    scene cut (delta as big as the frame) rekeys on the spot.
    ``max_chain`` bounds chain length regardless, so prefix-XOR random
    access and replay-from-key stay O(``max_chain``).
    """

    #: Rekey when ``delta runs since key > rekey_ratio * key runs``.
    rekey_ratio: float = 1.0
    #: Hard cap on deltas per key frame (>= 1).
    max_chain: int = 64

    def __post_init__(self) -> None:
        if not self.rekey_ratio > 0.0:  # NaN fails this too
            raise ServiceError(
                f"rekey_ratio must be > 0, got {self.rekey_ratio}"
            )
        if self.max_chain < 1:
            raise ServiceError(
                f"max_chain must be >= 1, got {self.max_chain}"
            )


@dataclass(frozen=True)
class FrameDelta:
    """What one appended frame cost and produced.

    ``delta`` is what crosses the wire back to the caller: the full
    frame for the opening key frame (``frame_index`` 0), the XOR delta
    against the previous frame otherwise.  ``rekeyed`` reports that the
    *server-side chain* replaced its key frame with this frame — the
    client's decode is unaffected (deltas always chain frame-to-frame),
    but a subscriber joining now would start from this key.
    """

    frame_index: int
    delta: RLEImage
    rekeyed: bool
    #: Runs in ``delta`` (the shipped payload size, in paper units).
    delta_runs: int
    #: Runs in the session's current key frame.
    key_runs: int


class StreamSession:
    """One client's delta chain: key frame, deltas, and rekey state.

    All mutation happens under the instance lock — the TCP executor may
    dispatch two ``stream_frame`` requests for the same session from
    different threads, and the chain append + rekey decision must be
    atomic per frame.
    """

    def __init__(self, session_id: str, policy: StreamPolicy) -> None:
        self.session_id = session_id
        self.policy = policy
        self._lock = threading.Lock()
        self._sequence: Optional[DeltaSequence] = None
        self._frames = 0
        self._rekeys = 0
        self._raw_runs = 0
        self._shipped_runs = 0
        self._delta_runs_since_key = 0

    # ------------------------------------------------------------------ #
    @property
    def tail(self) -> Optional[RLEImage]:
        """The most recent decoded frame (``None`` before any frame)."""
        with self._lock:
            if self._sequence is None:
                return None
            return self._sequence.frame(len(self._sequence) - 1)

    def frame(self, t: int) -> RLEImage:
        """Random access into the *current chain* (prefix XOR from the
        key frame); ``t`` counts from the current key, not from the
        session's first frame."""
        with self._lock:
            if self._sequence is None:
                raise UnknownSessionError(
                    f"session {self.session_id!r} holds no frames yet"
                )
            return self._sequence.frame(t)

    def chain_len(self) -> int:
        with self._lock:
            return 0 if self._sequence is None else len(self._sequence)

    # ------------------------------------------------------------------ #
    def open_key(self, frame: RLEImage) -> FrameDelta:
        """Record the opening frame (it is its own key and its own
        shipped payload)."""
        with self._lock:
            if self._sequence is not None:
                raise ServiceError(
                    f"session {self.session_id!r} already holds a key frame"
                )
            self._sequence = DeltaSequence([frame])
            self._frames = 1
            self._raw_runs = frame.total_runs
            self._shipped_runs = frame.total_runs
            self._delta_runs_since_key = 0
            return FrameDelta(
                frame_index=0,
                delta=frame,
                rekeyed=True,
                delta_runs=frame.total_runs,
                key_runs=frame.total_runs,
            )

    def append_delta(self, frame: RLEImage, delta: RLEImage) -> FrameDelta:
        """Append one computed delta and apply the rekey policy.

        ``frame`` is the decoded new tail (the caller already holds it
        — it *sent* it); ``delta`` is the XOR against the previous
        tail.  Returns the :class:`FrameDelta` describing the append.
        """
        with self._lock:
            if self._sequence is None:
                raise ServiceError(
                    f"session {self.session_id!r} has no key frame yet"
                )
            self._sequence.append_delta(delta)
            index = self._frames
            self._frames += 1
            self._raw_runs += frame.total_runs
            self._shipped_runs += delta.total_runs
            self._delta_runs_since_key += delta.total_runs
            key_runs = self._sequence.key.total_runs
            rekeyed = (
                self._delta_runs_since_key
                > self.policy.rekey_ratio * key_runs
                or len(self._sequence) > self.policy.max_chain
            )
            if rekeyed:
                self._sequence = self._sequence.rekey(
                    len(self._sequence) - 1
                )
                self._rekeys += 1
                self._delta_runs_since_key = 0
                key_runs = self._sequence.key.total_runs
            return FrameDelta(
                frame_index=index,
                delta=delta,
                rekeyed=rekeyed,
                delta_runs=delta.total_runs,
                key_runs=key_runs,
            )

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, float]:
        """Counters as plain floats (wire- and JSON-safe)."""
        with self._lock:
            chain = 0 if self._sequence is None else len(self._sequence)
            key_runs = (
                0 if self._sequence is None else self._sequence.key.total_runs
            )
            shipped = self._shipped_runs
            return {
                "frames": float(self._frames),
                "rekeys": float(self._rekeys),
                "chain_len": float(chain),
                "key_runs": float(key_runs),
                "raw_runs": float(self._raw_runs),
                "shipped_runs": float(shipped),
                "delta_runs_since_key": float(self._delta_runs_since_key),
                "compression_ratio": (
                    self._raw_runs / shipped if shipped else 1.0
                ),
            }


class StreamingDiffService:
    """Frame-stream sessions over a cached/resilient diff backend.

    Parameters
    ----------
    backend:
        The :class:`~repro.service.DiffService` or
        :class:`~repro.service.resilience.ResilientDiffService` that
        computes every frame delta.  The streaming layer never XORs
        around it — cache hits, retries, deadlines and breaker
        admission all shape the streaming path.  The backend's
        lifecycle belongs to the caller (closing this service does not
        close the backend).
    policy:
        Default :class:`StreamPolicy` for sessions that do not bring
        their own.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the
        ``repro_stream_*`` families land in (a private one when
        ``None``).
    log:
        Optional :class:`~repro.obs.log.StructuredLog` for the
        ``stream_opened`` / ``stream_rekey`` / ``stream_closed``
        events.
    """

    def __init__(
        self,
        backend: DiffBackend,
        policy: Optional[StreamPolicy] = None,
        metrics: "Optional[MetricsRegistry]" = None,
        log: "Optional[StructuredLog]" = None,
    ) -> None:
        self._backend = backend
        self.policy = policy if policy is not None else StreamPolicy()
        self._log = log
        self._lock = threading.Lock()
        self._sessions: Dict[str, StreamSession] = {}
        self._closed = False
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_opened = registry.counter(
            "repro_stream_sessions_opened_total",
            "streaming sessions opened",
        ).labels()
        self._m_closed = registry.counter(
            "repro_stream_sessions_closed_total",
            "streaming sessions closed",
        ).labels()
        self._m_open = registry.gauge(
            "repro_stream_sessions_open",
            "streaming sessions currently open",
        ).labels()
        self._m_frames = registry.counter(
            "repro_stream_frames_total",
            "frames appended across all streaming sessions",
        ).labels()
        self._m_rekeys = registry.counter(
            "repro_stream_rekeys_total",
            "adaptive key-frame replacements across all sessions",
        ).labels()
        self._m_raw_runs = registry.counter(
            "repro_stream_raw_runs_total",
            "runs in the frames as received (pre-delta size)",
        ).labels()
        self._m_shipped_runs = registry.counter(
            "repro_stream_shipped_runs_total",
            "runs actually shipped back (key frames + deltas)",
        ).labels()

    # ------------------------------------------------------------------ #
    # Session lifecycle                                                  #
    # ------------------------------------------------------------------ #
    def open(
        self,
        session_id: Optional[str] = None,
        policy: Optional[StreamPolicy] = None,
    ) -> str:
        """Create a session; returns its id (generated when ``None``).

        Opening an id that is already open is a typed
        :class:`~repro.errors.ServiceError` — sessions are
        single-writer, and a duplicate open is a routing bug.
        """
        if session_id is None:
            session_id = new_request_id()
        session = StreamSession(
            session_id, policy if policy is not None else self.policy
        )
        with self._lock:
            if self._closed:
                raise ServiceError("StreamingDiffService is closed")
            if session_id in self._sessions:
                raise ServiceError(
                    f"stream session {session_id!r} is already open"
                )
            self._sessions[session_id] = session
            open_count = len(self._sessions)
        self._m_opened.inc()
        self._m_open.set(float(open_count))
        if self._log is not None:
            self._log.log(
                "stream_opened",
                request_id=session_id,
                level="info",
                rekey_ratio=session.policy.rekey_ratio,
                max_chain=session.policy.max_chain,
            )
        return session_id

    def _session(self, session_id: str) -> StreamSession:
        with self._lock:
            if self._closed:
                raise ServiceError("StreamingDiffService is closed")
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(
                f"unknown stream session {session_id!r} — it was never "
                f"opened here, was closed, or was lost with its shard; "
                f"reopen the session to continue"
            )
        return session

    def close_session(self, session_id: str) -> Dict[str, float]:
        """End one session; returns its final stats."""
        with self._lock:
            if self._closed:
                raise ServiceError("StreamingDiffService is closed")
            session = self._sessions.pop(session_id, None)
            open_count = len(self._sessions)
        if session is None:
            raise UnknownSessionError(
                f"unknown stream session {session_id!r} — nothing to close"
            )
        stats = session.stats()
        self._m_closed.inc()
        self._m_open.set(float(open_count))
        if self._log is not None:
            self._log.log(
                "stream_closed",
                request_id=session_id,
                level="info",
                frames=int(stats["frames"]),
                rekeys=int(stats["rekeys"]),
            )
        return stats

    def close(self) -> None:
        """Drop every session.  The backend stays open (not owned)."""
        with self._lock:
            self._closed = True
            self._sessions.clear()
        self._m_open.set(0.0)

    def __enter__(self) -> "StreamingDiffService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The streaming op                                                   #
    # ------------------------------------------------------------------ #
    def append_frame(
        self,
        session_id: str,
        frame: RLEImage,
        request_id: Optional[str] = None,
    ) -> FrameDelta:
        """Append one frame; returns the delta the caller should ship.

        The delta is computed through the backend
        (``diff_images(tail, frame)``) so the session's resident rows
        hit the content-addressed cache and every resilience policy
        applies; the chain append plus rekey decision then run
        atomically inside the session.  ``request_id`` stamps the
        backend's log events — the sharded tier passes the per-request
        context id whose ``parent_id`` is this session's id.
        """
        session = self._session(session_id)
        tail = session.tail
        if tail is None:
            result = session.open_key(frame)
        else:
            if frame.shape != tail.shape:
                raise GeometryError(
                    f"frame shape {frame.shape} != session shape {tail.shape}"
                )
            diff = self._backend.diff_images(tail, frame, request_id=request_id)
            result = session.append_delta(frame, diff.image)
        self._m_frames.inc()
        self._m_raw_runs.inc(float(frame.total_runs))
        self._m_shipped_runs.inc(float(result.delta_runs))
        if result.rekeyed and result.frame_index > 0:
            self._m_rekeys.inc()
        if (
            self._log is not None
            and result.rekeyed
            and result.frame_index > 0
        ):
            self._log.log(
                "stream_rekey",
                request_id=session_id,
                level="debug",
                frame_index=result.frame_index,
                key_runs=result.key_runs,
            )
        return result

    def frame(self, session_id: str, t: int) -> RLEImage:
        """Random access into a session's current chain (prefix XOR)."""
        return self._session(session_id).frame(t)

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def session_stats(self, session_id: str) -> Dict[str, float]:
        """One session's counters (typed error for unknown ids)."""
        return self._session(session_id).stats()

    def stats(self) -> Dict[str, float]:
        """Aggregate counters over every *open* session, plus the
        session totals themselves."""
        with self._lock:
            sessions = list(self._sessions.values())
        totals: Dict[str, float] = {"sessions_open": float(len(sessions))}
        for session in sessions:
            for key, value in session.stats().items():
                if key == "compression_ratio":
                    continue
                totals[key] = totals.get(key, 0.0) + value
        shipped = totals.get("shipped_runs", 0.0)
        totals["compression_ratio"] = (
            totals.get("raw_runs", 0.0) / shipped if shipped else 1.0
        )
        return totals


# --------------------------------------------------------------------- #
# Wire codecs (builtin types only — rule RLE103 covers this module)     #
# --------------------------------------------------------------------- #

#: One image on the wire: per-row ``(start, length)`` pair tuples plus
#: the shared pixel width.
ImageWire = Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], int]

#: One :class:`FrameDelta` on the wire:
#: ``(frame_index, rekeyed, delta image, delta_runs, key_runs)``.
FrameDeltaWire = Tuple[int, bool, ImageWire, int, int]

#: One :class:`StreamPolicy` on the wire: ``(rekey_ratio, max_chain)``.
StreamPolicyWire = Tuple[float, int]


def encode_image(image: RLEImage) -> ImageWire:
    return (
        tuple(
            tuple((run.start, run.length) for run in row.runs)
            for row in image
        ),
        image.width,
    )


def decode_image(wire: ImageWire) -> RLEImage:
    rows_wire, width = wire
    return RLEImage.from_row_pairs(
        [
            [(int(start), int(length)) for start, length in pairs]
            for pairs in rows_wire
        ],
        width=int(width),
    )


def encode_frame_delta(delta: FrameDelta) -> FrameDeltaWire:
    return (
        int(delta.frame_index),
        bool(delta.rekeyed),
        encode_image(delta.delta),
        int(delta.delta_runs),
        int(delta.key_runs),
    )


def decode_frame_delta(wire: FrameDeltaWire) -> FrameDelta:
    frame_index, rekeyed, image_wire, delta_runs, key_runs = wire
    return FrameDelta(
        frame_index=int(frame_index),
        delta=decode_image(image_wire),
        rekeyed=bool(rekeyed),
        delta_runs=int(delta_runs),
        key_runs=int(key_runs),
    )


def encode_stream_policy(policy: StreamPolicy) -> StreamPolicyWire:
    return (float(policy.rekey_ratio), int(policy.max_chain))


def decode_stream_policy(wire: StreamPolicyWire) -> StreamPolicy:
    rekey_ratio, max_chain = wire
    return StreamPolicy(
        rekey_ratio=float(rekey_ratio), max_chain=int(max_chain)
    )
