"""StreamingDiffService: session lifecycle, delta chains, adaptive
rekeying, wire codecs, and behaviour under faults.

The streaming tier's contract (see ``docs/API.md`` "Streaming
sessions"):

- every appended frame's delta is computed *through* the backend diff
  service, so caching and every resilience policy shape the stream;
- the client decodes by prefix XOR over the shipped deltas and must
  recover every source frame pixel-exactly — under chaos too;
- key frames are replaced adaptively from measured diff density;
- unknown/closed sessions and duplicate opens are typed errors.
"""

import json

import numpy as np
import pytest

from repro.errors import (
    GeometryError,
    ServiceError,
    ServiceOverloadError,
    UnknownSessionError,
)
from repro.core.options import DiffOptions
from repro.obs.log import StructuredLog
from repro.obs.metrics import MetricsRegistry
from repro.rle.image import RLEImage
from repro.rle.ops2d import xor_images
from repro.service import (
    ChaosEngine,
    ChaosSchedule,
    DiffService,
    ResiliencePolicy,
    ResilientDiffService,
    StreamingDiffService,
    StreamPolicy,
)
from repro.service.stream import (
    decode_frame_delta,
    decode_image,
    decode_stream_policy,
    encode_frame_delta,
    encode_image,
    encode_stream_policy,
)
from repro.workloads.motion import generate_sequence
from tests.service.test_service import FAST

OPTS = DiffOptions(engine="batched")


@pytest.fixture(scope="module")
def clip():
    return generate_sequence(height=48, width=48, n_frames=8, seed=11)


@pytest.fixture()
def backend():
    with DiffService(OPTS, **FAST) as service:
        yield service


def decode_stream(deltas):
    """Client-side reconstruction: prefix XOR over shipped deltas."""
    frames = []
    for fd in deltas:
        frames.append(
            fd.delta if not frames else xor_images(frames[-1], fd.delta)
        )
    return frames


class TestSessionLifecycle:
    def test_open_generates_id(self, backend):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        assert sid
        assert streams.session_ids() == [sid]
        assert len(streams) == 1

    def test_open_explicit_id(self, backend):
        streams = StreamingDiffService(backend)
        assert streams.open("cam-7") == "cam-7"

    def test_duplicate_open_is_typed_error(self, backend):
        streams = StreamingDiffService(backend)
        streams.open("cam-7")
        with pytest.raises(ServiceError, match="already open"):
            streams.open("cam-7")

    def test_unknown_session_append_is_typed_error(self, backend, clip):
        streams = StreamingDiffService(backend)
        with pytest.raises(UnknownSessionError, match="reopen"):
            streams.append_frame("ghost", clip[0])

    def test_close_session_returns_stats(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, clip[0])
        streams.append_frame(sid, clip[1])
        stats = streams.close_session(sid)
        assert stats["frames"] == 2.0
        assert len(streams) == 0
        # closed means gone: further ops are typed errors
        with pytest.raises(UnknownSessionError):
            streams.append_frame(sid, clip[2])
        with pytest.raises(UnknownSessionError):
            streams.close_session(sid)

    def test_service_close_drops_sessions(self, backend):
        streams = StreamingDiffService(backend)
        streams.open("a")
        streams.close()
        with pytest.raises(ServiceError, match="closed"):
            streams.open("b")

    def test_context_manager_does_not_close_backend(self, backend, clip):
        with StreamingDiffService(backend) as streams:
            sid = streams.open()
            streams.append_frame(sid, clip[0])
        # the backend is not owned — it still serves
        backend.diff_images(clip[0], clip[1])


class TestDeltaChain:
    def test_decode_identity(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        deltas = [streams.append_frame(sid, frame) for frame in clip]
        decoded = decode_stream(deltas)
        for t, (got, want) in enumerate(zip(decoded, clip)):
            assert got.same_pixels(want), f"frame {t}"

    def test_first_frame_is_its_own_key(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        fd = streams.append_frame(sid, clip[0])
        assert fd.frame_index == 0
        assert fd.rekeyed
        assert fd.delta.same_pixels(clip[0])
        assert fd.delta_runs == fd.key_runs == clip[0].total_runs

    def test_deltas_ship_fewer_runs_than_frames(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        for frame in clip:
            streams.append_frame(sid, frame)
        stats = streams.session_stats(sid)
        assert stats["compression_ratio"] > 1.5
        assert stats["shipped_runs"] < stats["raw_runs"]

    def test_random_access_into_chain(self, backend, clip):
        streams = StreamingDiffService(backend, policy=StreamPolicy())
        sid = streams.open()
        for frame in clip[:4]:
            streams.append_frame(sid, frame)
        # no rekey yet on such a short static-ish prefix => chain index
        # t counts from the session's first frame
        chain_len = int(streams.session_stats(sid)["chain_len"])
        for t in range(chain_len):
            offset = 4 - chain_len
            assert streams.frame(sid, t).same_pixels(clip[offset + t])

    def test_shape_mismatch_is_geometry_error(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, clip[0])
        with pytest.raises(GeometryError):
            streams.append_frame(sid, RLEImage.blank(2, 2))

    def test_aggregate_stats_sum_sessions(self, backend, clip):
        streams = StreamingDiffService(backend)
        a, b = streams.open(), streams.open()
        for frame in clip[:3]:
            streams.append_frame(a, frame)
        for frame in clip[:2]:
            streams.append_frame(b, frame)
        totals = streams.stats()
        assert totals["sessions_open"] == 2.0
        assert totals["frames"] == 5.0


class TestAdaptiveRekey:
    def test_motion_clip_rekeys(self, backend):
        clip = generate_sequence(height=64, width=64, n_frames=12, seed=3)
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(rekey_ratio=0.8)
        )
        sid = streams.open()
        rekeys = [
            streams.append_frame(sid, frame).rekeyed for frame in clip
        ]
        # frame 0 is its own key; the moving sprites must trip the
        # density threshold at least once more
        assert any(rekeys[1:])
        assert streams.session_stats(sid)["rekeys"] >= 1.0

    def test_static_scene_never_rekeys(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        for _ in range(6):
            fd = streams.append_frame(sid, clip[0])
        assert not fd.rekeyed
        stats = streams.session_stats(sid)
        assert stats["rekeys"] == 0.0
        assert stats["chain_len"] == 6.0

    def test_max_chain_bounds_static_chains(self, backend, clip):
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(max_chain=3)
        )
        sid = streams.open()
        for _ in range(10):
            streams.append_frame(sid, clip[0])
        stats = streams.session_stats(sid)
        assert stats["chain_len"] <= 4.0  # rekey fires when chain > max
        assert stats["rekeys"] >= 2.0

    def test_scene_cut_rekeys_immediately(self, backend):
        rng = np.random.default_rng(5)
        scene_a = RLEImage.from_array(rng.random((32, 32)) < 0.3)
        scene_b = RLEImage.from_array(rng.random((32, 32)) < 0.3)
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, scene_a)
        fd = streams.append_frame(sid, scene_b)
        assert fd.rekeyed  # the cut's delta is as dense as a frame

    def test_decode_identity_across_rekeys(self, backend):
        clip = generate_sequence(height=64, width=64, n_frames=12, seed=3)
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(rekey_ratio=0.5, max_chain=3)
        )
        sid = streams.open()
        deltas = [streams.append_frame(sid, frame) for frame in clip]
        assert sum(fd.rekeyed for fd in deltas[1:]) >= 2
        for t, (got, want) in enumerate(zip(decode_stream(deltas), clip)):
            assert got.same_pixels(want), f"frame {t}"


class TestPolicyValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rekey_ratio_must_be_positive(self, bad):
        with pytest.raises(ServiceError, match="rekey_ratio"):
            StreamPolicy(rekey_ratio=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_chain_floor(self, bad):
        with pytest.raises(ServiceError, match="max_chain"):
            StreamPolicy(max_chain=bad)


class TestObservability:
    def test_metrics_families(self, backend, clip):
        registry = MetricsRegistry()
        streams = StreamingDiffService(backend, metrics=registry)
        sid = streams.open()
        for frame in clip:
            streams.append_frame(sid, frame)
        streams.close_session(sid)
        snap = registry.snapshot()
        assert snap.counter_total("repro_stream_sessions_opened_total") == 1.0
        assert snap.counter_total("repro_stream_sessions_closed_total") == 1.0
        assert snap.counter_total("repro_stream_frames_total") == float(
            len(clip)
        )
        raw = snap.counter_total("repro_stream_raw_runs_total")
        shipped = snap.counter_total("repro_stream_shipped_runs_total")
        assert raw == float(sum(f.total_runs for f in clip))
        assert 0.0 < shipped < raw

    def test_open_gauge_tracks_sessions(self, backend):
        registry = MetricsRegistry()
        streams = StreamingDiffService(backend, metrics=registry)
        a = streams.open()
        streams.open()

        def gauge():
            for family in registry.snapshot().families:
                if family.name == "repro_stream_sessions_open":
                    assert family.kind == "gauge"
                    return sum(s.value for s in family.series)
            return 0.0

        assert gauge() == 2.0
        streams.close_session(a)
        assert gauge() == 1.0
        streams.close()
        assert gauge() == 0.0

    def test_lifecycle_log_events(self, backend):
        clip = generate_sequence(height=64, width=64, n_frames=10, seed=3)
        log = StructuredLog()
        streams = StreamingDiffService(
            backend, policy=StreamPolicy(rekey_ratio=0.8), log=log
        )
        sid = streams.open()
        for frame in clip:
            streams.append_frame(sid, frame)
        streams.close_session(sid)
        events = [r["event"] for r in log.records()]
        assert "stream_opened" in events
        assert "stream_rekey" in events
        assert "stream_closed" in events
        # every stream event is keyed by the session id
        for record in log.records():
            if record["event"].startswith("stream_"):
                assert record["request_id"] == sid

    @pytest.mark.parametrize("backend_cls", [DiffService, ResilientDiffService])
    def test_frame_request_id_reaches_either_backend(self, backend_cls, clip):
        log = StructuredLog()
        with backend_cls(OPTS, log=log, **FAST) as service:
            streams = StreamingDiffService(service)
            sid = streams.open()
            for t, frame in enumerate(clip[:3]):
                streams.append_frame(sid, frame, request_id=f"frame{t:011d}")
        lifecycle = [
            r
            for r in log.records()
            if r["event"] in ("request_admitted", "request_completed")
        ]
        # frame 0 opens the key (no backend call); frames 1 and 2 diff
        assert [r["request_id"] for r in lifecycle] == [
            "frame00000000001",
            "frame00000000001",
            "frame00000000002",
            "frame00000000002",
        ]
        assert {r["fields"]["op"] for r in lifecycle} == {"diff_images"}


class TestUnderFaults:
    def test_breaker_open_sheds_stream_frame(self, clip):
        """With the backend's breaker open, an uncached ``stream_frame``
        is shed with the same typed ``ServiceOverloadError`` as any
        other op — the streaming layer adds no bypass."""
        chaos = ChaosEngine(
            ChaosSchedule(["error"] * 64, cycle=True), sleep=lambda _s: None
        )
        policy = ResiliencePolicy(
            max_retries=0,
            breaker_window=4,
            breaker_min_requests=2,
            breaker_failure_threshold=0.5,
            breaker_reset_timeout=60.0,
            jitter=0.0,
        )
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, **FAST
        ) as backend:
            # trip the breaker with failing one-shot requests
            for _ in range(4):
                with pytest.raises(Exception):
                    backend.diff_images(clip[0], clip[1])
            streams = StreamingDiffService(backend)
            sid = streams.open()
            streams.append_frame(sid, clip[0])  # key frame: no diff needed
            with pytest.raises(ServiceOverloadError):
                streams.append_frame(sid, clip[1])

    def test_chaos_retries_keep_stream_byte_identical(self, clip):
        """Transient injected faults are retried away by the resilient
        backend; the decoded stream stays pixel-identical."""
        # every other backend call fails once, then succeeds on retry
        schedule = ChaosSchedule(["error", None] * 32, cycle=True)
        chaos = ChaosEngine(schedule, sleep=lambda _s: None)
        policy = ResiliencePolicy(
            max_retries=3, backoff_base=0.0, jitter=0.0, breaker_window=0
        )
        with ResilientDiffService(
            OPTS, policy=policy, compute=chaos, **FAST
        ) as backend:
            streams = StreamingDiffService(backend)
            sid = streams.open()
            deltas = [streams.append_frame(sid, frame) for frame in clip]
        for t, (got, want) in enumerate(zip(decode_stream(deltas), clip)):
            assert got.same_pixels(want), f"frame {t}"


class TestWireCodecs:
    def test_image_round_trip_through_json(self, clip):
        wire = json.loads(json.dumps(encode_image(clip[0])))
        assert decode_image(wire).same_pixels(clip[0])

    def test_frame_delta_round_trip(self, backend, clip):
        streams = StreamingDiffService(backend)
        sid = streams.open()
        streams.append_frame(sid, clip[0])
        fd = streams.append_frame(sid, clip[1])
        wire = json.loads(json.dumps(encode_frame_delta(fd)))
        back = decode_frame_delta(wire)
        assert back.frame_index == fd.frame_index
        assert back.rekeyed == fd.rekeyed
        assert back.delta_runs == fd.delta_runs
        assert back.key_runs == fd.key_runs
        assert back.delta.same_pixels(fd.delta)

    def test_policy_round_trip(self):
        policy = StreamPolicy(rekey_ratio=0.75, max_chain=12)
        wire = json.loads(json.dumps(encode_stream_policy(policy)))
        assert decode_stream_policy(wire) == policy
