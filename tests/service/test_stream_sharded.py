"""Streaming sessions through the sharded tier: ring routing, TCP
round-trips, the versioned wire protocol, and worker-crash recovery.

A session lives on exactly one shard — the front-end routes every
``stream_*`` op by session id on the consistent-hash ring, walking the
ring past dead workers at placement time.  When a session's worker dies
mid-stream the mapping is dropped and the caller gets a typed
:class:`~repro.errors.UnknownSessionError` telling it to reopen; the
reopened session lands on a live shard (see docs/SERVING.md).
"""

import json
import socket

import pytest

from repro.errors import (
    ProtocolError,
    ServiceError,
    UnknownSessionError,
)
from repro.core.options import DiffOptions
from repro.rle.ops2d import xor_images
from repro.service import (
    PROTOCOL_VERSION,
    ServerThread,
    ShardClient,
    ShardedDiffService,
    ShardRing,
)
from repro.service.frontend import MAX_REQUEST_LINE
from repro.workloads.motion import generate_sequence

BATCHED = DiffOptions(engine="batched")


@pytest.fixture(scope="module")
def clip():
    return generate_sequence(height=32, width=32, n_frames=8, seed=11)


@pytest.fixture()
def sharded():
    with ShardedDiffService(BATCHED, workers=2) as service:
        service.ping()
        yield service


def decode_stream(deltas):
    frames = []
    for fd in deltas:
        frames.append(
            fd.delta if not frames else xor_images(frames[-1], fd.delta)
        )
    return frames


class TestRingPreference:
    def test_preference_is_a_permutation(self):
        ring = ShardRing(4)
        for key in (b"alpha", b"beta", b"gamma", b"\x00\x01"):
            pref = ring.preference(key)
            assert sorted(pref) == [0, 1, 2, 3]

    def test_preference_head_is_primary(self):
        ring = ShardRing(4)
        for key in (b"alpha", b"beta", b"gamma"):
            assert ring.preference(key)[0] == ring.shard_for_digest(key)


class TestSessionRouting:
    def test_sessions_pin_to_ring_preference(self, sharded):
        for name in ("cam-0", "cam-1", "cam-2", "cam-3"):
            sid = sharded.stream_open(session_id=name)
            shard = sharded._stream_shards[sid]
            digest = sharded._session_digest(sid)
            assert shard == sharded.ring.preference(digest)[0]

    def test_frames_stay_on_one_shard(self, sharded, clip):
        sid = sharded.stream_open()
        for frame in clip[:4]:
            sharded.stream_frame(sid, frame)
        shard = sharded._stream_shards[sid]
        # only the hosting worker holds the session
        hosting = sharded._workers[shard].call("stream_stats", None)
        assert hosting["frames"] == 4.0
        other = sharded._workers[1 - shard].call("stream_stats", None)
        assert other.get("frames", 0.0) == 0.0

    def test_stream_sessions_lists_open_ids(self, sharded):
        a = sharded.stream_open()
        b = sharded.stream_open()
        assert set(sharded.stream_sessions()) >= {a, b}

    def test_close_returns_stats_and_forgets(self, sharded, clip):
        sid = sharded.stream_open()
        for frame in clip[:3]:
            sharded.stream_frame(sid, frame)
        stats = sharded.stream_close(sid)
        assert stats["frames"] == 3.0
        with pytest.raises(UnknownSessionError):
            sharded.stream_frame(sid, clip[3])


class TestShardedStreamIdentity:
    def test_decode_identity_through_shards(self, sharded, clip):
        sid = sharded.stream_open(policy=None)
        deltas = [sharded.stream_frame(sid, frame) for frame in clip]
        for t, (got, want) in enumerate(zip(decode_stream(deltas), clip)):
            assert got.same_pixels(want), f"frame {t}"

    def test_aggregate_stats_across_workers(self, sharded, clip):
        a = sharded.stream_open()
        b = sharded.stream_open()
        for frame in clip[:3]:
            sharded.stream_frame(a, frame)
        for frame in clip[:2]:
            sharded.stream_frame(b, frame)
        totals = sharded.stream_stats()
        assert totals["frames"] == 5.0
        assert totals["sessions_open"] == 2.0
        per_session = sharded.stream_stats(a)
        assert per_session["frames"] == 3.0


class TestWorkerCrashMidSession:
    def test_crash_gives_typed_error_and_reopen_remaps(self, clip):
        with ShardedDiffService(BATCHED, workers=2) as service:
            service.ping()
            sid = service.stream_open(session_id="cam-crash")
            service.stream_frame(sid, clip[0])
            shard = service._stream_shards[sid]

            # the hosting worker dies mid-session
            handle = service._workers[shard]
            handle._process.terminate()
            handle._process.join(timeout=5.0)

            with pytest.raises(UnknownSessionError, match="reopen"):
                service.stream_frame(sid, clip[1])
            # the mapping is gone — a second call is the same typed error
            with pytest.raises(UnknownSessionError):
                service.stream_frame(sid, clip[1])

            # reopening remaps onto the surviving shard and streams on
            reopened = service.stream_open(session_id="cam-crash")
            assert service._stream_shards[reopened] == 1 - shard
            deltas = [service.stream_frame(reopened, f) for f in clip[:4]]
            for got, want in zip(decode_stream(deltas), clip):
                assert got.same_pixels(want)

    def test_open_skips_dead_workers(self, clip):
        with ShardedDiffService(BATCHED, workers=2) as service:
            service.ping()
            dead = 0
            service._workers[dead]._process.terminate()
            service._workers[dead]._process.join(timeout=5.0)
            # every new session must land on the live shard
            for name in ("a", "b", "c", "d"):
                sid = service.stream_open(session_id=name)
                assert service._stream_shards[sid] == 1
                service.stream_frame(sid, clip[0])

    def test_all_workers_dead_is_service_error(self):
        with ShardedDiffService(BATCHED, workers=2) as service:
            service.ping()
            for handle in service._workers:
                handle._process.terminate()
                handle._process.join(timeout=5.0)
            with pytest.raises(ServiceError, match="alive"):
                service.stream_open()


class TestTCPStreaming:
    @pytest.fixture()
    def server(self, sharded):
        with ServerThread(sharded) as srv:
            yield srv

    @pytest.fixture()
    def client(self, server):
        with ShardClient(server.host, server.port) as cli:
            yield cli

    def test_round_trip_identity_over_tcp(self, client, clip):
        sid = client.stream_open(rekey_ratio=0.8)
        deltas = [client.stream_frame(sid, frame) for frame in clip]
        for t, (got, want) in enumerate(zip(decode_stream(deltas), clip)):
            assert got.same_pixels(want), f"frame {t}"
        stats = client.stream_close(sid)
        assert stats["frames"] == float(len(clip))

    def test_stream_frame_sets_request_id(self, client, clip):
        sid = client.stream_open()
        client.stream_frame(sid, clip[0])
        assert client.last_request_id

    def test_stream_stats_over_tcp(self, client, clip):
        sid = client.stream_open()
        client.stream_frame(sid, clip[0])
        assert client.stream_stats(sid)["frames"] == 1.0
        assert client.stream_stats()["sessions_open"] >= 1.0

    def test_unknown_session_is_typed_across_the_socket(self, client, clip):
        with pytest.raises(UnknownSessionError):
            client.stream_frame("never-opened", clip[0])

    def test_duplicate_open_is_typed_across_the_socket(self, client):
        client.stream_open(session_id="dup")
        with pytest.raises(ServiceError):
            client.stream_open(session_id="dup")


class TestWireProtocolVersioning:
    """Satellite contract: every response carries ``"v"``; unsupported
    versions, unknown ops and malformed requests are typed
    ``ProtocolError`` responses, never closed connections."""

    @pytest.fixture()
    def server(self, sharded):
        with ServerThread(sharded) as srv:
            yield srv

    @staticmethod
    def raw_roundtrip(server, payload: bytes):
        with socket.create_connection(
            (server.host, server.port), timeout=30.0
        ) as sock:
            sock.sendall(payload + b"\n")
            reader = sock.makefile("rb")
            return json.loads(reader.readline())

    def test_every_response_declares_version(self, server):
        response = self.raw_roundtrip(server, json.dumps({"op": "ping"}).encode())
        assert response["v"] == PROTOCOL_VERSION
        assert response["ok"] is True

    def test_missing_version_accepted_as_current(self, server):
        # pre-versioning clients sent no "v" — treated as v1
        response = self.raw_roundtrip(server, b'{"op": "ping"}')
        assert response["ok"] is True

    def test_unsupported_version_rejected(self, server):
        response = self.raw_roundtrip(
            server, json.dumps({"op": "ping", "v": 99}).encode()
        )
        assert response["ok"] is False
        assert response["error"] == "ProtocolError"
        assert "version" in response["message"]
        assert response["v"] == PROTOCOL_VERSION

    def test_unknown_op_names_the_vocabulary_table(self, server):
        response = self.raw_roundtrip(
            server, json.dumps({"op": "frobnicate"}).encode()
        )
        assert response["error"] == "ProtocolError"
        assert "docs/SERVING.md" in response["message"]

    def test_non_object_request_rejected(self, server):
        response = self.raw_roundtrip(server, b'[1, 2, 3]')
        assert response["error"] == "ProtocolError"

    def test_invalid_json_rejected(self, server):
        response = self.raw_roundtrip(server, b"{not json")
        assert response["error"] == "ProtocolError"
        assert response["v"] == PROTOCOL_VERSION

    def test_stream_frame_requires_session_id(self, server):
        response = self.raw_roundtrip(
            server, json.dumps({"op": "stream_frame"}).encode()
        )
        assert response["error"] == "ProtocolError"
        assert "session_id" in response["message"]

    def test_stream_frame_requires_frame(self, server):
        response = self.raw_roundtrip(
            server,
            json.dumps({"op": "stream_frame", "session_id": "x"}).encode(),
        )
        assert response["error"] == "ProtocolError"
        assert "frame" in response["message"]

    def test_id_echo(self, server):
        response = self.raw_roundtrip(
            server, json.dumps({"op": "ping", "id": 42}).encode()
        )
        assert response["id"] == 42

    def test_protocol_error_is_catchable_as_service_error(self):
        assert issubclass(ProtocolError, ServiceError)


class TestUnreadableLines:
    """Lines the server cannot turn into a request — longer than
    ``MAX_REQUEST_LINE``, invalid UTF-8, or JSON nested past the parser's
    recursion limit — each get exactly one typed ``ProtocolError`` reply,
    and the connection keeps serving (the ``ping`` sent after each)."""

    PING = json.dumps({"op": "ping", "id": "after"}).encode()

    @pytest.fixture()
    def server(self, sharded):
        with ServerThread(sharded) as srv:
            yield srv

    @staticmethod
    def exchange(server, lines):
        """Send each line on one connection, reading one reply per line."""
        with socket.create_connection(
            (server.host, server.port), timeout=60.0
        ) as sock:
            reader = sock.makefile("rb")
            replies = []
            for line in lines:
                sock.sendall(line + b"\n")
                replies.append(json.loads(reader.readline()))
            return replies

    def assert_still_serving(self, reply):
        assert reply["ok"] is True
        assert reply["id"] == "after"

    @staticmethod
    def padded_ping(length):
        request = json.dumps({"op": "ping", "id": "padded"}).encode()
        return request + b" " * (length - len(request))

    def test_line_at_the_limit_is_served(self, server):
        at_limit, after = self.exchange(
            server, [self.padded_ping(MAX_REQUEST_LINE), self.PING]
        )
        assert at_limit["ok"] is True
        assert at_limit["id"] == "padded"
        self.assert_still_serving(after)

    def test_line_one_byte_over_is_rejected_once_and_discarded(self, server):
        over, after = self.exchange(
            server, [self.padded_ping(MAX_REQUEST_LINE + 1), self.PING]
        )
        assert over["ok"] is False
        assert over["error"] == "ProtocolError"
        assert str(MAX_REQUEST_LINE) in over["message"]
        assert over["v"] == PROTOCOL_VERSION
        self.assert_still_serving(after)

    def test_invalid_utf8_rejected(self, server):
        bad, after = self.exchange(
            server, [b'{"op": "ping", "id": "\xff\xfe"}', self.PING]
        )
        assert bad["error"] == "ProtocolError"
        assert bad["v"] == PROTOCOL_VERSION
        self.assert_still_serving(after)

    def test_deep_nesting_rejected(self, server):
        deep, after = self.exchange(
            server, [b"[" * 1000 + b"]" * 1000, self.PING]
        )
        assert deep["error"] == "ProtocolError"
        assert deep["v"] == PROTOCOL_VERSION
        self.assert_still_serving(after)

    REJECTS = "repro_protocol_rejects_total"
    REASONS = (
        "line_too_long",
        "invalid_json",
        "nesting_too_deep",
        "not_object",
        "unsupported_version",
        "unknown_op",
        "missing_field",
        "malformed_field",
    )

    @pytest.mark.parametrize(
        "reason, line, field",
        [
            pytest.param("line_too_long", None, None, id="over-limit"),
            pytest.param(
                "invalid_json", b'{"op": "ping", "id": "\xff\xfe"}', None, id="bad-utf8"
            ),
            pytest.param("invalid_json", b'{"op": "ping"', None, id="truncated-json"),
            pytest.param(
                "nesting_too_deep", b"[" * 1000 + b"]" * 1000, None, id="deep-nesting"
            ),
            pytest.param("not_object", b"[1, 2]", None, id="array"),
            pytest.param(
                "unsupported_version", b'{"op": "ping", "v": 99}', None, id="version-99"
            ),
            pytest.param("unknown_op", b'{"op": "launch"}', None, id="unknown-op"),
            pytest.param(
                "missing_field", b'{"op": "stream_close"}', None, id="no-session-id"
            ),
            pytest.param(
                "missing_field",
                b'{"op": "stream_frame", "session_id": "s"}',
                None,
                id="no-frame",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "diff_rows", "rows_a": [["x"]]}',
                "rows_a",
                id="row-wrong-shape",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "diff_rows", "rows_a": [[[["a", 1]], 8]], '
                b'"rows_b": [[[], 8]]}',
                "rows_a",
                id="run-not-int",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "diff_rows", "rows_a": [[[[0.9, 2.7]], 8.5]]}',
                "rows_a",
                id="run-float",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "diff_rows", "rows_a": [[[[0, 2]], null]]}',
                "rows_a",
                id="width-null",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "diff_rows", "rows_a": [[[], true]]}',
                "rows_a",
                id="width-bool",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "diff_rows", "rows_b": [[[[0, null]], 8]]}',
                "rows_b",
                id="run-null",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "diff_rows", "rows_a": 5}',
                "rows_a",
                id="rows-not-list",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "stream_open", "rekey_ratio": "abc"}',
                "rekey_ratio",
                id="rekey-ratio-not-number",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "stream_open", "rekey_ratio": NaN}',
                "rekey_ratio",
                id="rekey-ratio-nan",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "stream_open", "max_chain": [2]}',
                "max_chain",
                id="max-chain-not-int",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "stream_open", "max_chain": 2.5}',
                "max_chain",
                id="max-chain-float",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "stream_frame", "session_id": "s", "frame": [["x"]]}',
                "frame",
                id="frame-wrong-shape",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "stream_frame", "session_id": "s", '
                b'"frame": [[[["a", 1]]], 8]}',
                "frame",
                id="frame-run-not-int",
            ),
            pytest.param(
                "malformed_field",
                b'{"op": "stream_frame", "session_id": "s", '
                b'"frame": [[[[0, 2]]], 8.5]}',
                "frame",
                id="frame-width-float",
            ),
        ],
    )
    def test_each_rejection_counted_once(self, server, sharded, reason, line, field):
        """One reply and one count per rejected line, under its reason; a
        ``malformed_field`` reply names the field."""
        if line is None:
            line = self.padded_ping(MAX_REQUEST_LINE + 1)
        before = sharded.registry.snapshot()
        bad, after = self.exchange(server, [line, self.PING])
        assert bad["error"] == "ProtocolError"
        assert bad["v"] == PROTOCOL_VERSION
        if field is not None:
            assert repr(field) in bad["message"]
        self.assert_still_serving(after)
        now = sharded.registry.snapshot()
        counted = {
            label: now.counter_total(self.REJECTS, reason=label)
            - before.counter_total(self.REJECTS, reason=label)
            for label in self.REASONS
        }
        assert counted == {label: int(label == reason) for label in self.REASONS}

    @pytest.mark.parametrize(
        "error, row",
        [
            ("EncodingError", [[[0, 4], [2, 3]], 16]),
            ("EncodingError", [[[-1, 2]], 16]),
            ("GeometryError", [[[14, 4]], 16]),
        ],
        ids=["overlap", "negative", "past-width"],
    )
    def test_invalid_runs_keep_their_typed_error(self, server, sharded, error, row):
        """A well-formed field with invalid runs is not a protocol
        rejection: it keeps the RLE layer's typed error."""
        line = json.dumps({"op": "diff_rows", "rows_a": [row], "rows_b": [row]})
        before = sharded.registry.snapshot().counter_total(self.REJECTS)
        bad, after = self.exchange(server, [line.encode(), self.PING])
        assert bad["error"] == error
        self.assert_still_serving(after)
        assert sharded.registry.snapshot().counter_total(self.REJECTS) == before
