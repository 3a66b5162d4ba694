"""Sharding primitives: ring placement, wire codecs, error rehydration."""

from hashlib import blake2b

import pytest

from repro.errors import (
    CapacityError,
    GeometryError,
    ServiceError,
    ServiceOverloadError,
)
from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.options import DiffOptions
from repro.service.cache import row_fingerprint
from repro.service.shard import (
    ShardRing,
    decode_error,
    decode_options,
    decode_result,
    decode_row,
    encode_error,
    encode_options,
    encode_result,
    encode_row,
)


def digest_for(i: int) -> bytes:
    return blake2b(f"key:{i}".encode("ascii"), digest_size=16).digest()


class TestShardRing:
    def test_deterministic_across_instances(self):
        # every front-end must compute the same ring from the same
        # parameters — routing is a pure function of (n_shards, replicas)
        one, two = ShardRing(4), ShardRing(4)
        for i in range(256):
            assert one.shard_for_digest(digest_for(i)) == two.shard_for_digest(
                digest_for(i)
            )

    def test_all_shards_reachable_and_roughly_balanced(self):
        ring = ShardRing(4)
        counts = {shard: 0 for shard in range(4)}
        for i in range(4096):
            counts[ring.shard_for_digest(digest_for(i))] += 1
        assert set(counts) == {0, 1, 2, 3}
        # 64 virtual nodes keep the imbalance modest; bound it loosely
        assert min(counts.values()) > 4096 // 4 // 4

    def test_wrap_past_the_last_point(self):
        # a position beyond every ring point wraps to the first point —
        # the same shard that owns position zero
        ring = ShardRing(3)
        assert ring.shard_for_digest(b"\xff" * 8) == ring.shard_for_digest(
            b"\x00" * 8
        )

    def test_single_shard_owns_everything(self):
        ring = ShardRing(1)
        assert {ring.shard_for_digest(digest_for(i)) for i in range(64)} == {0}

    def test_growing_the_ring_remaps_a_minority(self):
        # the consistent-hashing property: adding one shard moves only
        # ~1/(N+1) of the key space
        before, after = ShardRing(4), ShardRing(5)
        moved = sum(
            before.shard_for_digest(digest_for(i))
            != after.shard_for_digest(digest_for(i))
            for i in range(2048)
        )
        assert moved < 2048 // 2

    def test_routes_by_row_fingerprint(self):
        ring = ShardRing(4)
        row = RLERow.from_pairs([(2, 5), (10, 3)], width=32)
        assert ring.shard_for_row(row) == ring.shard_for_digest(
            row_fingerprint(row)
        )

    @pytest.mark.parametrize("kwargs", [{"n_shards": 0}, {"n_shards": 2, "replicas": 0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            ShardRing(**kwargs)


class TestWireCodecs:
    def test_options_round_trip(self):
        options = DiffOptions(
            engine="systolic",
            n_cells=32,
            canonical=False,
            paranoid=True,
            record_trace=True,
        )
        decoded = decode_options(encode_options(options))
        assert decoded.engine == options.engine
        assert decoded.n_cells == options.n_cells
        assert decoded.canonical == options.canonical
        assert decoded.paranoid == options.paranoid
        assert decoded.record_trace == options.record_trace

    @pytest.mark.parametrize(
        "pairs", [[], [(0, 4)], [(2, 5), (10, 3), (20, 1)]]
    )
    def test_row_round_trip(self, pairs):
        row = RLERow.from_pairs(pairs, width=32)
        decoded = decode_row(encode_row(row))
        assert decoded.to_pairs() == row.to_pairs()
        assert decoded.width == row.width
        assert row_fingerprint(decoded) == row_fingerprint(row)

    def test_result_round_trip(self):
        a = RLERow.from_pairs([(1, 4), (12, 3)], width=32)
        b = RLERow.from_pairs([(3, 5)], width=32)
        result = row_diff(a, b, options=DiffOptions(engine="systolic"))
        decoded = decode_result(encode_result(result))
        assert decoded.result.to_pairs() == result.result.to_pairs()
        assert decoded.result.width == result.result.width
        assert decoded.iterations == result.iterations
        assert decoded.k1 == result.k1 and decoded.k2 == result.k2
        assert decoded.n_cells == result.n_cells
        assert decoded.stats.items() == result.stats.items()

    def test_wire_forms_are_builtin_typed(self):
        # the whole point of the codecs: nothing project-typed crosses
        # the pipe
        a = RLERow.from_pairs([(1, 4)], width=16)
        result = row_diff(a, a, options=DiffOptions(engine="systolic"))

        def flatten(obj):
            if isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from flatten(item)
            else:
                yield obj

        for leaf in flatten(encode_result(result)):
            assert isinstance(leaf, (int, float, str, bool, type(None)))


class TestErrorRehydration:
    @pytest.mark.parametrize(
        "exc",
        [
            ServiceOverloadError("queue full (16 pending)"),
            GeometryError("image shapes differ: (2, 8) vs (3, 8)"),
            CapacityError("k1 + k2 = 40 exceeds 32 cells"),
        ],
    )
    def test_typed_errors_survive_the_boundary(self, exc):
        decoded = decode_error(encode_error(exc))
        assert type(decoded) is type(exc)
        assert str(decoded) == str(exc)

    def test_unknown_name_degrades_to_service_error(self):
        decoded = decode_error(("NoSuchError", "boom"))
        assert type(decoded) is ServiceError
        assert "NoSuchError" in str(decoded) and "boom" in str(decoded)

    def test_untyped_exception_degrades_to_service_error(self):
        decoded = decode_error(encode_error(KeyError("oops")))
        assert type(decoded) is ServiceError
        assert "KeyError" in str(decoded)
