"""RowStore: entry codec round trips, budgeting, locking, quarantine.

The codec half is a hypothesis property suite — every structurally
valid entry must round-trip byte-identically, and *every* single-byte
flip or truncation of the blob must raise
:class:`~repro.errors.FormatError` rather than decode to anything.
That pair of properties is what lets :class:`RowStore` treat "decodes
cleanly" as "safe to serve": there is no blob that is both damaged and
decodable.

The store half covers the directory mechanics: LRU eviction under the
byte budget, warm restart from the append-only index (including torn
tails, orphaned objects and vanished files), the single-writer lock
with read-only degradation, and quarantine-on-corruption.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormatError, ServiceError
from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.options import DiffOptions
from repro.obs.metrics import MetricsRegistry
from repro.service.cache import row_fingerprint
from repro.service.store import (
    STORE_MAGIC,
    RowStore,
    decode_entry,
    encode_entry,
    entry_digest,
)
from repro.systolic.stats import ActivityStats
from tests.conftest import row_pairs, similar_row_pairs

OPTS = DiffOptions(engine="systolic")


def key_for(a: RLERow, b: RLERow, options: DiffOptions = OPTS):
    return (row_fingerprint(a), row_fingerprint(b), options.cache_key())


def verbatim(a: RLERow, b: RLERow):
    return (
        tuple((r.start, r.length) for r in a.runs),
        a.width,
        tuple((r.start, r.length) for r in b.runs),
        b.width,
    )


def entry_for(a: RLERow, b: RLERow, options: DiffOptions = OPTS):
    """(key, inputs, result) triple as the cache would hand the store."""
    return key_for(a, b, options), verbatim(a, b), row_diff(a, b, options=options)


def assert_same_result(got, want) -> None:
    assert got.result.to_pairs() == want.result.to_pairs()
    assert got.result.width == want.result.width
    assert got.iterations == want.iterations
    assert got.k1 == want.k1 and got.k2 == want.k2
    assert got.n_cells == want.n_cells
    assert got.stats.items() == want.stats.items()


# --------------------------------------------------------------------- #
# Entry codec: round trip                                                #
# --------------------------------------------------------------------- #
class TestCodecRoundTrip:
    @given(pair=row_pairs(max_width=96))
    @settings(max_examples=50, deadline=None)
    def test_computed_entries_round_trip(self, pair):
        a, b = pair
        key, inputs, result = entry_for(a, b)
        got_key, got_inputs, got_result = decode_entry(
            encode_entry(key, inputs, result)
        )
        assert got_key == key
        assert got_inputs == inputs
        assert_same_result(got_result, result)

    @given(pair=similar_row_pairs(max_width=200))
    @settings(max_examples=25, deadline=None)
    def test_paper_regime_entries_round_trip(self, pair):
        a, b = pair
        key, inputs, result = entry_for(a, b)
        got_key, got_inputs, got_result = decode_entry(
            encode_entry(key, inputs, result)
        )
        assert (got_key, got_inputs) == (key, inputs)
        assert_same_result(got_result, result)

    # Rows the packbits fast path must *refuse* (adjacent fragments,
    # unsorted runs, missing width) travel as raw pairs; the codec has
    # to keep their exact run structure, not just their pixels.
    @pytest.mark.parametrize(
        "pairs,width",
        [
            ([], 16),  # empty row
            ([(0, 32)], 32),  # all-ones row
            ([(0, 1)], 1),  # single pixel, minimal width
            ([(0, 4), (4, 4)], 16),  # adjacent runs: not bit-reconstructible
            ([(0, 3), (10, 6)], 16),  # run ending exactly at the width
            ([(0, 3)], None),  # no declared width
        ],
    )
    def test_adversarial_result_rows_round_trip(self, pairs, width):
        a = RLERow.from_pairs([(1, 2)], width=24)
        b = RLERow.from_pairs([(4, 2)], width=24)
        key = key_for(a, b)
        inputs = verbatim(a, b)
        result = _fabricated_result(pairs, width)
        _, _, got = decode_entry(encode_entry(key, inputs, result))
        assert got.result.to_pairs() == [tuple(p) for p in pairs]
        assert got.result.width == width
        assert_same_result(got, result)

    @given(
        splits=st.lists(st.integers(1, 3), min_size=0, max_size=8),
        width=st.integers(32, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_fragmented_input_rows_round_trip(self, splits, width):
        # adjacent fragments summing to one run — structurally valid,
        # canonically equal to a single run, must survive verbatim
        pairs, start = [], 0
        for length in splits:
            pairs.append((start, length))
            start += length
        a = RLERow(
            [RLERow.from_pairs([p], width=width).runs[0] for p in pairs],
            width=width,
        )
        b = RLERow.from_pairs([(0, 2)], width=width)
        key, inputs = key_for(a, b), verbatim(a, b)
        result = _fabricated_result([(0, 2)], width)
        _, got_inputs, _ = decode_entry(encode_entry(key, inputs, result))
        assert got_inputs == inputs
        assert got_inputs[0] == tuple(pairs)

    def test_options_in_the_key_round_trip(self):
        a = RLERow.from_pairs([(0, 2)], width=8)
        b = RLERow.from_pairs([(2, 2)], width=8)
        for options in (
            DiffOptions(engine="batched"),
            DiffOptions(engine="systolic", n_cells=7),
            DiffOptions(engine="sequential", paranoid=True),
        ):
            key = key_for(a, b, options)
            got_key, _, _ = decode_entry(
                encode_entry(key, verbatim(a, b), _fabricated_result([], 8))
            )
            assert got_key == key


def _fabricated_result(pairs, width):
    from repro.core.machine import XorRunResult

    return XorRunResult(
        result=RLERow(
            [RLERow.from_pairs([p], width=None).runs[0] for p in pairs],
            width=width,
        ),
        iterations=3,
        k1=1,
        k2=2,
        n_cells=8,
        stats=ActivityStats.from_items([("cycles", 12), ("compares", 4)]),
    )


# --------------------------------------------------------------------- #
# Entry codec: damage detection                                          #
# --------------------------------------------------------------------- #
class TestCodecDamage:
    def _blob(self):
        a = RLERow.from_pairs([(2, 3), (8, 2)], width=24)
        b = RLERow.from_pairs([(1, 3), (9, 2)], width=24)
        return encode_entry(*entry_for(a, b))

    def test_header_invariants(self):
        blob = self._blob()
        assert blob[:4] == STORE_MAGIC
        import struct

        digest, length, _checksum = struct.unpack_from("<16sQ16s", blob, 4)
        assert length == len(blob) - 4 - struct.calcsize("<16sQ16s")
        a = RLERow.from_pairs([(2, 3), (8, 2)], width=24)
        b = RLERow.from_pairs([(1, 3), (9, 2)], width=24)
        assert digest == entry_digest(key_for(a, b))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_single_byte_flip_is_rejected(self, data):
        blob = bytearray(self._blob())
        i = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        blob[i] ^= flip
        with pytest.raises(FormatError):
            decode_entry(bytes(blob))

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_every_truncation_is_rejected(self, data):
        blob = self._blob()
        n = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(FormatError):
            decode_entry(blob[:n])

    def test_extension_is_rejected(self):
        with pytest.raises(FormatError):
            decode_entry(self._blob() + b"\x00")

    def test_digest_is_content_addressed(self):
        a = RLERow.from_pairs([(0, 2)], width=8)
        b = RLERow.from_pairs([(2, 2)], width=8)
        assert entry_digest(key_for(a, b)) == entry_digest(key_for(a, b))
        assert entry_digest(key_for(a, b)) != entry_digest(key_for(b, a))
        assert entry_digest(key_for(a, b)) != entry_digest(
            key_for(a, b, DiffOptions(engine="batched"))
        )


# --------------------------------------------------------------------- #
# The store                                                              #
# --------------------------------------------------------------------- #
def make_pair(shift: int, width: int = 64):
    return (
        RLERow.from_pairs([(shift, 3), (shift + 10, 2)], width=width),
        RLERow.from_pairs([(shift + 1, 3), (shift + 11, 2)], width=width),
    )


class TestRowStore:
    def test_put_get_round_trip(self, tmp_path):
        with RowStore(str(tmp_path)) as store:
            key, inputs, result = entry_for(*make_pair(1))
            assert store.get(key, inputs) is None  # cold miss
            assert store.put(key, inputs, result)
            got = store.get(key, inputs)
            assert_same_result(got, result)
            assert store.info()["disk_hits"] == 1 and store.info()["disk_misses"] == 1
            assert store.info()["disk_writes"] == 1
            assert len(store) == 1 and store.total_bytes > 0

    def test_verbatim_input_mismatch_is_a_collision_miss(self, tmp_path):
        with RowStore(str(tmp_path)) as store:
            key, inputs, result = entry_for(*make_pair(1))
            store.put(key, inputs, result)
            other = verbatim(*make_pair(2))
            assert store.get(key, other) is None
            assert store.info()["disk_collisions"] == 1 and store.info()["disk_quarantined"] == 0

    def test_budget_evicts_lru(self, tmp_path):
        key0, inputs0, result0 = entry_for(*make_pair(0))
        one_entry = len(encode_entry(key0, inputs0, result0))
        with RowStore(str(tmp_path), max_bytes=3 * one_entry) as store:
            entries = [entry_for(*make_pair(i)) for i in range(6)]
            for key, inputs, result in entries:
                assert store.put(key, inputs, result)
                assert store.total_bytes <= store.max_bytes
            assert store.info()["disk_evictions"] >= 3
            # oldest gone, newest present
            assert store.get(entries[0][0], entries[0][1]) is None
            assert store.get(entries[-1][0], entries[-1][1]) is not None
            on_disk = sum(
                len(files)
                for _, _, files in os.walk(tmp_path / "objects")
            )
            assert on_disk == len(store)

    def test_get_refreshes_lru_rank(self, tmp_path):
        key0, inputs0, result0 = entry_for(*make_pair(0))
        one_entry = len(encode_entry(key0, inputs0, result0))
        with RowStore(str(tmp_path), max_bytes=2 * one_entry) as store:
            e = [entry_for(*make_pair(i)) for i in range(3)]
            store.put(*e[0])
            store.put(*e[1])
            store.get(e[0][0], e[0][1])  # touch 0: now 1 is LRU
            store.put(*e[2])
            assert store.get(e[1][0], e[1][1]) is None
            assert store.get(e[0][0], e[0][1]) is not None

    def test_oversized_entry_is_skipped(self, tmp_path):
        with RowStore(str(tmp_path), max_bytes=8) as store:
            key, inputs, result = entry_for(*make_pair(1))
            assert not store.put(key, inputs, result)
            assert store.skipped == 1 and len(store) == 0

    def test_traced_results_never_persist(self, tmp_path):
        a, b = make_pair(1)
        options = OPTS.replace(record_trace=True)
        result = row_diff(a, b, options=options)
        assert result.trace is not None
        with RowStore(str(tmp_path)) as store:
            assert not store.put(key_for(a, b, options), verbatim(a, b), result)
            assert store.skipped == 1

    def test_invalid_budget_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            RowStore(str(tmp_path), max_bytes=0)

    def test_invalidate_unlinks(self, tmp_path):
        with RowStore(str(tmp_path)) as store:
            key, inputs, result = entry_for(*make_pair(1))
            store.put(key, inputs, result)
            assert store.invalidate(key)
            assert store.get(key, inputs) is None
            assert not store.invalidate(key)  # already gone
            # and the key is re-insertable afterwards
            assert store.put(key, inputs, result)
            assert store.get(key, inputs) is not None

    # -- restart ------------------------------------------------------- #
    def test_warm_restart_preserves_entries(self, tmp_path):
        entries = [entry_for(*make_pair(i)) for i in range(4)]
        with RowStore(str(tmp_path)) as store:
            for key, inputs, result in entries:
                store.put(key, inputs, result)
            assert store.warm_entries == 0
        with RowStore(str(tmp_path)) as store:
            assert store.warm_entries == len(entries)
            for key, inputs, result in entries:
                assert_same_result(store.get(key, inputs), result)
            assert store.info()["disk_misses"] == 0

    def test_restart_survives_torn_index_tail(self, tmp_path):
        entries = [entry_for(*make_pair(i)) for i in range(3)]
        with RowStore(str(tmp_path)) as store:
            for e in entries:
                store.put(*e)
        with open(tmp_path / "index.log", "a", encoding="utf-8") as fh:
            fh.write("put deadbeef")  # crash mid-line: no nbytes, no newline
        with RowStore(str(tmp_path)) as store:
            assert store.warm_entries == len(entries)
            assert store.get(entries[0][0], entries[0][1]) is not None

    def test_restart_adopts_orphan_objects(self, tmp_path):
        entries = [entry_for(*make_pair(i)) for i in range(3)]
        with RowStore(str(tmp_path)) as store:
            for e in entries:
                store.put(*e)
        os.unlink(tmp_path / "index.log")  # journal lost, objects remain
        with RowStore(str(tmp_path)) as store:
            assert store.warm_entries == len(entries)
            for key, inputs, result in entries:
                assert_same_result(store.get(key, inputs), result)

    def test_restart_drops_vanished_files(self, tmp_path):
        entries = [entry_for(*make_pair(i)) for i in range(3)]
        with RowStore(str(tmp_path)) as store:
            for e in entries:
                store.put(*e)
            victim = entry_digest(entries[0][0]).hex()
        os.unlink(tmp_path / "objects" / victim[:2] / victim)
        with RowStore(str(tmp_path)) as store:
            assert store.warm_entries == len(entries) - 1
            assert store.get(entries[0][0], entries[0][1]) is None
            assert store.get(entries[1][0], entries[1][1]) is not None

    # -- locking ------------------------------------------------------- #
    def test_second_opener_degrades_to_read_only(self, tmp_path):
        key, inputs, result = entry_for(*make_pair(1))
        writer = RowStore(str(tmp_path))
        try:
            writer.put(key, inputs, result)
            reader = RowStore(str(tmp_path))
            try:
                assert writer.writable and not reader.writable
                # reads still served
                assert_same_result(reader.get(key, inputs), result)
                # writes silently refused, counted
                key2, inputs2, result2 = entry_for(*make_pair(2))
                assert not reader.put(key2, inputs2, result2)
                assert reader.skipped == 1
                assert not os.path.exists(
                    tmp_path
                    / "objects"
                    / entry_digest(key2).hex()[:2]
                    / entry_digest(key2).hex()
                )
            finally:
                reader.close()
        finally:
            writer.close()
        # lock released on close: next opener writes again
        with RowStore(str(tmp_path)) as store:
            assert store.writable

    def test_read_only_invalidate_tombstones_locally(self, tmp_path):
        key, inputs, result = entry_for(*make_pair(1))
        with RowStore(str(tmp_path)) as writer:
            writer.put(key, inputs, result)
            reader = RowStore(str(tmp_path))
            try:
                reader.invalidate(key)
                assert reader.get(key, inputs) is None  # dead here...
                assert_same_result(writer.get(key, inputs), result)  # ...alive there
            finally:
                reader.close()

    def test_close_is_idempotent_and_refuses_io(self, tmp_path):
        store = RowStore(str(tmp_path))
        key, inputs, result = entry_for(*make_pair(1))
        store.put(key, inputs, result)
        store.close()
        store.close()
        assert store.get(key, inputs) is None
        assert not store.put(key, inputs, result)

    # -- quarantine ---------------------------------------------------- #
    def test_corrupt_entry_quarantined_not_served(self, tmp_path):
        with RowStore(str(tmp_path)) as store:
            key, inputs, result = entry_for(*make_pair(1))
            store.put(key, inputs, result)
            digest_hex = entry_digest(key).hex()
            path = tmp_path / "objects" / digest_hex[:2] / digest_hex
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0x40
            path.write_bytes(bytes(blob))
            assert store.get(key, inputs) is None
            assert store.info()["disk_quarantined"] == 1
            assert not path.exists()
            assert (tmp_path / "quarantine" / digest_hex).exists()
            # tombstoned: repeated probes are plain misses, no re-count
            assert store.get(key, inputs) is None
            assert store.info()["disk_quarantined"] == 1
            # a fresh put clears the tombstone and serves again
            assert store.put(key, inputs, result)
            assert_same_result(store.get(key, inputs), result)

    def test_quarantine_survives_restart(self, tmp_path):
        with RowStore(str(tmp_path)) as store:
            key, inputs, result = entry_for(*make_pair(1))
            store.put(key, inputs, result)
            digest_hex = entry_digest(key).hex()
            path = tmp_path / "objects" / digest_hex[:2] / digest_hex
            path.write_bytes(b"garbage")
            store.get(key, inputs)
        with RowStore(str(tmp_path)) as store:
            assert store.warm_entries == 0
            assert store.get(key, inputs) is None
            assert store.info()["disk_quarantined"] == 0  # already sidelined last life

    # -- metrics ------------------------------------------------------- #
    def test_metrics_mirror_counters(self, tmp_path):
        registry = MetricsRegistry()
        with RowStore(str(tmp_path), metrics=registry, name="t") as store:
            key, inputs, result = entry_for(*make_pair(1))
            store.get(key, inputs)
            store.put(key, inputs, result)
            store.get(key, inputs)
            snap = registry.snapshot()
            assert snap.counter_total("repro_cache_disk_hits_total") == 1.0
            assert snap.counter_total("repro_cache_disk_misses_total") == 1.0
            assert snap.counter_total("repro_cache_disk_writes_total") == 1.0
            doc = registry.to_json()
            by_name = {family["name"]: family for family in doc["metrics"]}
            entries = by_name["repro_cache_disk_entries"]["series"]
            assert entries[0]["labels"] == {"store": "t"}
            assert entries[0]["value"] == 1.0
            assert by_name["repro_cache_disk_bytes"]["series"][0]["value"] > 0

    def test_info_is_flat_floats(self, tmp_path):
        with RowStore(str(tmp_path)) as store:
            info = store.info()
            for k, v in info.items():
                assert isinstance(v, (int, float)), k
            assert info["disk_writable"] == 1.0
            assert info["disk_max_bytes"] == float(store.max_bytes)

    def test_index_compaction_keeps_contents(self, tmp_path):
        entries = [entry_for(*make_pair(i)) for i in range(3)]
        with RowStore(str(tmp_path)) as store:
            for e in entries:
                store.put(*e)
            for _ in range(600):  # touch-churn far past the live count
                for key, inputs, _ in entries:
                    store.get(key, inputs)
            with open(tmp_path / "index.log", encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            assert lines < 1800  # compaction bounded the journal
        with RowStore(str(tmp_path)) as store:
            assert store.warm_entries == len(entries)
