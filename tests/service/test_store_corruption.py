"""Disk rot never costs a byte: corruption-injection over the store.

Uses :func:`~repro.service.chaos.corrupt_disk_entry` to damage
persisted entries *between* processes — the window the in-process chaos
engine cannot reach — and proves the fail-closed contract from every
angle:

- each fault flavour (bit flip, truncation, unlink, stale fingerprint)
  turns into a miss through its own validation layer, with the three
  detectable flavours quarantining the file and ``unlink`` degrading to
  a plain miss;
- under a 10 % fault rate over a realistic workload, a warm-restarted
  service still returns results byte-identical to a fault-free fresh
  run for *every* request — corrupted entries are recomputed, never
  served;
- quarantined files are moved aside (not deleted) and the
  ``repro_cache_disk_quarantined_total`` counter accounts for each one.
"""

import pytest

from repro.rle.row import RLERow
from repro.core.api import row_diff
from repro.core.options import DiffOptions
from repro.obs.metrics import MetricsRegistry
from repro.service import DiffService
from repro.service.chaos import DISK_FAULT_FLAVOURS, corrupt_disk_entry
from repro.service.store import RowStore, entry_digest
from repro.errors import ServiceError

from tests.service.test_service import FAST, assert_identical
from tests.service.test_store import entry_for, key_for

OPTS = DiffOptions(engine="batched")

#: Flavours the store can *see* are damage (and therefore quarantines);
#: ``unlink`` leaves nothing behind to quarantine.
QUARANTINING = ("bitflip", "truncate", "stale")


def make_pair(i: int, width: int = 48):
    return (
        RLERow.from_pairs([(i % 9, 3), (i % 7 + 14, 2), (30, 4)], width=width),
        RLERow.from_pairs([(i % 9 + 1, 3), (i % 7 + 15, 2)], width=width),
    )


class TestFlavours:
    @pytest.mark.parametrize("flavour", DISK_FAULT_FLAVOURS)
    def test_each_flavour_is_a_miss_never_wrong_bytes(self, tmp_path, flavour):
        a, b = make_pair(1)
        key, inputs, result = entry_for(a, b, OPTS)
        with RowStore(str(tmp_path)) as store:
            store.put(key, inputs, result)
            assert corrupt_disk_entry(store, a, b, OPTS, flavour=flavour)
            got = store.get(key, inputs)
            assert got is None, f"{flavour}: corrupt entry was served"
            if flavour in QUARANTINING:
                assert store.info()["disk_quarantined"] == 1
                digest_hex = entry_digest(key).hex()
                assert (tmp_path / "quarantine" / digest_hex).exists()
            else:
                assert store.info()["disk_quarantined"] == 0
            # the slot heals: a fresh put serves again
            assert store.put(key, inputs, result)
            healed = store.get(key, inputs)
            assert healed is not None
            assert_identical(healed, result)

    def test_unknown_flavour_rejected(self, tmp_path):
        a, b = make_pair(1)
        with RowStore(str(tmp_path)) as store:
            with pytest.raises(ServiceError, match="flavour"):
                corrupt_disk_entry(store, a, b, OPTS, flavour="gamma-ray")

    def test_absent_entry_reports_false(self, tmp_path):
        a, b = make_pair(1)
        with RowStore(str(tmp_path)) as store:
            assert not corrupt_disk_entry(store, a, b, OPTS)

    def test_stale_entry_is_internally_consistent(self, tmp_path):
        # the stale flavour must survive decode_entry (that is its
        # point: checksum-valid, wrong address) — prove the file still
        # parses, so only the address check can catch it
        from repro.service.store import decode_entry

        a, b = make_pair(2)
        key, inputs, result = entry_for(a, b, OPTS)
        with RowStore(str(tmp_path)) as store:
            store.put(key, inputs, result)
            corrupt_disk_entry(store, a, b, OPTS, flavour="stale")
            digest_hex = entry_digest(key).hex()
            blob = (tmp_path / "objects" / digest_hex[:2] / digest_hex).read_bytes()
            stored_key, _, _ = decode_entry(blob)  # parses cleanly
            assert stored_key != key  # ...but answers for someone else


class TestFaultRateWorkload:
    """10 % of the persisted working set rots between runs; the service
    must not notice — except in its hit rate and quarantine counters."""

    N_PAIRS = 40

    def _workload(self):
        return [make_pair(i) for i in range(self.N_PAIRS)]

    def test_byte_identical_under_ten_percent_rot(self, tmp_path, rng):
        pairs = self._workload()
        truth = [row_diff(a, b, options=OPTS) for a, b in pairs]
        cache_dir = str(tmp_path / "store")
        opts = OPTS.replace(cache_dir=cache_dir)

        with DiffService(opts, **FAST) as service:
            for a, b in pairs:
                service.row_diff(a, b)
        # rot 10% of the entries, random flavours
        n_faults = self.N_PAIRS // 10
        victims = rng.sample(range(self.N_PAIRS), n_faults)
        flavours = [rng.choice(DISK_FAULT_FLAVOURS) for _ in victims]
        registry = MetricsRegistry()
        with RowStore(cache_dir, metrics=registry) as store:
            assert store.warm_entries == self.N_PAIRS
            for i, flavour in zip(victims, flavours):
                a, b = pairs[i]
                assert corrupt_disk_entry(store, a, b, OPTS, flavour=flavour)
            # serve the whole workload against the damaged store
            for i, (a, b) in enumerate(pairs):
                key, inputs, want = key_for(a, b, OPTS), None, truth[i]
                inputs = (
                    tuple((r.start, r.length) for r in a.runs),
                    a.width,
                    tuple((r.start, r.length) for r in b.runs),
                    b.width,
                )
                got = store.get(key, inputs)
                if i in victims:
                    assert got is None, f"rotted entry {i} was served"
                else:
                    assert got is not None, f"healthy entry {i} missed"
                    assert_identical(got, want)
            want_quarantined = sum(1 for f in flavours if f in QUARANTINING)
            assert store.info()["disk_quarantined"] == want_quarantined
            assert (
                registry.snapshot().counter_total(
                    "repro_cache_disk_quarantined_total"
                )
                == want_quarantined
            )

    def test_service_recomputes_through_rot(self, tmp_path, rng):
        """End to end: warm-restart a DiffService over a rotted store;
        every response is byte-identical to a fault-free fresh run."""
        pairs = self._workload()
        truth = [row_diff(a, b, options=OPTS) for a, b in pairs]
        cache_dir = str(tmp_path / "store")
        opts = OPTS.replace(cache_dir=cache_dir)

        with DiffService(opts, **FAST) as service:
            for a, b in pairs:
                service.row_diff(a, b)

        n_faults = self.N_PAIRS // 10
        victims = rng.sample(range(self.N_PAIRS), n_faults)
        with RowStore(cache_dir) as store:
            for i in victims:
                a, b = pairs[i]
                flavour = rng.choice(DISK_FAULT_FLAVOURS)
                assert corrupt_disk_entry(store, a, b, OPTS, flavour=flavour)

        with DiffService(opts, **FAST) as service:
            for i, (a, b) in enumerate(pairs):
                assert_identical(service.row_diff(a, b), truth[i])
            info = service.cache.info()
            # healthy entries promoted from disk; rotted ones recomputed
            assert info["disk_hits"] >= self.N_PAIRS - n_faults
            assert info["hits"] >= self.N_PAIRS - n_faults
