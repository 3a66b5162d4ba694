"""Unit and property tests for RLERow."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError, GeometryError
from repro.rle.row import RLERow
from repro.rle.run import Run
from tests.conftest import bit_rows, rle_rows


class TestConstruction:
    def test_from_pairs(self):
        row = RLERow.from_pairs([(3, 4), (8, 5)])
        assert row.run_count == 2
        assert row[0] == Run(3, 4)

    def test_from_endpoints(self):
        row = RLERow.from_endpoints([(3, 6), (8, 12)])
        assert row.to_pairs() == [(3, 4), (8, 5)]

    def test_accepts_run_objects(self):
        row = RLERow([Run(1, 2), Run(5, 1)])
        assert row.to_pairs() == [(1, 2), (5, 1)]

    def test_empty(self):
        row = RLERow.empty(10)
        assert row.run_count == 0 and row.width == 10 and not row

    def test_full(self):
        row = RLERow.full(10)
        assert row.to_pairs() == [(0, 10)]
        assert RLERow.full(0).run_count == 0

    def test_unordered_rejected(self):
        with pytest.raises(EncodingError):
            RLERow.from_pairs([(8, 2), (3, 2)])

    def test_overlap_rejected(self):
        with pytest.raises(EncodingError):
            RLERow.from_pairs([(3, 5), (6, 2)])

    def test_equal_starts_rejected(self):
        with pytest.raises(EncodingError):
            RLERow.from_pairs([(3, 1), (3, 2)])

    def test_adjacent_allowed(self):
        # the paper: "it is permissible ... for two intervals ... to be
        # directly adjacent"
        row = RLERow.from_pairs([(3, 2), (5, 2)])
        assert row.run_count == 2
        assert not row.is_canonical()

    def test_width_too_small_rejected(self):
        with pytest.raises(GeometryError):
            RLERow.from_pairs([(3, 4)], width=6)

    def test_width_exact_fit(self):
        row = RLERow.from_pairs([(3, 4)], width=7)
        assert row.width == 7

    def test_negative_width_rejected(self):
        with pytest.raises(GeometryError):
            RLERow.empty(-1)

    @pytest.mark.parametrize(
        "pairs, width, error",
        [
            pytest.param([(0.9, 2.7)], 8.5, EncodingError, id="float-run"),
            pytest.param([(0.9, 2.7)], 8, EncodingError, id="float-run-int-width"),
            pytest.param([("3", "2")], 10, EncodingError, id="str-run"),
            pytest.param([(None, 2)], 10, EncodingError, id="none-run"),
            pytest.param([(3, 2)], 8.5, GeometryError, id="float-width"),
            pytest.param([], True, GeometryError, id="bool-width"),
            pytest.param([], "10", GeometryError, id="str-width"),
        ],
    )
    def test_non_integers_rejected(self, pairs, width, error):
        with pytest.raises(error):
            RLERow.from_pairs(pairs, width=width)

    def test_numpy_integers_accepted(self):
        row = RLERow.from_pairs([(np.int64(3), np.int32(2))], width=np.int64(10))
        assert row.to_pairs() == [(3, 2)]
        assert row.width == 10 and type(row.width) is int


class TestFromBits:
    def test_simple(self):
        row = RLERow.from_bits("0011100110")
        assert row.to_pairs() == [(2, 3), (7, 2)]
        assert row.width == 10

    def test_all_zero(self):
        assert RLERow.from_bits("0000").run_count == 0

    def test_all_one(self):
        assert RLERow.from_bits("1111").to_pairs() == [(0, 4)]

    def test_edges(self):
        assert RLERow.from_bits("1001").to_pairs() == [(0, 1), (3, 1)]

    def test_empty_string(self):
        row = RLERow.from_bits("")
        assert row.run_count == 0 and row.width == 0

    def test_numpy_input(self):
        bits = np.array([True, False, True, True])
        assert RLERow.from_bits(bits).to_pairs() == [(0, 1), (2, 2)]

    def test_2d_rejected(self):
        with pytest.raises(GeometryError):
            RLERow.from_bits(np.zeros((2, 2), dtype=bool))

    @given(bit_rows())
    def test_roundtrip(self, bits):
        row = RLERow.from_bits(bits)
        assert (row.to_bits() == bits).all()
        assert row.is_canonical()


class TestAccessors:
    def test_counts(self):
        row = RLERow.from_pairs([(3, 4), (8, 5)], width=20)
        assert row.run_count == 2
        assert row.pixel_count == 9
        assert row.extent == 13
        assert len(row) == 2

    def test_get_pixel(self):
        row = RLERow.from_pairs([(3, 4), (10, 2)], width=20)
        expected = row.to_bits()
        assert all(row.get(i) == bool(expected[i]) for i in range(20))

    def test_get_outside(self):
        row = RLERow.from_pairs([(3, 4)], width=20)
        assert not row.get(100)

    def test_slice_returns_row(self):
        row = RLERow.from_pairs([(1, 1), (3, 1), (5, 1)])
        sliced = row[1:]
        assert isinstance(sliced, RLERow)
        assert sliced.to_pairs() == [(3, 1), (5, 1)]

    def test_density(self):
        row = RLERow.from_pairs([(0, 5)], width=10)
        assert row.density() == 0.5
        assert row.density(width=20) == 0.25
        assert RLERow.empty(0).density() == 0.0

    def test_iteration(self):
        runs = [Run(1, 2), Run(5, 1)]
        assert list(RLERow(runs)) == runs


class TestCanonicalization:
    def test_merges_adjacent(self):
        row = RLERow.from_pairs([(3, 2), (5, 2), (9, 1)])
        assert row.canonical().to_pairs() == [(3, 4), (9, 1)]

    def test_merges_chains(self):
        row = RLERow.from_pairs([(0, 1), (1, 1), (2, 1), (3, 1)])
        assert row.canonical().to_pairs() == [(0, 4)]

    def test_canonical_is_identity_when_canonical(self):
        row = RLERow.from_pairs([(3, 2), (7, 2)])
        assert row.canonical() is row

    @given(rle_rows(canonical=False))
    def test_canonical_preserves_pixels(self, row):
        assert (row.canonical().to_bits() == row.to_bits()).all()

    @given(rle_rows(canonical=False))
    def test_canonical_idempotent(self, row):
        once = row.canonical()
        assert once.canonical() == once
        assert once.is_canonical()


class TestEquality:
    def test_structural_vs_semantic(self):
        a = RLERow.from_pairs([(3, 4)])
        b = RLERow.from_pairs([(3, 2), (5, 2)])
        assert a != b
        assert a.same_pixels(b)

    def test_hashable(self):
        a = RLERow.from_pairs([(3, 4)])
        b = RLERow.from_pairs([(3, 4)])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_not_equal_other_types(self):
        assert RLERow.from_pairs([(3, 4)]) != [(3, 4)]

    def test_with_width(self):
        row = RLERow.from_pairs([(3, 4)]).with_width(20)
        assert row.width == 20


def _array_twin(row):
    """``row`` rebuilt over the run-bounds array the batched engine hands
    its result rows (starts, then inclusive ends)."""
    bounds = np.array(
        ([r.start for r in row.runs], [r.end for r in row.runs]), dtype=np.int64
    ).reshape(2, row.run_count)
    return RLERow._trusted(bounds, row.width)


#: Everything a caller can read off a row, each as a comparable value.
_READS = {
    "runs": lambda r: r.runs,
    "run_count": lambda r: r.run_count,
    "len": len,
    "bool": bool,
    "extent": lambda r: r.extent,
    "pixel_count": lambda r: r.pixel_count,
    "is_canonical": lambda r: r.is_canonical(),
    "canonical": lambda r: (r.canonical().to_pairs(), r.canonical().width),
    "hash": hash,
    "to_pairs": lambda r: r.to_pairs(),
    "to_bits": lambda r: r.to_bits().tolist(),
    "get": lambda r: [r.get(i) for i in range(-1, r.extent + 2)],
    "slice": lambda r: [(s.to_pairs(), s.width) for s in (r[1:], r[::2], r[:-1])],
    "with_width": lambda r: [
        (w.to_pairs(), w.width) for w in (r.with_width(r.width), r.with_width(r.extent + 3))
    ],
}


class TestArrayBackedRow:
    """A row over the engine's run-bounds array is the same row as the
    one built from ``Run`` objects, before and after its runs are read."""

    @given(st.one_of(rle_rows(), rle_rows(canonical=False)))
    def test_reads_agree_with_run_twin(self, row):
        for name, read in _READS.items():
            fresh, materialized = _array_twin(row), _array_twin(row)
            assert materialized.runs == row.runs
            assert isinstance(materialized._data, tuple), "arrays kept after runs read"
            assert read(fresh) == read(row), name
            assert read(materialized) == read(row), name

    @given(st.one_of(rle_rows(), rle_rows(canonical=False)))
    def test_equality_hash_and_pixels_both_ways(self, row):
        canonical, empty = row.canonical(), RLERow.empty()
        for materialized in (False, True):
            twin, other = _array_twin(row), _array_twin(canonical)
            if materialized:
                twin.runs
            # array against array first: the reads after these build runs
            assert (twin == other) == (row == canonical)
            assert (other == twin) == (canonical == row)
            assert (twin == _array_twin(empty)) == (row == empty)
            assert twin == _array_twin(row)
            assert twin.same_pixels(other)
            assert (twin.canonical() is twin) == row.is_canonical()
            assert twin == row and row == twin
            assert hash(twin) == hash(row)
            assert twin.same_pixels(row) and row.same_pixels(twin)

    def test_with_width_keeps_or_restamps(self):
        row = _array_twin(RLERow.from_pairs([(3, 4)], width=10))
        assert row.with_width(10) is row
        wider = row.with_width(20)
        assert wider.width == 20 and wider.to_pairs() == [(3, 4)]
        assert row.with_width(None).width is None
        with pytest.raises(GeometryError):
            row.with_width(6)

    def test_threads_share_fresh_rows(self):
        # several threads read the same fresh rows in step, so one builds
        # a row's Run tuple while the others read its counts; a row that
        # dropped its arrays in a store apart from the one publishing the
        # tuple would read as neither form in between
        rng = np.random.default_rng(7)
        sources = [RLERow.from_bits(rng.random(400) < 0.5) for _ in range(200)]
        expected = [(r.runs, r.run_count, r.extent) for r in sources]
        errors = []
        n_threads = 6

        def read_all(shared, barrier, runs_first):
            barrier.wait()
            try:
                for row, (runs, count, extent) in zip(shared, expected):
                    if runs_first:
                        got = (row.runs, row.run_count, row.extent)
                    else:
                        got = tuple(reversed((row.extent, row.run_count, row.runs)))
                    if got != (runs, count, extent):
                        errors.append(f"read {got[1:]}, expected {(count, extent)}")
            except Exception as exc:  # reported on the test's thread
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                shared = [_array_twin(r) for r in sources]
                barrier = threading.Barrier(n_threads, timeout=60)
                threads = [
                    threading.Thread(target=read_all, args=(shared, barrier, k % 2 == 0))
                    for k in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:5]
