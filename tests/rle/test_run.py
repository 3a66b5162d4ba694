"""Unit tests for the Run value type and its interval algebra."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.rle.run import Run, _trusted_runs


class TestConstruction:
    def test_basic_fields(self):
        run = Run(10, 3)
        assert run.start == 10
        assert run.length == 3
        assert run.end == 12
        assert run.stop == 13

    def test_from_endpoints(self):
        run = Run.from_endpoints(5, 9)
        assert run.as_tuple() == (5, 5)
        assert run.as_endpoints() == (5, 9)

    def test_single_pixel(self):
        run = Run(0, 1)
        assert run.start == run.end == 0

    def test_negative_start_rejected(self):
        with pytest.raises(EncodingError):
            Run(-1, 5)

    def test_zero_length_rejected(self):
        with pytest.raises(EncodingError):
            Run(0, 0)

    def test_negative_length_rejected(self):
        with pytest.raises(EncodingError):
            Run(3, -2)

    def test_empty_interval_rejected(self):
        with pytest.raises(EncodingError):
            Run.from_endpoints(5, 4)

    def test_immutable(self):
        run = Run(1, 2)
        with pytest.raises(AttributeError):
            run.start = 3  # type: ignore[misc]


class TestOrdering:
    def test_lexicographic_by_start(self):
        assert Run(3, 10) < Run(4, 1)

    def test_tie_broken_by_end(self):
        # the paper's step-1 comparison: equal starts, shorter run first
        assert Run(5, 2) < Run(5, 3)
        assert Run.from_endpoints(27, 29) < Run.from_endpoints(27, 30)

    def test_equal(self):
        assert Run(5, 2) == Run(5, 2)
        assert hash(Run(5, 2)) == hash(Run(5, 2))


class TestPredicates:
    def test_contains(self):
        run = Run(10, 3)  # pixels 10,11,12
        assert run.contains(10) and run.contains(12)
        assert not run.contains(9) and not run.contains(13)
        assert 11 in run and 13 not in run

    def test_overlaps_cases(self):
        a = Run.from_endpoints(5, 10)
        assert a.overlaps(Run.from_endpoints(10, 12))  # share pixel 10
        assert a.overlaps(Run.from_endpoints(0, 5))
        assert a.overlaps(Run.from_endpoints(6, 7))  # contained
        assert not a.overlaps(Run.from_endpoints(11, 12))  # adjacent only
        assert not a.overlaps(Run.from_endpoints(0, 3))

    def test_touches_includes_adjacency(self):
        a = Run.from_endpoints(5, 10)
        assert a.touches(Run.from_endpoints(11, 12))
        assert a.touches(Run.from_endpoints(3, 4))
        assert not a.touches(Run.from_endpoints(12, 13))

    def test_precedes(self):
        assert Run.from_endpoints(1, 3).precedes(Run.from_endpoints(4, 5))
        assert not Run.from_endpoints(1, 4).precedes(Run.from_endpoints(4, 5))


class TestAlgebra:
    def test_intersection(self):
        a = Run.from_endpoints(5, 10)
        b = Run.from_endpoints(8, 14)
        assert a.intersection(b) == Run.from_endpoints(8, 10)
        assert b.intersection(a) == Run.from_endpoints(8, 10)
        assert a.intersection(Run.from_endpoints(11, 12)) is None

    def test_merge_overlapping(self):
        a = Run.from_endpoints(5, 10)
        b = Run.from_endpoints(8, 14)
        assert a.merge(b) == Run.from_endpoints(5, 14)

    def test_merge_adjacent(self):
        a = Run.from_endpoints(5, 10)
        b = Run.from_endpoints(11, 12)
        assert a.merge(b) == Run.from_endpoints(5, 12)

    def test_merge_disjoint_rejected(self):
        with pytest.raises(EncodingError):
            Run.from_endpoints(1, 2).merge(Run.from_endpoints(5, 6))

    def test_shifted(self):
        assert Run(5, 3).shifted(4) == Run(9, 3)
        with pytest.raises(EncodingError):
            Run(2, 3).shifted(-5)

    def test_clipped(self):
        run = Run.from_endpoints(5, 10)
        assert run.clipped(7, 20) == Run.from_endpoints(7, 10)
        assert run.clipped(0, 6) == Run.from_endpoints(5, 6)
        assert run.clipped(11, 20) is None

    def test_split_at(self):
        run = Run.from_endpoints(5, 10)
        left, right = run.split_at(8)
        assert left == Run.from_endpoints(5, 7)
        assert right == Run.from_endpoints(8, 10)
        left, right = run.split_at(5)
        assert left is None and right == run
        left, right = run.split_at(11)
        assert left == run and right is None

    def test_pixels_iteration(self):
        assert list(Run(3, 3).pixels()) == [3, 4, 5]

    def test_len(self):
        assert len(Run(3, 7)) == 7


class TestProperties:
    @given(st.integers(0, 1000), st.integers(1, 100))
    def test_endpoint_roundtrip(self, start, length):
        run = Run(start, length)
        assert Run.from_endpoints(*run.as_endpoints()) == run

    @given(st.integers(0, 200), st.integers(1, 50), st.integers(0, 200), st.integers(1, 50))
    def test_overlap_symmetry(self, s1, l1, s2, l2):
        a, b = Run(s1, l1), Run(s2, l2)
        assert a.overlaps(b) == b.overlaps(a)
        assert a.touches(b) == b.touches(a)

    @given(st.integers(0, 200), st.integers(1, 50), st.integers(0, 200), st.integers(1, 50))
    def test_intersection_matches_set_semantics(self, s1, l1, s2, l2):
        a, b = Run(s1, l1), Run(s2, l2)
        expected = set(a.pixels()) & set(b.pixels())
        inter = a.intersection(b)
        got = set(inter.pixels()) if inter is not None else set()
        assert got == expected

    @given(st.integers(0, 200), st.integers(1, 50), st.integers(0, 200), st.integers(1, 50))
    def test_merge_matches_set_semantics_when_touching(self, s1, l1, s2, l2):
        a, b = Run(s1, l1), Run(s2, l2)
        if a.touches(b):
            merged = a.merge(b)
            assert set(merged.pixels()) == set(a.pixels()) | set(b.pixels())

    def test_str_uses_paper_notation(self):
        assert str(Run(10, 3)) == "(10,3)"


class TestTrustedRuns:
    """``_trusted_runs`` skips ``Run.__init__``: what it builds must be
    indistinguishable from runs built by ``Run(start, length)``."""

    def test_run_has_exactly_the_fields_the_builder_sets(self):
        # a new field would be left unset by the trusted builder
        assert [field.name for field in dataclasses.fields(Run)] == ["start", "length"]
        assert Run.__slots__ == ("start", "length")

    @given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(1, 2**20)), max_size=20))
    def test_equal_to_checked_runs(self, pairs):
        starts = [start for start, _ in pairs]
        lengths = [length for _, length in pairs]
        trusted = _trusted_runs(starts, lengths)
        checked = tuple(Run(start, length) for start, length in pairs)
        assert type(trusted) is tuple
        assert trusted == checked
        assert [hash(run) for run in trusted] == [hash(run) for run in checked]
        assert [repr(run) for run in trusted] == [repr(run) for run in checked]
        assert pickle.loads(pickle.dumps(trusted)) == checked
        for a, b in zip(trusted, checked):
            assert type(a) is Run
            assert not a < b and not b < a and a <= b and a >= b
        assert sorted(trusted + checked) == sorted(checked + checked)

    def test_still_frozen(self):
        (run,) = _trusted_runs([4], [2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.start = 3  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.length = 3  # type: ignore[misc]
        assert run == Run(4, 2)
