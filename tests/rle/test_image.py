"""Tests for the 2-D RLEImage container."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.rle.image import RLEImage
from repro.rle.row import RLERow


def random_image(seed: int, h: int = 12, w: int = 20, density: float = 0.4) -> RLEImage:
    rng = np.random.default_rng(seed)
    return RLEImage.from_array(rng.random((h, w)) < density)


class TestConstruction:
    def test_from_array(self):
        arr = np.array([[0, 1, 1], [1, 0, 0]], dtype=bool)
        img = RLEImage.from_array(arr)
        assert img.shape == (2, 3)
        assert img[0].to_pairs() == [(1, 2)]
        assert img[1].to_pairs() == [(0, 1)]

    def test_from_array_rejects_1d(self):
        with pytest.raises(GeometryError):
            RLEImage.from_array(np.zeros(5, dtype=bool))

    def test_blank(self):
        img = RLEImage.blank(3, 4)
        assert img.shape == (3, 4)
        assert img.pixel_count == 0

    def test_from_row_pairs(self):
        img = RLEImage.from_row_pairs([[(0, 2)], [], [(3, 1)]], width=5)
        assert img.height == 3
        assert img.total_runs == 2

    def test_width_inferred_from_rows(self):
        rows = [RLERow.from_pairs([(0, 2)], width=9), RLERow.empty(9)]
        assert RLEImage(rows).width == 9

    def test_inconsistent_widths_rejected(self):
        rows = [RLERow.empty(5), RLERow.empty(6)]
        with pytest.raises(GeometryError):
            RLEImage(rows)

    def test_width_restamped(self):
        rows = [RLERow.from_pairs([(0, 2)])]
        img = RLEImage(rows, width=10)
        assert img[0].width == 10

    def test_empty_image(self):
        img = RLEImage([], width=7)
        assert img.shape == (0, 7)

    @pytest.mark.parametrize(
        "rows, width",
        [(0, 8.5), (0, "12"), (0, True), (0, -3), (1, 8.5)],
        ids=["float", "str", "bool", "negative", "float-one-row"],
    )
    def test_non_integer_or_negative_width_rejected(self, rows, width):
        row = RLERow.from_pairs([(0, 2)], width=8)
        with pytest.raises(GeometryError):
            RLEImage([row] * rows, width=width)


class TestStats:
    def test_counts(self):
        img = RLEImage.from_row_pairs([[(0, 2), (4, 1)], [(1, 3)]], width=6)
        assert img.total_runs == 3
        assert img.pixel_count == 6
        assert img.run_count_per_row() == [2, 1]

    def test_density(self):
        img = RLEImage.from_row_pairs([[(0, 5)], []], width=5)
        assert img.density() == 0.5
        assert RLEImage([], width=5).density() == 0.0


class TestRoundtrip:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 16), st.integers(1, 30))
    def test_array_roundtrip(self, seed, h, w):
        rng = np.random.default_rng(seed)
        arr = rng.random((h, w)) < rng.random()
        img = RLEImage.from_array(arr)
        assert (img.to_array() == arr).all()

    def test_canonical(self):
        img = RLEImage.from_row_pairs([[(0, 2), (2, 2)]], width=6)
        assert not img.is_canonical()
        canon = img.canonical()
        assert canon.is_canonical()
        assert canon[0].to_pairs() == [(0, 4)]
        assert img.same_pixels(canon)

    def test_same_pixels_shape_mismatch(self):
        assert not RLEImage.blank(2, 3).same_pixels(RLEImage.blank(3, 2))

    def test_equality_and_hash(self):
        a = random_image(1)
        b = RLEImage.from_array(a.to_array())
        assert a == b and hash(a) == hash(b)
        assert a != random_image(2)

    def test_map_rows(self):
        img = RLEImage.from_row_pairs([[(0, 2)], [(1, 1)]], width=5)
        cleared = img.map_rows(lambda r: RLERow.empty(5))
        assert cleared.pixel_count == 0
        assert cleared.shape == img.shape


class TestAscii:
    def test_render(self):
        img = RLEImage.from_row_pairs([[(1, 2)], []], width=4)
        assert img.to_ascii() == ".##.\n...."

    def test_custom_chars(self):
        img = RLEImage.from_row_pairs([[(0, 1)]], width=2)
        assert img.to_ascii(on="X", off="_") == "X_"
