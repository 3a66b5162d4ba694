"""Tests for whole-image differencing and the high-level API."""

import numpy as np
import pytest

from repro.errors import GeometryError, ReproError, SystolicError
from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.core.api import image_diff, row_diff
from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images


def random_images(seed=0, h=10, w=60):
    rng = np.random.default_rng(seed)
    a = rng.random((h, w)) < 0.3
    b = a.copy()
    # flip a few short runs — the similar-images regime
    for _ in range(4):
        y = int(rng.integers(0, h))
        x = int(rng.integers(0, w - 4))
        b[y, x : x + 3] ^= True
    return RLEImage.from_array(a), RLEImage.from_array(b)


class TestRowDiff:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.a = RLERow.from_bits(rng.random(200) < 0.3)
        self.b = RLERow.from_bits(rng.random(200) < 0.3)
        self.expected = self.a.to_bits() ^ self.b.to_bits()

    @pytest.mark.parametrize("engine", ["systolic", "batched", "sequential"])
    def test_engines_agree_on_pixels(self, engine):
        result = row_diff(self.a, self.b, options=DiffOptions(engine=engine))
        assert (result.result.to_bits(200) == self.expected).all()

    @pytest.mark.parametrize("engine", ["systolic", "batched", "sequential"])
    def test_result_past_its_width_rejected(self, engine):
        # the result takes the first row's width; the second row's run
        # at pixels 8-9 survives the XOR and does not fit in width 4
        narrow = RLERow.from_pairs([(0, 2)], width=4)
        wide = RLERow.from_pairs([(8, 2)], width=20)
        options = DiffOptions(engine=engine)
        with pytest.raises(GeometryError, match="does not fit in width 4"):
            row_diff(narrow, wide, options=options)
        result = row_diff(wide, narrow, options=options).result
        assert result.width == 20
        assert result.to_pairs() == [(0, 2), (8, 2)]

    def test_unknown_engine(self):
        with pytest.raises(ReproError):
            row_diff(
                self.a,
                self.b,
                options=DiffOptions(engine="quantum"),  # type: ignore[arg-type]
            )

    def test_trace_flag(self):
        result = row_diff(
            self.a, self.b, options=DiffOptions(engine="systolic", record_trace=True)
        )
        assert result.trace is not None

    def test_sequential_result_shape(self):
        result = row_diff(self.a, self.b, options=DiffOptions(engine="sequential"))
        assert result.n_cells == 0
        assert result.k1 == self.a.run_count

    def test_paranoid_flag(self):
        result = row_diff(
            self.a, self.b, options=DiffOptions(engine="systolic", paranoid=True)
        )
        assert (result.result.to_bits(200) == self.expected).all()


class TestImageDiff:
    @pytest.mark.parametrize("engine", ["systolic", "batched", "sequential"])
    def test_engines_agree(self, engine):
        a, b = random_images(2)
        out = image_diff(a, b, options=DiffOptions(engine=engine))
        assert (out.image.to_array() == (a.to_array() ^ b.to_array())).all()

    def test_trace_flag_reaches_every_row(self):
        a, b = random_images(6, h=4)
        out = diff_images(
            a, b, options=DiffOptions(engine="systolic", record_trace=True)
        )
        assert all(r.trace is not None for r in out.row_results)

    def test_shape_mismatch(self):
        a, _ = random_images(3)
        with pytest.raises(GeometryError):
            image_diff(a, RLEImage.blank(1, 1))

    def test_unknown_engine(self):
        a, b = random_images(4)
        with pytest.raises(SystolicError):
            diff_images(a, b, options=DiffOptions(engine="bogus"))

    def test_canonical_output(self):
        a, b = random_images(5)
        out = image_diff(a, b, options=DiffOptions(canonical=True))
        assert out.image.is_canonical()

    def test_raw_output_preserves_fragments(self):
        # adjacent runs pass through the array untouched (ADJACENT state),
        # so the raw output keeps both fragments; canonical merges them
        a = RLEImage.from_row_pairs([[(0, 2)]], width=8)
        b = RLEImage.from_row_pairs([[(2, 2)]], width=8)
        raw = diff_images(
            a, b, options=DiffOptions(engine="systolic", canonical=False)
        )
        assert raw.image[0].to_pairs() == [(0, 2), (2, 2)]
        merged = diff_images(
            a, b, options=DiffOptions(engine="systolic", canonical=True)
        )
        assert merged.image[0].to_pairs() == [(0, 4)]

    def test_row_results_align_with_rows(self):
        a, b = random_images(6)
        out = image_diff(a, b)
        assert len(out.row_results) == a.height
        assert out.total_iterations == sum(r.iterations for r in out.row_results)
        assert out.max_iterations == max(r.iterations for r in out.row_results)
        assert out.mean_iterations == pytest.approx(
            out.total_iterations / a.height
        )

    def test_empty_image(self):
        a = RLEImage([], width=5)
        out = image_diff(a, a)
        assert out.total_iterations == 0
        assert out.max_iterations == 0
        assert out.mean_iterations == 0.0

    def test_stats_merged(self):
        a, b = random_images(7)
        out = image_diff(a, b, options=DiffOptions(engine="systolic"))
        merged = out.stats
        assert merged.get("busy_cells") == sum(
            r.stats.get("busy_cells") for r in out.row_results
        )

    def test_difference_pixels(self):
        a, b = random_images(8)
        out = image_diff(a, b)
        assert out.difference_pixels == int((a.to_array() ^ b.to_array()).sum())

    def test_fixed_n_cells_reused(self):
        a, b = random_images(9)
        out = diff_images(
            a, b, options=DiffOptions(engine="systolic", n_cells=128)
        )
        assert all(r.n_cells == 128 for r in out.row_results)
