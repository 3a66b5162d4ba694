"""The headline property-based tests: all four implementations agree,
and every bound the paper states (or conjectures) holds on random data.
"""

import numpy as np
from hypothesis import given, settings

from repro.rle.metrics import run_count_difference
from repro.rle.ops import xor_rows
from repro.rle.row import RLERow
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.core.sequential import sequential_xor
from tests.conftest import row_pairs, similar_row_pairs


class TestFourWayAgreement:
    @given(row_pairs())
    @settings(max_examples=80)
    def test_all_engines_compute_the_same_function(self, pair):
        a, b = pair
        oracle = a.to_bits() ^ b.to_bits()
        w = a.width
        assert (xor_rows(a, b).to_bits(w) == oracle).all()
        assert (sequential_xor(a, b).result.to_bits(w) == oracle).all()
        assert (BatchedXorEngine().diff(a, b).result.to_bits(w) == oracle).all()
        assert (SystolicXorMachine().diff(a, b).result.to_bits(w) == oracle).all()


class TestPaperBounds:
    @given(row_pairs())
    @settings(max_examples=80)
    def test_theorem_1_bound(self, pair):
        a, b = pair
        result = BatchedXorEngine().diff(a, b)
        assert result.iterations <= a.run_count + b.run_count

    @given(row_pairs())
    @settings(max_examples=80)
    def test_observation_k3_bound_for_compressed_inputs(self, pair):
        """The paper's unproven Observation, checked on canonical inputs:
        iterations <= (runs in the raw systolic output) + 1."""
        a, b = pair
        result = BatchedXorEngine().diff(a, b)
        assert result.iterations <= result.k3 + 1

    @given(similar_row_pairs())
    @settings(max_examples=50)
    def test_similar_images_terminate_quickly(self, pair):
        """For rows differing by <= 4 error runs, the iteration count
        stays near the k3+1 bound — far below k1+k2 whenever the rows
        carry many runs (the headline claim)."""
        a, b = pair
        result = BatchedXorEngine().diff(a, b)
        assert result.iterations <= result.k3 + 1

    @given(similar_row_pairs())
    @settings(max_examples=50)
    def test_run_difference_lower_bounds_nothing_but_correlates(self, pair):
        """|k1 - k2| never exceeds the iteration count by more than the
        few local interactions (sanity check of Section 5's explanation:
        the tail-ripple is at least the run-count difference whenever
        any shift happens)."""
        a, b = pair
        result = BatchedXorEngine().diff(a, b)
        if result.iterations > 0:
            assert run_count_difference(a, b) <= result.iterations + result.k3

    @given(row_pairs())
    @settings(max_examples=40)
    def test_output_run_count_at_most_k1_plus_k2(self, pair):
        """"the XOR operation can clearly not produce more than 2k runs"
        — i.e. never more than k1 + k2 runs in the raw output."""
        a, b = pair
        result = BatchedXorEngine().diff(a, b)
        assert result.result.run_count <= a.run_count + b.run_count


class TestStructuralGuarantees:
    @given(row_pairs())
    @settings(max_examples=60)
    def test_result_sorted_disjoint(self, pair):
        """Theorem 2 as an output property: the extracted runs are
        strictly ordered and non-overlapping."""
        result = BatchedXorEngine().diff(*pair).result
        for r1, r2 in zip(result.runs, result.runs[1:]):
            assert r1.end < r2.start

    @given(row_pairs(max_width=80))
    @settings(max_examples=25)
    def test_paranoid_mode_never_fires_on_clean_hardware(self, pair):
        a, b = pair
        SystolicXorMachine(paranoid=True).diff(a, b)

    @given(row_pairs())
    @settings(max_examples=40)
    def test_iterations_zero_iff_no_big_runs(self, pair):
        a, b = pair
        result = BatchedXorEngine().diff(a, b)
        if b.run_count == 0:
            assert result.iterations == 0
        if result.iterations == 0:
            assert b.run_count == 0


class TestAdversarialPatterns:
    """Hand-crafted worst/degenerate cases beyond random sampling."""

    def test_interleaved_combs(self):
        # maximally interleaved single-pixel runs: a = even, b = odd
        w = 120
        a = RLERow.from_pairs([(i, 1) for i in range(0, w, 2)], width=w)
        b = RLERow.from_pairs([(i, 1) for i in range(1, w, 2)], width=w)
        result = BatchedXorEngine().diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))
        assert result.iterations <= a.run_count + b.run_count

    def test_shifted_comb_cancels_nothing(self):
        w = 100
        a = RLERow.from_pairs([(i, 2) for i in range(0, w - 4, 5)], width=w)
        b = RLERow.from_pairs([(i + 2, 2) for i in range(0, w - 4, 5)], width=w)
        result = SystolicXorMachine(paranoid=True).diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))

    def test_one_giant_run_vs_comb(self):
        w = 100
        a = RLERow.from_pairs([(0, w)], width=w)
        b = RLERow.from_pairs([(i, 1) for i in range(1, w, 3)], width=w)
        result = SystolicXorMachine(paranoid=True).diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))

    def test_nested_runs(self):
        a = RLERow.from_pairs([(10, 80)], width=100)
        b = RLERow.from_pairs([(20, 10), (40, 10), (60, 10)], width=100)
        result = SystolicXorMachine(paranoid=True).diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))

    def test_prefix_identical_suffix_different(self):
        rng = np.random.default_rng(0)
        base = rng.random(300) < 0.3
        other = base.copy()
        other[250:] = rng.random(50) < 0.5
        a, b = RLERow.from_bits(base), RLERow.from_bits(other)
        result = SystolicXorMachine(paranoid=True).diff(a, b)
        assert result.result.same_pixels(xor_rows(a, b))
