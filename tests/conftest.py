"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random
import zlib
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import settings, strategies as st

# ---------------------------------------------------------------------- #
# Deterministic randomness: every randomized test draws from the `rng`
# fixture, seeded from REPRO_TEST_SEED (default 0) and the test's own
# node id, so (a) the whole suite is reproducible from one env var,
# (b) tests stay independent — reordering or deselecting tests never
# changes another test's stream.  The active seed is printed in the
# pytest header; rerun a failure with REPRO_TEST_SEED=<seed>.
# ---------------------------------------------------------------------- #
SUITE_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def pytest_report_header(config) -> str:
    return f"repro: REPRO_TEST_SEED={SUITE_SEED} (set to reproduce random draws)"


def _derive_seed(node_id: str) -> int:
    return SUITE_SEED ^ zlib.crc32(node_id.encode())


@pytest.fixture
def rng(request) -> random.Random:
    """A per-test ``random.Random``, reproducible from the printed seed."""
    return random.Random(_derive_seed(request.node.nodeid))


@pytest.fixture
def np_rng(request) -> np.random.Generator:
    """A per-test NumPy generator, same derivation as ``rng``."""
    return np.random.default_rng(_derive_seed(request.node.nodeid))

# ---------------------------------------------------------------------- #
# Hypothesis profiles: the default keeps the suite fast; select the
# "thorough" profile (HYPOTHESIS_PROFILE=thorough) for deep fuzzing runs.
# ---------------------------------------------------------------------- #
settings.register_profile("default", settings(deadline=None))
settings.register_profile(
    "thorough", settings(deadline=None, max_examples=1000)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from repro.core import native
from repro.rle.row import RLERow
from repro.rle.run import Run


# --------------------------------------------------------------------- #
# Step kernels: engines run the native step whenever it loaded; this     #
# fixture withholds it, so a test class can run again on the NumPy step  #
# --------------------------------------------------------------------- #
@pytest.fixture
def numpy_step():
    """Engines take the NumPy step (the loader hands out no kernel)."""
    with native.LOADER.withheld():
        yield

# --------------------------------------------------------------------- #
# The paper's worked example (Figure 1 / Figure 3)                       #
# --------------------------------------------------------------------- #
PAPER_ROW_1 = [(10, 3), (16, 2), (23, 2), (27, 3)]
PAPER_ROW_2 = [(3, 4), (8, 5), (15, 5), (23, 2), (27, 4)]
PAPER_XOR = [(3, 4), (8, 2), (15, 1), (18, 2), (30, 1)]
PAPER_WIDTH = 40


@pytest.fixture
def paper_rows() -> Tuple[RLERow, RLERow, RLERow]:
    """``(row1, row2, expected_xor)`` from the paper's Figure 1."""
    return (
        RLERow.from_pairs(PAPER_ROW_1, width=PAPER_WIDTH),
        RLERow.from_pairs(PAPER_ROW_2, width=PAPER_WIDTH),
        RLERow.from_pairs(PAPER_XOR, width=PAPER_WIDTH),
    )


# --------------------------------------------------------------------- #
# Hypothesis strategies                                                  #
# --------------------------------------------------------------------- #
@st.composite
def bit_rows(draw, max_width: int = 160, min_width: int = 0) -> np.ndarray:
    """A random boolean pixel row with variable density.

    Density is drawn per-example so hypothesis explores sparse, dense
    and intermediate regimes rather than hovering at 50 %.
    """
    width = draw(st.integers(min_width, max_width))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.random(width) < density


@st.composite
def rle_rows(draw, max_width: int = 160, canonical: bool = True) -> RLERow:
    """A valid RLE row.

    With ``canonical=False`` the canonical row's runs are randomly split
    into adjacent fragments — structurally valid, semantically identical,
    exercising the "adjacent runs permitted" part of the encoding spec.
    """
    bits = draw(bit_rows(max_width=max_width))
    row = RLERow.from_bits(bits)
    if canonical:
        return row
    fragments: List[Run] = []
    for run in row:
        remaining = run
        while remaining.length > 1 and draw(st.booleans()):
            cut = draw(st.integers(1, remaining.length - 1))
            left, right = remaining.split_at(remaining.start + cut)
            assert left is not None and right is not None
            fragments.append(left)
            remaining = right
        fragments.append(remaining)
    return RLERow(fragments, width=row.width)


@st.composite
def row_pairs(draw, max_width: int = 160) -> Tuple[RLERow, RLERow]:
    """Two equal-width rows (canonical), the XOR engines' input domain."""
    width = draw(st.integers(0, max_width))
    seed = draw(st.integers(0, 2**31 - 1))
    da = draw(st.floats(0.0, 1.0))
    db = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    return (
        RLERow.from_bits(rng.random(width) < da),
        RLERow.from_bits(rng.random(width) < db),
    )


@st.composite
def similar_row_pairs(draw, max_width: int = 400) -> Tuple[RLERow, RLERow]:
    """Highly similar pairs — the paper's target regime: a base row and
    a copy with a few flipped runs."""
    width = draw(st.integers(16, max_width))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    base = rng.random(width) < 0.3
    flipped = base.copy()
    n_errors = draw(st.integers(0, 4))
    for _ in range(n_errors):
        length = int(rng.integers(1, 6))
        start = int(rng.integers(0, max(1, width - length)))
        flipped[start : start + length] ^= True
    return RLERow.from_bits(base), RLERow.from_bits(flipped)
