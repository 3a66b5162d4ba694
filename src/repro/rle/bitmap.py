"""Bitstring ⇄ RLE conversion.

Two implementations are provided for the encoder:

* :func:`bits_to_runs` — vectorized with NumPy edge detection
  (``diff``-based), the production path.  Following the HPC guide, the
  Python loop over pixels is replaced by two array ops and a reshape.
* :func:`bits_to_runs_scalar` — the obvious pixel-by-pixel scan, kept as a
  differential-testing oracle.

The decoder :func:`runs_to_bits` paints slices into a zeroed array, which
is O(pixels) but with NumPy slice assignment per run.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro._typing import BitArray
from repro.errors import GeometryError
from repro.rle.run import Run

__all__ = [
    "bits_to_runs",
    "bits_to_runs_scalar",
    "runs_to_bits",
    "pack_run_array",
    "unpack_run_array",
]


def bits_to_runs(bits: BitArray) -> List[Run]:
    """Encode a boolean pixel row into a list of runs (vectorized).

    Rising/falling edges are found by differencing the row padded with a
    leading and trailing 0; each rising/falling pair delimits one run.
    The output is canonical by construction (maximal runs).
    """
    arr = np.asarray(bits, dtype=bool)
    if arr.ndim != 1:
        raise GeometryError(f"expected a 1-D row, got shape {arr.shape}")
    if arr.size == 0 or not arr.any():
        return []
    padded = np.zeros(arr.size + 2, dtype=np.int8)
    padded[1:-1] = arr
    edges = np.diff(padded)
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)
    return [Run(int(s), int(e - s)) for s, e in zip(starts, stops)]


def bits_to_runs_scalar(bits: Sequence[int]) -> List[Run]:
    """Reference pixel-by-pixel encoder (used to cross-check the fast one)."""
    runs: List[Run] = []
    start = None
    for i, bit in enumerate(bits):
        if bit and start is None:
            start = i
        elif not bit and start is not None:
            runs.append(Run(start, i - start))
            start = None
    if start is not None:
        runs.append(Run(start, len(bits) - start))
    return runs


def runs_to_bits(runs: Sequence[Run], width: int) -> BitArray:
    """Decode a run list into a boolean pixel row of length ``width``.

    Runs may be non-canonical (adjacent) and, for decoding purposes only,
    may even overlap — decoding is a union.  Runs must fit inside the row.
    """
    if width < 0:
        raise GeometryError(f"width must be >= 0, got {width}")
    out = np.zeros(width, dtype=bool)
    for run in runs:
        if run.stop > width:
            raise GeometryError(
                f"run {run.as_tuple()} does not fit in width {width}"
            )
        out[run.start : run.stop] = True
    return out


def pack_run_array(runs: Sequence[Run]) -> np.ndarray:
    """Pack runs into an ``(k, 2)`` int64 array of ``[start, end]`` rows.

    Structure-of-arrays access over all runs at once instead of
    per-object attribute chasing.
    """
    if not runs:
        return np.empty((0, 2), dtype=np.int64)
    return np.array([[r.start, r.end] for r in runs], dtype=np.int64)


def unpack_run_array(arr: np.ndarray) -> List[Run]:
    """Inverse of :func:`pack_run_array`; rows with ``end < start`` are
    treated as empty slots and skipped."""
    out: List[Run] = []
    for start, end in np.asarray(arr, dtype=np.int64).reshape(-1, 2):
        if end >= start:
            out.append(Run.from_endpoints(int(start), int(end)))
    return out
