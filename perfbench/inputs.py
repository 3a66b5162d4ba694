"""Seeded inputs for the four workloads, and the NumPy oracle that checks
the program's outputs.

Every generator takes the run's seed and nothing else, so one seed gives
one input set.  Expected outputs are NumPy bitmap XORs of each op's
inputs, decoded with NumPy exactly as ``RLEImage.to_array`` would and
computed before any timed phase; a check decodes the program's
run-length output the same way and compares.

The Figure 5 rows follow the paper's Section 5 recipe (base runs 4-20 px
at 30 % density, error runs 2-6 px flipped at a chosen pixel fraction)
but are drawn with NumPy in bulk: the ``unique-rows`` workload needs tens
of thousands of fresh pairs per run, and drawing them run by run would
take longer than the run itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.rle.image import RLEImage
from repro.rle.row import RLERow
from repro.rle.run import Run
from repro.workloads.motion import Sprite, generate_sequence
from repro.workloads.pcb import PCBLayout, generate_board, inject_defects

DENSITY = 0.30
BASE_RUN = (4, 20)
ERROR_RUN = (2, 6)

STRIP_ROWS = 64
STRIP_WIDTH = 10_000
#: Distinct strip pairs cycled by ``fig5-strip`` (``image_diff`` keeps no
#: state between calls, so cycling a pool is as fair as fresh strips).
STRIP_POOL = 4
STRIP_FRACTIONS = (0.005, 0.10)

UNIQUE_WIDTH = 512
UNIQUE_FRACTION = 0.05
UNIQUE_REQUEST = 256
#: Requests per generated block; one block is one pass of ``unique-rows``.
UNIQUE_BLOCK = 8

PCB_BOARDS = 20
PCB_DEFECTS = 4
#: Where each station's one 512x512 board sits in its 20-board pass —
#: apart, so the two stations never send their large boards together.
PCB_LARGE_AT = (9, 19)

CLIP_SIZE = 256
CLIP_FRAMES = 48

# One stream of random numbers per workload and seed.
_TAGS = {"fig5-strip": 1, "unique-rows": 2, "pcb-inspect": 3, "motion-stream": 4}


def rng_for(workload: str, seed: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[workload], seed, *more])


# --------------------------------------------------------------------- #
# Section 5 rows, drawn in bulk                                         #
# --------------------------------------------------------------------- #
def _walk(
    rng: np.random.Generator,
    width: int,
    run: Tuple[int, int],
    gap_lo: int,
    gap_hi: np.ndarray,
) -> np.ndarray:
    """Bitmap rows of alternating gaps and runs with uniform lengths;
    row ``i`` draws its gaps from ``[gap_lo, gap_hi[i]]``."""
    n = len(gap_hi)
    period = (run[0] + run[1]) / 2 + (gap_lo + int(gap_hi.min())) / 2
    k = int(width / period * 1.5) + 8
    while True:
        runs = rng.integers(run[0], run[1] + 1, (n, k))
        span = (gap_hi - gap_lo + 1)[:, None]
        gaps = gap_lo + (rng.random((n, k)) * span).astype(np.int64)
        ends = np.cumsum(gaps + runs, axis=1)
        if (ends[:, -1] >= width).all():
            break
        k *= 2
    starts = ends - runs
    keep = starts < width
    base = (np.arange(n)[:, None] * (width + 1) + np.zeros_like(starts))[keep]
    size = n * (width + 1)
    edges = np.bincount(base + starts[keep], minlength=size) - np.bincount(
        base + np.minimum(ends[keep], width), minlength=size
    )
    return np.cumsum(edges.reshape(n, width + 1), axis=1)[:, :width] > 0


def section5_pairs(
    rng: np.random.Generator, n: int, width: int, fractions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` base rows and their copies with ``fractions[i]`` of the
    pixels flipped in 2-6 px runs, as two boolean bitmaps."""
    mean_run = (BASE_RUN[0] + BASE_RUN[1]) / 2
    base_gap = mean_run * (1 - DENSITY) / DENSITY
    base = _walk(rng, width, BASE_RUN, 1, np.full(n, round(2 * base_gap - 1)))
    mean_err = (ERROR_RUN[0] + ERROR_RUN[1]) / 2
    err_gap = np.rint(2 * mean_err * (1 - fractions) / fractions).astype(np.int64)
    mask = _walk(rng, width, ERROR_RUN, 0, err_gap)
    return base, base ^ mask


class RowEncoder:
    """Turns bitmap rows into ``RLERow``s, sharing one immutable ``Run``
    per distinct ``(start, length)`` so bulk inputs stay small."""

    def __init__(self) -> None:
        self._runs: Dict[Tuple[int, int], Run] = {}

    def rows(self, bits: np.ndarray) -> List[RLERow]:
        n, width = bits.shape
        padded = np.zeros((n, width + 2), dtype=np.int8)
        padded[:, 1:-1] = bits
        step = np.diff(padded, axis=1)
        row_of, starts = np.nonzero(step == 1)
        _, stops = np.nonzero(step == -1)
        counts = np.bincount(row_of, minlength=n).tolist()
        pairs = list(zip(starts.tolist(), (stops - starts).tolist()))
        out: List[RLERow] = []
        pos = 0
        for count in counts:
            runs = []
            for pair in pairs[pos : pos + count]:
                run = self._runs.get(pair)
                if run is None:
                    run = self._runs[pair] = Run(*pair)
                runs.append(run)
            out.append(RLERow(runs, width=width))
            pos += count
        return out


# --------------------------------------------------------------------- #
# The oracle                                                            #
# --------------------------------------------------------------------- #
def decode(rows: Sequence[RLERow], width: int) -> np.ndarray:
    """Bitmap of the program's run-length rows, decoded with NumPy."""
    n = len(rows)
    ons: List[int] = []
    offs: List[int] = []
    for i, row in enumerate(rows):
        base = i * (width + 1)
        for run in row.runs:
            ons.append(base + min(run.start, width))
            offs.append(base + min(run.start + run.length, width))
    size = n * (width + 1)
    edges = np.bincount(np.asarray(ons, dtype=np.int64), minlength=size) - np.bincount(
        np.asarray(offs, dtype=np.int64), minlength=size
    )
    return np.cumsum(edges.reshape(n, width + 1), axis=1)[:, :width] > 0


def xor_of(rows_a: Sequence[RLERow], rows_b: Sequence[RLERow], width: int) -> np.ndarray:
    """The expected output: NumPy XOR of the inputs' decoded bitmaps."""
    return decode(rows_a, width) ^ decode(rows_b, width)


def matches(rows: Sequence[RLERow], expected: np.ndarray) -> bool:
    return len(rows) == expected.shape[0] and bool(
        np.array_equal(decode(rows, expected.shape[1]), expected)
    )


# --------------------------------------------------------------------- #
# Per-workload inputs                                                   #
# --------------------------------------------------------------------- #
@dataclass
class Pair:
    """One op's inputs and its expected output bitmap."""

    rows_a: List[RLERow]
    rows_b: List[RLERow]
    expected: np.ndarray

    @property
    def runs_per_row(self) -> float:
        runs = sum(r.run_count for r in self.rows_a) + sum(r.run_count for r in self.rows_b)
        return runs / (2 * len(self.rows_a))


def strip_pool(seed: int, count: int = STRIP_POOL) -> List[Tuple[RLEImage, RLEImage, Pair]]:
    """``count`` 64-row strips of 10 000-px Figure 5 rows.  Each strip's
    per-row error fractions are stratified over 0.5-10 % so every strip
    carries the same spread of work."""
    rng = rng_for("fig5-strip", seed)
    encoder = RowEncoder()
    lo, hi = STRIP_FRACTIONS
    pool = []
    for _ in range(count):
        fractions = lo + (hi - lo) * (np.arange(STRIP_ROWS) + rng.random(STRIP_ROWS)) / STRIP_ROWS
        a, b = section5_pairs(rng, STRIP_ROWS, STRIP_WIDTH, rng.permutation(fractions))
        rows_a, rows_b = encoder.rows(a), encoder.rows(b)
        pair = Pair(rows_a, rows_b, xor_of(rows_a, rows_b, STRIP_WIDTH))
        pool.append((RLEImage(rows_a, STRIP_WIDTH), RLEImage(rows_b, STRIP_WIDTH), pair))
    return pool


def unique_block(seed: int, block: int, requests: int = UNIQUE_BLOCK) -> List[Pair]:
    """Block ``block`` of the seed's stream of never-repeating 512-px row
    pairs (30 % density, 5 % differing), as 256-pair requests."""
    rng = rng_for("unique-rows", seed, block)
    n = requests * UNIQUE_REQUEST
    a, b = section5_pairs(rng, n, UNIQUE_WIDTH, np.full(n, UNIQUE_FRACTION))
    encoder = RowEncoder()
    rows_a, rows_b = encoder.rows(a), encoder.rows(b)
    out = []
    for i in range(0, n, UNIQUE_REQUEST):
        ra, rb = rows_a[i : i + UNIQUE_REQUEST], rows_b[i : i + UNIQUE_REQUEST]
        out.append(Pair(ra, rb, xor_of(ra, rb, UNIQUE_WIDTH)))
    return out


@dataclass
class Scan:
    """One inspection: the golden board, a defective scan, the oracle."""

    reference: RLEImage
    scan: RLEImage
    pair: Pair


def pcb_passes(seed: int, stations: int = 2) -> List[List[Scan]]:
    """Each station's 20-board pass: 19 256x256 scans and one 512x512
    scan, every scan the golden board plus 4 defects under its own seed."""
    rng = rng_for("pcb-inspect", seed)
    small = generate_board(PCBLayout(), seed=int(rng.integers(1 << 62)))
    large = generate_board(PCBLayout(height=512, width=512), seed=int(rng.integers(1 << 62)))
    passes = []
    for station in range(stations):
        boards = []
        for i in range(PCB_BOARDS):
            golden = large if i == PCB_LARGE_AT[station] else small
            scan, _ = inject_defects(golden, PCB_DEFECTS, seed=int(rng.integers(1 << 62)))
            ra, rb = list(golden), list(scan)
            boards.append(Scan(golden, scan, Pair(ra, rb, xor_of(ra, rb, golden.width))))
        passes.append(boards)
    return passes


@dataclass
class Clip:
    frames: List[RLEImage]
    bitmaps: List[np.ndarray]


def motion_clips(seed: int, cameras: int = 2) -> List[Clip]:
    """One 48-frame 256x256 clip per camera.  Sprite sizes and speeds are
    fixed and their start points seeded, so every seed moves the same
    amount and both sprites stay in view for the whole clip."""
    rng = rng_for("motion-stream", seed)
    clips = []
    for _ in range(cameras):
        sprites = [
            Sprite("rect", 5, (float(rng.integers(16, 240)), 10.0), (0.0, 3.0)),
            Sprite("disc", 4, (10.0, float(rng.integers(20, 200))), (2.0, 0.5)),
        ]
        frames = generate_sequence(
            CLIP_SIZE, CLIP_SIZE, CLIP_FRAMES, sprites=sprites, seed=int(rng.integers(1 << 62))
        )
        clips.append(Clip(frames, [decode(f.rows, CLIP_SIZE) for f in frames]))
    return clips
