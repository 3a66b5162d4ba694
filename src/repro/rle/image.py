""":class:`RLEImage` — a 2-D binary image stored row-by-row in RLE.

The paper processes images one row at a time ("the parallel systolic
system which computes the difference between the corresponding rows of two
images"); :class:`RLEImage` is the container that feeds those rows through
the machine and collects the results.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro._typing import BitImage
from repro.errors import GeometryError
from repro.rle.row import RLERow, _checked_width

__all__ = ["RLEImage"]


class RLEImage:
    """An immutable 2-D binary image encoded as one :class:`RLERow` per row.

    Parameters
    ----------
    rows:
        The image rows, top to bottom.  All rows are re-stamped with the
        image width.
    width:
        Number of pixel columns.  Required when ``rows`` is empty or no
        row carries a width.
    """

    __slots__ = ("_rows", "_width")

    def __init__(
        self, rows: Iterable[RLERow], width: Optional[int] = None
    ) -> None:
        rows = list(rows)
        if width is None:
            widths = {r.width for r in rows if r.width is not None}
            if len(widths) > 1:
                raise GeometryError(f"rows carry inconsistent widths: {sorted(widths)}")
            if widths:
                width = widths.pop()
            else:
                width = max((r.extent for r in rows), default=0)
        # RLERow's check: a bool, float, string or negative width raises
        # GeometryError instead of being truncated or parsed.
        self._width = cast(int, _checked_width(width))
        self._rows: Tuple[RLERow, ...] = tuple(r.with_width(self._width) for r in rows)

    # ------------------------------------------------------------------ #
    # Constructors                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_array(cls, array: BitImage) -> "RLEImage":
        """Encode a 2-D boolean/0-1 array."""
        arr = np.asarray(array, dtype=bool)
        if arr.ndim != 2:
            raise GeometryError(f"expected a 2-D image, got shape {arr.shape}")
        return cls((RLERow.from_bits(row) for row in arr), width=int(arr.shape[1]))

    @classmethod
    def blank(cls, height: int, width: int) -> "RLEImage":
        """An all-background image."""
        return cls((RLERow.empty(width) for _ in range(height)), width=width)

    @classmethod
    def from_row_pairs(
        cls, pairs_per_row: Sequence[Sequence[Tuple[int, int]]], width: int
    ) -> "RLEImage":
        """Build from nested ``(start, length)`` pair lists."""
        return cls(
            (RLERow.from_pairs(p, width=width) for p in pairs_per_row), width=width
        )

    # ------------------------------------------------------------------ #
    # Protocol                                                           #
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> Tuple[RLERow, ...]:
        return self._rows

    @property
    def height(self) -> int:
        return len(self._rows)

    @property
    def width(self) -> int:
        return self._width

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.height, self._width)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[RLERow]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> RLERow:
        return self._rows[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RLEImage):
            return NotImplemented
        return self._width == other._width and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._width, self._rows))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RLEImage(shape={self.shape}, runs={self.total_runs})"

    # ------------------------------------------------------------------ #
    # Statistics                                                         #
    # ------------------------------------------------------------------ #
    @property
    def total_runs(self) -> int:
        """Sum of per-row run counts — the sequential cost driver."""
        return sum(r.run_count for r in self._rows)

    @property
    def pixel_count(self) -> int:
        """Total number of foreground pixels."""
        return sum(r.pixel_count for r in self._rows)

    def density(self) -> float:
        """Foreground fraction over the whole image."""
        area = self.height * self._width
        return self.pixel_count / area if area else 0.0

    def run_count_per_row(self) -> List[int]:
        return [r.run_count for r in self._rows]

    # ------------------------------------------------------------------ #
    # Conversions                                                        #
    # ------------------------------------------------------------------ #
    def to_array(self) -> BitImage:
        """Decode to a 2-D boolean array."""
        out = np.zeros((self.height, self._width), dtype=bool)
        for i, row in enumerate(self._rows):
            for run in row:
                out[i, run.start : run.stop] = True
        return out

    def canonical(self) -> "RLEImage":
        """Every row fully compressed."""
        return RLEImage((r.canonical() for r in self._rows), width=self._width)

    def is_canonical(self) -> bool:
        return all(r.is_canonical() for r in self._rows)

    def same_pixels(self, other: "RLEImage") -> bool:
        """Semantic equality — same foreground pixels, any run structure."""
        if self.shape != other.shape:
            return False
        return all(a.same_pixels(b) for a, b in zip(self._rows, other._rows))

    def map_rows(self, fn) -> "RLEImage":
        """Apply ``fn`` to every row, producing a new image."""
        return RLEImage((fn(r) for r in self._rows), width=self._width)

    # ------------------------------------------------------------------ #
    # Set-algebra operators (delegate to repro.rle.ops2d)                #
    # ------------------------------------------------------------------ #
    def __xor__(self, other: "RLEImage") -> "RLEImage":
        from repro.rle.ops2d import xor_images

        return xor_images(self, other)

    def __and__(self, other: "RLEImage") -> "RLEImage":
        from repro.rle.ops2d import and_images

        return and_images(self, other)

    def __or__(self, other: "RLEImage") -> "RLEImage":
        from repro.rle.ops2d import or_images

        return or_images(self, other)

    def __sub__(self, other: "RLEImage") -> "RLEImage":
        from repro.rle.ops2d import sub_images

        return sub_images(self, other)

    def __invert__(self) -> "RLEImage":
        from repro.rle.ops2d import complement_image

        return complement_image(self)

    def to_ascii(self, on: str = "#", off: str = ".") -> str:
        """Tiny ASCII rendering, handy in examples and doctests."""
        lines = []
        for row in self._rows:
            bits = row.to_bits(self._width)
            lines.append("".join(on if b else off for b in bits))
        return "\n".join(lines)
