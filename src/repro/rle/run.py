"""The :class:`Run` value type — one maximal block of foreground pixels.

The paper stores runs as ``(start, length)`` pairs but reasons about them as
``[start, end]`` closed intervals ("we will refer to runs by their starting
and ending points rather than the starting points and lengths which are
actually stored").  :class:`Run` supports both views and supplies the small
interval algebra the rest of the package is built on.

Pixels are indexed from 0 in this implementation (the paper's examples use
1-based positions; the algorithms are index-origin agnostic and the golden
tests simply reuse the paper's literal coordinates).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Optional, Sequence, Tuple, Type

from repro.errors import EncodingError

__all__ = ["Run"]


@dataclass(frozen=True, slots=True, order=True)
class Run:
    """A single run of foreground pixels.

    Ordering is lexicographic on ``(start, end)`` — exactly the comparison
    used by step 1 of the paper's systolic cell to decide which run belongs
    in ``RegSmall``.

    Parameters
    ----------
    start:
        Index of the first foreground pixel of the run.  Must be ``>= 0``.
    length:
        Number of pixels in the run.  Must be ``>= 1``; zero-length runs
        are represented by *absence* (an empty register / no entry in a
        row), never as a ``Run`` instance.
    """

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise EncodingError(f"run start must be >= 0, got {self.start}")
        if self.length < 1:
            raise EncodingError(f"run length must be >= 1, got {self.length}")

    # ------------------------------------------------------------------ #
    # Constructors                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_endpoints(cls, start: int, end: int) -> "Run":
        """Build a run from the *inclusive* interval ``[start, end]``."""
        if end < start:
            raise EncodingError(f"empty interval [{start}, {end}] is not a Run")
        return cls(start, end - start + 1)

    # ------------------------------------------------------------------ #
    # Views                                                              #
    # ------------------------------------------------------------------ #
    @property
    def end(self) -> int:
        """Index of the last foreground pixel (inclusive)."""
        return self.start + self.length - 1

    @property
    def stop(self) -> int:
        """One past the last pixel — convenient for slicing."""
        return self.start + self.length

    def as_tuple(self) -> Tuple[int, int]:
        """The run as the paper writes it: ``(start, length)``."""
        return (self.start, self.length)

    def as_endpoints(self) -> Tuple[int, int]:
        """The run as the paper reasons about it: ``(start, end)``."""
        return (self.start, self.end)

    # ------------------------------------------------------------------ #
    # Predicates                                                         #
    # ------------------------------------------------------------------ #
    def contains(self, index: int) -> bool:
        """True if pixel ``index`` lies inside this run."""
        return self.start <= index <= self.end

    def overlaps(self, other: "Run") -> bool:
        """True if the two runs share at least one pixel."""
        return self.start <= other.end and other.start <= self.end

    def touches(self, other: "Run") -> bool:
        """True if the runs overlap *or* are directly adjacent.

        Adjacent runs represent the same pixels as their merge; a row
        containing adjacent runs is valid but not *canonical* (the paper
        notes "an additional pass can be made at the end to ensure the
        encoding is completely compressed").
        """
        return self.start <= other.end + 1 and other.start <= self.end + 1

    def precedes(self, other: "Run") -> bool:
        """True if this run ends strictly before ``other`` begins."""
        return self.end < other.start

    def __contains__(self, index: object) -> bool:
        return isinstance(index, int) and self.contains(index)

    # ------------------------------------------------------------------ #
    # Interval algebra                                                   #
    # ------------------------------------------------------------------ #
    def intersection(self, other: "Run") -> Optional["Run"]:
        """The overlapping part of two runs, or ``None`` if disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi < lo:
            return None
        return Run.from_endpoints(lo, hi)

    def merge(self, other: "Run") -> "Run":
        """The union of two touching runs as a single run.

        Raises
        ------
        EncodingError
            If the runs neither overlap nor are adjacent (their union would
            not be a contiguous interval).
        """
        if not self.touches(other):
            raise EncodingError(
                f"cannot merge non-touching runs {self.as_tuple()} and {other.as_tuple()}"
            )
        lo = min(self.start, other.start)
        hi = max(self.end, other.end)
        return Run.from_endpoints(lo, hi)

    def shifted(self, offset: int) -> "Run":
        """This run translated by ``offset`` pixels (may not go negative)."""
        return Run(self.start + offset, self.length)

    def clipped(self, lo: int, hi: int) -> Optional["Run"]:
        """The part of this run inside ``[lo, hi]`` (inclusive), or ``None``."""
        s = max(self.start, lo)
        e = min(self.end, hi)
        if e < s:
            return None
        return Run.from_endpoints(s, e)

    def split_at(self, index: int) -> Tuple[Optional["Run"], Optional["Run"]]:
        """Split into the parts strictly before ``index`` and from ``index`` on."""
        left = self.clipped(self.start, index - 1)
        right = self.clipped(index, self.end)
        return left, right

    def pixels(self) -> Iterator[int]:
        """Iterate over the pixel indices covered by this run."""
        return iter(range(self.start, self.stop))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Run(start={self.start}, length={self.length})"

    def __str__(self) -> str:
        return f"({self.start},{self.length})"


_new: Callable[[Type[Run]], Run] = object.__new__
# the slot descriptors' setters write past the frozen __setattr__
_set_start = Run.__dict__["start"].__set__
_set_length = Run.__dict__["length"].__set__


def _trusted_runs(starts: Sequence[int], lengths: Sequence[int]) -> Tuple[Run, ...]:
    """The :class:`Run` objects over ``(start, length)`` values already
    known to be valid (``int``, ``start >= 0``, ``length >= 1``), built
    with no checks: ``object.__new__`` and the two slot setters, each
    mapped over the whole sequence, cost about 40 % of calling ``Run``
    per run."""
    runs = tuple(map(_new, repeat(Run, len(starts))))
    deque(map(_set_start, runs, starts), maxlen=0)
    deque(map(_set_length, runs, lengths), maxlen=0)
    return runs
