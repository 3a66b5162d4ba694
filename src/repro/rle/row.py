""":class:`RLERow` — one run-length-encoded image row.

A row is an ordered sequence of :class:`~repro.rle.run.Run` objects whose
starts are strictly increasing and whose intervals never overlap (the
paper's structural requirement: "Each array of tuples must use a strictly
increasing sequence of first elements ... none of the intervals ... may
overlap").  Adjacent runs *are* permitted — such a row is valid but not
*canonical*; :meth:`RLERow.canonical` merges them.

A row holds its runs in one of two forms.  Every public constructor
builds and validates the :class:`Run` tuple.  The batched engine and
:meth:`RLERow.canonical` instead hand over a trusted ``(2, k)`` int64
array of run starts and inclusive ends; such a row answers counts,
extent, canonical form and ``(start, length)`` pairs from the array and
builds its ``Run`` tuple only when :attr:`RLERow.runs` is first read.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np
import numpy.typing as npt

from repro._typing import BitArray, RunsLike
from repro.errors import EncodingError, GeometryError
from repro.rle.run import Run, _trusted_runs
from repro.rle.validate import validate_runs as _validate_structure

__all__ = ["RLERow"]

#: A row's runs as one ``(2, k)`` int64 array: starts, then inclusive ends.
_Bounds = npt.NDArray[np.int64]


def _coerce_runs(runs: Iterable[Union[Run, Tuple[int, int]]]) -> Tuple[Run, ...]:
    out: List[Run] = []
    index = operator.index
    for item in runs:
        if isinstance(item, Run):
            out.append(item)
        else:
            start, length = item
            try:
                out.append(Run(index(start), index(length)))
            except TypeError:
                raise EncodingError(
                    f"run {item!r}: start and length must be integers"
                ) from None
    return tuple(out)


def _checked_width(width: Optional[int]) -> Optional[int]:
    if width is None:
        return None
    try:
        checked: Optional[int] = operator.index(width)
    except TypeError:
        checked = None
    if checked is None or isinstance(width, bool):
        raise GeometryError(f"width must be an integer, got {width!r}")
    if checked < 0:
        raise GeometryError(f"width must be >= 0, got {checked}")
    return checked


def _stack_runs(runs: Sequence[Run]) -> _Bounds:
    """The ``(2, k)`` starts/ends array of a run sequence."""
    bounds = np.array(
        ([run.start for run in runs], [run.length for run in runs]), dtype=np.int64
    )
    bounds[1] += bounds[0] - 1
    return bounds


def _stack_rows(rows: Sequence["RLERow"]) -> _Bounds:
    """Every run of ``rows``, row after row, as one ``(2, total)`` array.

    A row that holds an array contributes it as is; the ``Run`` tuples of
    the rows between are read in one pass (no array is kept on them).
    """
    parts: List[_Bounds] = []
    pending: List[Run] = []
    for row in rows:
        data = row._data
        if isinstance(data, tuple):
            pending.extend(data)
            continue
        if pending:
            parts.append(_stack_runs(pending))
            pending = []
        parts.append(data)
    if pending or not parts:
        parts.append(_stack_runs(pending))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


class RLERow:
    """An immutable, validated run-length-encoded binary row.

    Parameters
    ----------
    runs:
        Runs in increasing-``start`` order, either :class:`Run` objects or
        ``(start, length)`` pairs as the paper writes them.
    width:
        Optional row width ``b``.  When given, every run must fit inside
        ``[0, width)`` and width-aware operations (complement, density,
        bitmap conversion) need no explicit width argument.
    """

    __slots__ = ("_data", "_width")

    #: The validated ``Run`` tuple, or trusted ``(2, k)`` bounds until
    #: :attr:`runs` is first read.  Methods read the slot once, and
    #: :attr:`runs` replaces the array with the tuple in one store, so a
    #: row shared between threads is never seen half-converted.
    _data: Union[Tuple[Run, ...], _Bounds]
    _width: Optional[int]

    def __init__(
        self,
        runs: Iterable[Union[Run, Tuple[int, int]]] = (),
        width: Optional[int] = None,
    ) -> None:
        coerced = _coerce_runs(runs)
        _validate_structure(coerced)
        width = _checked_width(width)
        if width is not None and coerced and coerced[-1].end >= width:
            raise GeometryError(
                f"run {coerced[-1].as_tuple()} does not fit in width {width}"
            )
        self._data = coerced
        self._width = width

    # ------------------------------------------------------------------ #
    # Constructors                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(
        cls, data: Union[Tuple[Run, ...], _Bounds], width: Optional[int]
    ) -> "RLERow":
        """A row over ``data`` (either form of the slot) already known to
        be a valid row of ``width``, built with no checks."""
        row = cls.__new__(cls)
        row._data = data
        row._width = width
        return row

    @classmethod
    def from_pairs(cls, pairs: RunsLike, width: Optional[int] = None) -> "RLERow":
        """Build from ``(start, length)`` pairs (the paper's notation)."""
        return cls(pairs, width=width)

    @classmethod
    def from_endpoints(
        cls, endpoints: Sequence[Tuple[int, int]], width: Optional[int] = None
    ) -> "RLERow":
        """Build from inclusive ``(start, end)`` interval pairs."""
        return cls((Run.from_endpoints(s, e) for s, e in endpoints), width=width)

    @classmethod
    def from_bits(cls, bits: Union[BitArray, Sequence[int], str]) -> "RLERow":
        """Encode a 0/1 pixel row.  ``bits`` may be an array, list or
        string like ``"0011100"``.  The resulting row is canonical and its
        width is the length of the input."""
        from repro.rle.bitmap import bits_to_runs  # local import: avoid cycle

        if isinstance(bits, str):
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
        else:
            arr = np.asarray(bits, dtype=bool)
        if arr.ndim != 1:
            raise GeometryError(f"expected a 1-D row, got shape {arr.shape}")
        return cls(bits_to_runs(arr), width=int(arr.size))

    @classmethod
    def empty(cls, width: Optional[int] = None) -> "RLERow":
        """A row with no foreground pixels."""
        return cls((), width=width)

    @classmethod
    def full(cls, width: int) -> "RLERow":
        """A row that is entirely foreground."""
        if width == 0:
            return cls((), width=0)
        return cls([Run(0, width)], width=width)

    # ------------------------------------------------------------------ #
    # Basic protocol                                                     #
    # ------------------------------------------------------------------ #
    @property
    def runs(self) -> Tuple[Run, ...]:
        data = self._data
        if isinstance(data, tuple):
            return data
        starts = data[0].tolist()
        lengths = (data[1] - data[0] + 1).tolist()
        runs = _trusted_runs(starts, lengths)
        self._data = runs
        return runs

    @property
    def width(self) -> Optional[int]:
        return self._width

    @property
    def run_count(self) -> int:
        """``k`` — the number of runs, the paper's complexity parameter."""
        data = self._data
        return len(data) if isinstance(data, tuple) else data.shape[1]

    @property
    def pixel_count(self) -> int:
        """Total number of foreground pixels."""
        data = self._data
        if isinstance(data, tuple):
            return sum(r.length for r in data)
        return int((data[1] - data[0]).sum()) + data.shape[1]

    @property
    def extent(self) -> int:
        """One past the last foreground pixel (0 for an empty row)."""
        data = self._data
        if isinstance(data, tuple):
            return data[-1].stop if data else 0
        return int(data[1, -1]) + 1 if data.shape[1] else 0

    def __len__(self) -> int:
        return self.run_count

    def __iter__(self) -> Iterator[Run]:
        data = self._data
        return iter(data if isinstance(data, tuple) else self.runs)

    def __bool__(self) -> bool:
        data = self._data
        return bool(data) if isinstance(data, tuple) else data.shape[1] > 0

    @overload
    def __getitem__(self, index: int) -> Run: ...

    @overload
    def __getitem__(self, index: slice) -> "RLERow": ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Run, "RLERow"]:
        if isinstance(index, slice):
            return RLERow(self.runs[index], width=self._width)
        return self.runs[index]

    def __eq__(self, other: object) -> bool:
        """Structural equality: same run list (widths are not compared).

        Two rows covering the same pixels through different run splits are
        *not* structurally equal; use :meth:`same_pixels` for semantic
        comparison.
        """
        if not isinstance(other, RLERow):
            return NotImplemented
        mine, theirs = self._data, other._data
        if isinstance(mine, tuple) and isinstance(theirs, tuple):
            return mine == theirs
        if isinstance(mine, tuple) or isinstance(theirs, tuple):
            return self.runs == other.runs
        return bool(np.array_equal(mine, theirs))

    def __hash__(self) -> int:
        data = self._data
        return hash(data if isinstance(data, tuple) else self.runs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = " ".join(str(r) for r in self.runs)
        suffix = f", width={self._width}" if self._width is not None else ""
        return f"RLERow([{body}]{suffix})"

    # ------------------------------------------------------------------ #
    # Semantics                                                          #
    # ------------------------------------------------------------------ #
    def is_canonical(self) -> bool:
        """True when no two consecutive runs are adjacent (fully compressed)."""
        data = self._data
        if isinstance(data, tuple):
            return all(a.end + 1 < b.start for a, b in zip(data, data[1:]))
        return bool((data[0, 1:] > data[1, :-1] + 1).all())

    def canonical(self) -> "RLERow":
        """The fully-compressed equivalent row (adjacent runs merged)."""
        data = self._data
        if isinstance(data, tuple):
            if self.is_canonical():
                return self
            data = _stack_runs(data)
        # a merged run starts after each gap and ends before the next one
        gap = data[0, 1:] > data[1, :-1] + 1
        if gap.all():
            return self
        first = np.concatenate(([True], gap))
        last = np.concatenate((gap, [True]))
        return RLERow._trusted(np.stack((data[0, first], data[1, last])), self._width)

    def same_pixels(self, other: "RLERow") -> bool:
        """True if both rows cover exactly the same foreground pixels."""
        return self.canonical() == other.canonical()

    def get(self, index: int) -> bool:
        """Value of pixel ``index`` (binary-search lookup, O(log k))."""
        runs = self.runs
        lo, hi = 0, len(runs) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            run = runs[mid]
            if index < run.start:
                hi = mid - 1
            elif index > run.end:
                lo = mid + 1
            else:
                return True
        return False

    def to_bits(self, width: Optional[int] = None) -> BitArray:
        """Decode to a boolean pixel array of the given (or stored) width."""
        from repro.rle.bitmap import runs_to_bits

        w = width if width is not None else self._width
        if w is None:
            w = self.extent
        return runs_to_bits(self.runs, w)

    def to_pairs(self) -> List[Tuple[int, int]]:
        """The run list as ``(start, length)`` tuples."""
        data = self._data
        if isinstance(data, tuple):
            return [r.as_tuple() for r in data]
        starts, ends = data.tolist()
        return [(start, end - start + 1) for start, end in zip(starts, ends)]

    def to_endpoints(self) -> List[Tuple[int, int]]:
        """The run list as inclusive ``(start, end)`` tuples."""
        return [r.as_endpoints() for r in self.runs]

    # ------------------------------------------------------------------ #
    # Set-algebra operators (delegate to repro.rle.ops)                  #
    # ------------------------------------------------------------------ #
    def __xor__(self, other: "RLERow") -> "RLERow":
        from repro.rle.ops import xor_rows

        return xor_rows(self, other)

    def __and__(self, other: "RLERow") -> "RLERow":
        from repro.rle.ops import and_rows

        return and_rows(self, other)

    def __or__(self, other: "RLERow") -> "RLERow":
        from repro.rle.ops import or_rows

        return or_rows(self, other)

    def __sub__(self, other: "RLERow") -> "RLERow":
        """Set difference: pixels in ``self`` but not in ``other``."""
        from repro.rle.ops import sub_rows

        return sub_rows(self, other)

    def __invert__(self) -> "RLERow":
        """Complement within the row's width (which must be set)."""
        from repro.rle.ops import complement_row

        return complement_row(self)

    # ------------------------------------------------------------------ #
    # Derived rows                                                       #
    # ------------------------------------------------------------------ #
    def with_width(self, width: Optional[int]) -> "RLERow":
        """The same runs with a different declared width (the row itself
        when ``width`` is its own; the runs are not re-validated)."""
        width = _checked_width(width)
        if width == self._width:
            return self
        if width is not None and self.extent > width:
            raise GeometryError(
                f"runs up to pixel {self.extent - 1} do not fit in width {width}"
            )
        return RLERow._trusted(self._data, width)

    def density(self, width: Optional[int] = None) -> float:
        """Fraction of foreground pixels (0.0 for a zero-width row)."""
        w = width if width is not None else self._width
        if w is None:
            w = self.extent
        if w == 0:
            return 0.0
        return self.pixel_count / w
