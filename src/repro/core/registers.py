"""The run register — "two registers each capable of storing two integers".

Each systolic cell carries two of these (``RegSmall`` and ``RegBig``).
A register is either *empty* or holds one run as a ``[start, end]``
closed interval.  The paper's step-2 arithmetic freely produces intervals
with ``end < start``; by convention such an interval *is* the empty
register (hardware would set a valid bit; we normalize to the canonical
empty encoding ``(0, -1)`` so snapshots compare bit-for-bit with the
batched engine's sentinel).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.rle.run import Run

__all__ = ["RunRegister", "EMPTY_SNAPSHOT"]

#: Canonical encoding of an empty register, shared with the batched engine.
EMPTY_SNAPSHOT: Tuple[int, int] = (0, -1)


class RunRegister:
    """Mutable storage for zero or one run.

    Attributes
    ----------
    start, end:
        The stored interval.  ``end < start`` means empty; all mutators
        normalize that case to ``(0, -1)``.
    """

    __slots__ = ("start", "end")

    def __init__(self, run: Optional[Run] = None) -> None:
        self.start, self.end = EMPTY_SNAPSHOT
        if run is not None:
            self.load(run)

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return self.end < self.start

    @property
    def run(self) -> Optional[Run]:
        """The stored run as an immutable value, or ``None``."""
        if self.is_empty:
            return None
        return Run.from_endpoints(self.start, self.end)

    # ------------------------------------------------------------------ #
    def load(self, run: Optional[Run]) -> None:
        """Store ``run`` (or clear when ``None``)."""
        if run is None:
            self.clear()
        else:
            self.start, self.end = run.start, run.end

    def set_endpoints(self, start: int, end: int) -> None:
        """Store the interval ``[start, end]``; empty intervals normalize."""
        if end < start:
            self.clear()
        else:
            self.start, self.end = start, end

    def clear(self) -> None:
        self.start, self.end = EMPTY_SNAPSHOT

    def take(self) -> Optional[Run]:
        """Remove and return the stored run (``None`` if empty)."""
        run = self.run
        self.clear()
        return run

    def move_from(self, other: "RunRegister") -> None:
        """Transfer the other register's contents into this one."""
        self.start, self.end = other.start, other.end
        other.clear()

    def swap_with(self, other: "RunRegister") -> None:
        """Exchange contents with another register."""
        self.start, other.start = other.start, self.start
        self.end, other.end = other.end, self.end

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Tuple[int, int]:
        """``(start, end)`` with empties normalized — hashable/comparable."""
        return (self.start, self.end)

    def restore(self, snap: Tuple[int, int]) -> None:
        self.set_endpoints(*snap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_empty:
            return "RunRegister(empty)"
        return f"RunRegister([{self.start}, {self.end}])"

    def __str__(self) -> str:
        if self.is_empty:
            return "·"
        return f"({self.start},{self.end - self.start + 1})"
