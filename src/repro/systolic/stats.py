"""Activity statistics for systolic runs.

Cells and the array increment named counters through one shared
:class:`ActivityStats` object; benches and the hardware cost model consume
the totals.  Counter names used by the XOR machine:

``swaps``
    step-1 register exchanges (State *b* → State *a* transitions).
``moves``
    step-1 RegBig→RegSmall moves (lone-run normalization).
``xor_splits``
    step-2 executions that changed at least one register.
``shifts``
    non-empty data actually moved right in step 3.
``busy_cells``
    cells holding at least one run, accumulated per iteration
    (divide by iterations × cells for mean occupancy).

Since the observability PR, :class:`ActivityStats` is a thin adapter
over :class:`repro.obs.metrics.CounterBag` — the same dict-backed
primitive the metrics registry's labelled counters use.  The bag
round-trips through builtin tuples, so shard workers ship their per-row
stats back whole (``items()`` / :meth:`from_items`, see
:mod:`repro.service.shard`), and
:func:`repro.obs.metrics.record_image_diff` republishes the totals as
``repro_activity_total{engine,counter}`` registry counters.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.obs.metrics import CounterBag

__all__ = ["ActivityStats"]


class ActivityStats(CounterBag):
    """A named-counter bag with a few derived metrics.

    All the counting machinery (``bump``, ``get``, ``as_dict``,
    ``items``, iteration) comes from :class:`CounterBag`; this adapter
    adds the merge/round-trip API the engines and the shard codecs use
    plus the paper-specific ``utilization`` derivation.
    """

    __slots__ = ()

    def merge(self, other: "ActivityStats") -> "ActivityStats":
        """Sum two stats bags (used when pipelining rows of an image)."""
        merged = ActivityStats(self.as_dict())
        merged.merge_into(other)
        return merged

    @classmethod
    def from_items(cls, items: Iterable[Tuple[str, int]]) -> "ActivityStats":
        """Rebuild a bag from :meth:`CounterBag.items` output — the
        builtin-typed wire form the pool workers return."""
        return cls(dict(items))

    def utilization(self, iterations: int, n_cells: int) -> float:
        """Mean fraction of cells holding data per iteration."""
        if iterations == 0 or n_cells == 0:
            return 0.0
        return self.get("busy_cells") / (iterations * n_cells)

    def reset(self) -> None:
        self.clear()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterBag):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v}" for k, v in self)
        return f"ActivityStats({body})"
