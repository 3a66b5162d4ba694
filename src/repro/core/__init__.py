"""The paper's contribution: the systolic RLE XOR algorithm.

Modules
-------
``registers``    the two-integer run registers each cell carries
``xor_cell``     steps 1–3 of Section 3, verbatim
``machine``      load / run / extract driver with paranoid invariant mode
``sequential``   the paper's sequential merge baseline (Section 2)
``batched``      array engine stepping every row of an image at once,
                 state-for-state identical to the cell machine
``states``       the Figure 4 cell-state taxonomy
``invariants``   executable Theorems 1–3 / Corollaries 1.1, 1.2, 2.1
``compaction``   the future-work final merge pass
``pipeline``     whole-image differencing over one array
``api``          the high-level entry points :func:`row_diff` / :func:`image_diff`
                 and :func:`diff_rows`, the one engine dispatch
"""

from repro.core.api import image_diff, row_diff
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine, XorRunResult
from repro.core.sequential import SequentialResult, sequential_xor

__all__ = [
    "row_diff",
    "image_diff",
    "SystolicXorMachine",
    "XorRunResult",
    "sequential_xor",
    "SequentialResult",
    "BatchedXorEngine",
]
