"""repro — systolic processing of RLE-compressed binary images.

A faithful, production-quality reproduction of

    F. Ercal, M. Allen, H. Feng,
    "A Systolic Algorithm to Process Compressed Binary Images",
    IPPS/SPDP Workshops 1999.

The package implements the paper's systolic XOR array for run-length
encoded binary rows, the sequential baseline it is compared against, the
RLE substrate both are built on, the workload generators of the paper's
evaluation, and the broadcast-bus extension sketched as future work.

Quickstart
----------
>>> from repro import RLERow, row_diff
>>> a = RLERow.from_pairs([(10, 3), (16, 2), (23, 2), (27, 3)])
>>> b = RLERow.from_pairs([(3, 4), (8, 5), (15, 5), (23, 2), (27, 4)])
>>> row_diff(a, b).result.to_pairs()
[(3, 4), (8, 2), (15, 1), (18, 2), (30, 1)]
"""

from repro.rle import RLEImage, RLERow, Run
from repro.core.api import image_diff, row_diff
from repro.core.batched import BatchedXorEngine
from repro.core.machine import SystolicXorMachine
from repro.core.options import ENGINE_NAMES, DiffOptions, EngineName
from repro.core.sequential import sequential_xor

__version__ = "1.1.0"

__all__ = [
    "Run",
    "RLERow",
    "RLEImage",
    "row_diff",
    "image_diff",
    "DiffOptions",
    "EngineName",
    "ENGINE_NAMES",
    "SystolicXorMachine",
    "BatchedXorEngine",
    "sequential_xor",
    "__version__",
]
