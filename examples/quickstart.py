#!/usr/bin/env python3
"""Quickstart: difference two RLE rows and two images.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import DiffOptions, RLEImage, RLERow, image_diff, row_diff


def main() -> None:
    # ------------------------------------------------------------- #
    # 1. Rows straight from the paper's Figure 1                     #
    # ------------------------------------------------------------- #
    row1 = RLERow.from_pairs([(10, 3), (16, 2), (23, 2), (27, 3)], width=40)
    row2 = RLERow.from_pairs([(3, 4), (8, 5), (15, 5), (23, 2), (27, 4)], width=40)

    result = row_diff(row1, row2)  # engine="systolic" by default
    print("row 1      :", row1.to_pairs())
    print("row 2      :", row2.to_pairs())
    print("difference :", result.result.to_pairs())
    print(
        f"systolic iterations: {result.iterations} "
        f"(k1={result.k1}, k2={result.k2}, bound k1+k2={result.termination_bound})"
    )

    # every engine computes the same function
    for engine in ("systolic", "batched", "sequential"):
        r = row_diff(row1, row2, options=DiffOptions(engine=engine))
        print(f"  {engine:<11} -> {r.result.to_pairs()}")

    # ------------------------------------------------------------- #
    # 2. Whole images                                                 #
    # ------------------------------------------------------------- #
    rng = np.random.default_rng(0)
    base = rng.random((16, 64)) < 0.3
    scan = base.copy()
    scan[5, 20:24] ^= True  # one small defect
    image_a = RLEImage.from_array(base)
    image_b = RLEImage.from_array(scan)

    diff = image_diff(image_a, image_b)
    print()
    print(f"image shape {image_a.shape}, {image_a.total_runs} total runs")
    print(f"differing pixels: {diff.difference_pixels}")
    print(f"systolic iterations over all rows: {diff.total_iterations}")
    print(f"worst row: {diff.max_iterations} iterations")
    print()
    print("difference image:")
    print(diff.image.to_ascii())


if __name__ == "__main__":
    main()
