#!/usr/bin/env python3
"""Motion detection on a synthetic surveillance clip.

Consecutive frames of a fixed camera differ only where something moved —
exactly the highly-similar regime where the paper's systolic array needs
only a handful of iterations per row.  This example diffs consecutive
frames in the RLE domain, extracts the moving objects as components, and
tracks their centroids across the clip.

Run:  python examples/motion_detection.py
"""

from repro.core.options import DiffOptions
from repro.core.pipeline import diff_images
from repro.rle.components import label_components
from repro.rle.metrics import error_fraction
from repro.rle.morphology import dilate_image
from repro.workloads.motion import Sprite, generate_sequence


def main() -> None:
    sprites = [
        Sprite(shape="rect", size=4, position=(20.0, 8.0), velocity=(0.5, 6.0)),
        Sprite(shape="disc", size=5, position=(90.0, 110.0), velocity=(-2.0, -4.0)),
    ]
    frames = generate_sequence(
        height=128, width=128, n_frames=8, sprites=sprites, clutter=14, seed=3
    )
    print(f"{len(frames)} frames of 128x128, background clutter + 2 sprites")
    print()

    print("frame  diff-px  err-frac  systolic-iters  moving objects (centroids)")
    for t, (prev, cur) in enumerate(zip(frames, frames[1:]), start=1):
        diff = diff_images(prev, cur, options=DiffOptions(engine="batched"))
        # bridge the leading/trailing edges of each moving object
        grouped = dilate_image(diff.image, 2, 2)
        components = [c for c in label_components(grouped) if c.area >= 8]
        centroids = ", ".join(
            f"({c.centroid[0]:5.1f},{c.centroid[1]:5.1f})" for c in components
        )
        print(
            f"{t:>5}  {diff.difference_pixels:>7}  "
            f"{error_fraction(prev, cur):8.4f}  {diff.total_iterations:>14}  "
            f"{len(components)} [{centroids}]"
        )

    print()
    print("each moving sprite appears as one difference component; the")
    print("systolic iteration count stays tiny because consecutive frames")
    print("are ~99% identical — the paper's target operating point.")


if __name__ == "__main__":
    main()
