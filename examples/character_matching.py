#!/usr/bin/env python3
"""Character recognition by compressed-domain template matching.

Binary template matching is one of the operations the paper's
introduction cites systolic hardware for.  Here a degraded scan of a
glyph is compared against every font template via the RLE XOR; the
template with the fewest differing pixels wins.  Because the templates
and the scan are highly similar for the true match, the systolic array
resolves the best candidates in very few iterations.

Run:  python examples/character_matching.py
"""

from repro.core.batched import BatchedXorEngine
from repro.rle.ops2d import xor_images
from repro.workloads.characters import (
    degrade_image,
    match_glyph,
    render_glyph,
    render_string,
)


def main() -> None:
    scale = 4
    message = "SYSTOLIC"
    print(f"rendered test string at {scale}x scale:")
    print(render_string(message, scale=scale).to_ascii(on="#", off=" "))
    print()

    correct = 0
    print("glyph  noisy-match  xor-px  runner-up         systolic iters (vs best)")
    for char in message:
        clean = render_glyph(char, scale=scale)
        noisy = degrade_image(clean, flip_probability=0.04, seed=ord(char))
        ranking = match_glyph(noisy, scale=scale)
        best, best_score = ranking[0]
        second, second_score = ranking[1]
        if best == char:
            correct += 1

        # row-level systolic cost of comparing the scan to the winner:
        # highly similar pair => tiny iteration counts per row
        template = render_glyph(best, scale=scale)
        iters = sum(
            r.iterations
            for r in BatchedXorEngine(collect_stats=False).diff_rows(
                list(noisy), list(template)
            )
        )
        print(
            f"  {char}    ->  {best}         {best_score:>4}   "
            f"{second} ({second_score:>3})           {iters:>3}"
        )

    print()
    print(f"recognized {correct}/{len(message)} degraded glyphs")

    # show a full diff for one case
    char = "S"
    clean = render_glyph(char, scale=scale)
    noisy = degrade_image(clean, 0.04, seed=ord(char))
    diff = xor_images(clean, noisy)
    print(f"\ndifference map for {char!r} (noise pixels only):")
    print(diff.to_ascii(on="x", off="."))


if __name__ == "__main__":
    main()
