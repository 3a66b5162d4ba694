"""Reference-based comparison with registration tolerance.

A scanned board is never pixel-aligned with the CAD reference; standard
AOI practice is to search a small window of translations and difference
against the best-aligned reference.  The comparator does exactly that in
the RLE domain — alignment scoring *is* the XOR pixel count, so the
difference engine doubles as the registration metric (one more operation
the systolic array accelerates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import GeometryError
from repro.rle.image import RLEImage
from repro.rle.ops2d import translate_image, xor_images
from repro.core.pipeline import ImageDiffResult, diff_images

__all__ = ["ComparisonReport", "ReferenceComparator"]


@dataclass
class ComparisonReport:
    """Outcome of comparing one scan against the reference."""

    #: The difference image at the chosen alignment.
    difference: RLEImage
    #: Translation applied to the scan ``(dy, dx)``.
    offset: Tuple[int, int]
    #: Differing pixels at the chosen alignment.
    difference_pixels: int
    #: Per-row systolic measurements (``None`` when only aligning).
    diff_result: Optional[ImageDiffResult] = None


class ReferenceComparator:
    """Compare scans against a fixed reference image.

    Parameters
    ----------
    reference:
        The golden (CAD-derived) image.
    max_offset:
        Registration search radius in pixels (0 disables the search).

    The *final* measured diff runs on the batched engine; alignment
    scoring always uses the fast RLE ops.
    """

    def __init__(self, reference: RLEImage, max_offset: int = 1) -> None:
        if max_offset < 0:
            raise GeometryError(f"max_offset must be >= 0, got {max_offset}")
        self.reference = reference
        self.max_offset = max_offset

    # ------------------------------------------------------------------ #
    def align(self, scan: RLEImage) -> Tuple[int, int]:
        """Best translation of ``scan`` (fewest differing pixels)."""
        if scan.shape != self.reference.shape:
            raise GeometryError(
                f"scan shape {scan.shape} != reference shape {self.reference.shape}"
            )
        best = (0, 0)
        best_score: Optional[int] = None
        for dy in range(-self.max_offset, self.max_offset + 1):
            for dx in range(-self.max_offset, self.max_offset + 1):
                candidate = translate_image(scan, dy, dx) if (dy or dx) else scan
                score = xor_images(self.reference, candidate).pixel_count
                if best_score is None or score < best_score:
                    best_score, best = score, (dy, dx)
        return best

    def compare(
        self, scan: RLEImage, offset: Optional[Tuple[int, int]] = None
    ) -> ComparisonReport:
        """Full comparison: register, then difference on the systolic engine.

        Pass a precomputed ``offset`` to skip the alignment search.
        """
        dy, dx = offset if offset is not None else self.align(scan)
        aligned = translate_image(scan, dy, dx) if (dy or dx) else scan
        diff_result = diff_images(self.reference, aligned)
        return ComparisonReport(
            difference=diff_result.image,
            offset=(dy, dx),
            difference_pixels=diff_result.difference_pixels,
            diff_result=diff_result,
        )
