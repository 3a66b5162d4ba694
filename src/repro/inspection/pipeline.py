"""End-to-end inspection system with per-stage accounting.

``scan → register → systolic difference → blob extraction → classified
defect report``, timing each stage and carrying the systolic iteration
statistics through so the examples and the A4 benchmark can show where
the compressed-domain difference saves time on realistic boards.

Stage timing rides on the :mod:`repro.obs.tracing` span tracer rather
than hand-rolled ``perf_counter`` bookkeeping: each ``inspect`` call
opens an ``inspect`` span with ``align`` / ``diff`` / ``extract``
children, and the report's ``stage_seconds`` dict is derived from the
span durations.  Pass your own :class:`~repro.obs.tracing.Tracer` to
the system to collect the spans across many boards (and export them to
Chrome trace format); by default each call uses a private throwaway
tracer so the public ``stage_seconds`` contract is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.tracing import Tracer
from repro.rle.image import RLEImage
from repro.inspection.defects import DefectBlob, find_defect_blobs
from repro.inspection.reference import ComparisonReport, ReferenceComparator

__all__ = ["InspectionReport", "InspectionSystem"]


@dataclass
class InspectionReport:
    """Everything the system produces for one scanned board."""

    #: Pass/fail verdict (fail when any blob survives filtering).
    passed: bool
    #: Classified defect blobs, top-to-bottom.
    defects: List[DefectBlob]
    #: Registration/diff details.
    comparison: ComparisonReport
    #: Wall-clock seconds per stage: align, diff, extract.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_systolic_iterations(self) -> int:
        """Array busy-time for the whole board (sum over rows)."""
        if self.comparison.diff_result is None:
            return 0
        return self.comparison.diff_result.total_iterations

    def to_dict(self) -> Dict:
        """JSON-serializable report for line-system integration (MES /
        SPC uploaders consume this shape)."""
        return {
            "passed": self.passed,
            "alignment_offset": list(self.comparison.offset),
            "difference_pixels": self.comparison.difference_pixels,
            "systolic_iterations": self.total_systolic_iterations,
            "stage_seconds": dict(self.stage_seconds),
            "defects": [
                {
                    "kind": blob.kind,
                    "polarity": blob.polarity,
                    "bbox": list(blob.bbox),
                    "area": blob.area,
                    "centroid": [round(c, 2) for c in blob.centroid],
                }
                for blob in self.defects
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else f"FAIL ({len(self.defects)} defects)"
        lines = [
            f"verdict: {verdict}",
            f"alignment offset: {self.comparison.offset}",
            f"differing pixels: {self.comparison.difference_pixels}",
            f"systolic iterations (all rows): {self.total_systolic_iterations}",
        ]
        for blob in self.defects:
            cy, cx = blob.centroid
            lines.append(
                f"  - {blob.kind:<9} at ({cy:6.1f},{cx:6.1f})  "
                f"area={blob.area:<4} polarity={blob.polarity}"
            )
        return "\n".join(lines)


class InspectionSystem:
    """A configured inspection station.

    Parameters
    ----------
    reference:
        Golden image all scans are compared against.
    max_offset:
        Registration search radius.
    min_defect_area:
        Blobs below this many differing pixels are treated as noise.
    merge_radius:
        Fragment-bridging radius for blob grouping.
    tracer:
        Optional shared :class:`repro.obs.tracing.Tracer`; every
        ``inspect`` call appends its ``inspect`` → ``align`` / ``diff``
        / ``extract`` spans to it.  ``None`` (default) gives each call
        a private tracer used only to derive ``stage_seconds``.
    """

    def __init__(
        self,
        reference: RLEImage,
        max_offset: int = 1,
        min_defect_area: int = 2,
        merge_radius: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.reference = reference
        self.comparator = ReferenceComparator(reference, max_offset=max_offset)
        self.min_defect_area = min_defect_area
        self.merge_radius = merge_radius
        self.tracer = tracer

    def inspect(self, scan: RLEImage) -> InspectionReport:
        """Inspect one scanned board."""
        tracer = self.tracer if self.tracer is not None else Tracer()
        with tracer.span("inspect", height=scan.height, width=scan.width):
            with tracer.span("align"):
                offset = self.comparator.align(scan)

            with tracer.span("diff") as diff_span:
                comparison = self.comparator.compare(scan, offset=offset)
                if comparison.diff_result is not None:
                    diff_span.set_attribute(
                        "iterations", comparison.diff_result.total_iterations
                    )

            with tracer.span("extract") as extract_span:
                aligned_scan = scan
                if comparison.offset != (0, 0):
                    from repro.rle.ops2d import translate_image

                    dy, dx = comparison.offset
                    aligned_scan = translate_image(scan, dy, dx)
                defects = find_defect_blobs(
                    comparison.difference,
                    self.reference,
                    aligned_scan,
                    merge_radius=self.merge_radius,
                    min_area=self.min_defect_area,
                )
                extract_span.set_attribute("defects", len(defects))

        # The report's stage costs come from the recorded spans; when a
        # shared tracer is in use, take the latest inspect's children
        # (the last recorded occurrence of each stage name).  A null
        # tracer records nothing, leaving the dict empty.
        stage_seconds: Dict[str, float] = {}
        for record in getattr(tracer, "spans", ()):
            if record.name in ("align", "diff", "extract"):
                stage_seconds[record.name] = record.duration

        return InspectionReport(
            passed=not defects,
            defects=defects,
            comparison=comparison,
            stage_seconds=stage_seconds,
        )
