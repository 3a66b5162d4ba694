"""Package-level tests: public API surface, doctests, version."""

import doctest
import json

import pytest

import repro


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
        # installed metadata (pip install -e, or setup.py egg_info) is
        # generated from repro.__version__, the one version source
        from importlib.metadata import PackageNotFoundError, version

        try:
            installed = version("repro")
        except PackageNotFoundError:
            return
        assert installed == repro.__version__

    def test_quickstart_doctest(self):
        """The docstring example in ``repro/__init__.py`` runs verbatim."""
        results = doctest.testmod(repro, verbose=False)
        assert results.attempted > 0
        assert results.failed == 0

    def test_cli_version_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_top_level_roundtrip(self):
        """The README quickstart, as a test."""
        from repro import RLERow, row_diff

        a = RLERow.from_pairs([(10, 3), (16, 2), (23, 2), (27, 3)], width=40)
        b = RLERow.from_pairs([(3, 4), (8, 5), (15, 5), (23, 2), (27, 4)], width=40)
        result = row_diff(a, b)
        assert result.result.to_pairs() == [(3, 4), (8, 2), (15, 1), (18, 2), (30, 1)]
        assert result.iterations == 3


class TestInspectionReportExport:
    def test_json_round_trip(self):
        from repro.inspection.pipeline import InspectionSystem
        from repro.workloads.pcb import PCBLayout, generate_inspection_case

        reference, scan, _ = generate_inspection_case(
            PCBLayout(height=96, width=96), n_defects=3, seed=55
        )
        report = InspectionSystem(reference).inspect(scan)
        payload = json.loads(report.to_json())
        assert payload["passed"] == report.passed
        assert len(payload["defects"]) == len(report.defects)
        for defect in payload["defects"]:
            assert set(defect) == {"kind", "polarity", "bbox", "area", "centroid"}
            assert len(defect["bbox"]) == 4

    def test_clean_board_payload(self):
        from repro.inspection.pipeline import InspectionSystem
        from repro.workloads.pcb import PCBLayout, generate_board

        reference = generate_board(PCBLayout(height=64, width=64), seed=56)
        report = InspectionSystem(reference).inspect(reference)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["defects"] == []
        assert payload["difference_pixels"] == 0
