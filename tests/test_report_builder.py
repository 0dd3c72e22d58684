"""Tests for the one-shot report builder."""

import pytest

from repro.analysis.report_builder import (
    QUICK_FIG11_APPS,
    _md_table,
    build_report,
    write_report,
)


def test_md_table_shape():
    text = _md_table(["a", "b"], [(1, 2.5), ("x", 1234.0)])
    lines = text.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert "| 1 | 2.500 |" in lines
    assert "1,234" in text


@pytest.fixture(scope="module")
def quick_report():
    return build_report(quick=True)


def test_report_contains_every_experiment(quick_report):
    for heading in ("Table 1", "Fig. 9", "Fig. 10", "Fig. 11",
                    "Fig. 12", "Fig. 13"):
        assert heading in quick_report


def test_report_quick_mode_uses_subset(quick_report):
    for app in QUICK_FIG11_APPS:
        assert app in quick_report
    assert "segmentationTreeThrust" not in quick_report


def test_report_carries_paper_references(quick_report):
    assert "2,192.95" in quick_report or "2192.95" in quick_report
    assert "Eq. 8" in quick_report
    assert "622-2045" in quick_report


def test_write_report(tmp_path, quick_report, monkeypatch):
    # Reuse the already-built text to keep the test fast.
    import repro.analysis.report_builder as rb

    monkeypatch.setattr(rb, "build_report", lambda quick=False: quick_report)
    path = write_report(tmp_path / "out.md", quick=True)
    assert path.exists()
    assert path.read_text().startswith("# SigmaVP reproduction")
