"""Tests for the one-shot report builder."""

import pytest

from repro.analysis.experiments import scorecard
from repro.analysis.report_builder import _md_table, build_report, render_scorecard


def test_md_table_shape():
    text = _md_table(["a", "b"], [(1, 2.5), ("x", 1234.0)])
    lines = text.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert "| 1 | 2.500 |" in lines
    assert "1,234" in text


@pytest.fixture(scope="module")
def report(experiment_tables):
    return build_report(experiment_tables)


def test_report_contains_every_experiment(report):
    for heading in ("Scorecard", "Table 1", "Fig. 9", "Fig. 10", "Fig. 11",
                    "Fig. 12", "Fig. 13"):
        assert heading in report


def test_report_carries_the_full_fig11_suite(report):
    assert "segmentationTreeThrust" in report


def test_report_carries_paper_references(report):
    assert "2,192.95" in report or "2192.95" in report
    assert "Eq. 8" in report
    assert "622-2045" in report


def test_report_scorecard_has_one_line_per_claim(report, experiment_tables):
    verdicts = scorecard(experiment_tables)
    card = render_scorecard(verdicts)
    assert card in report
    assert len(card.splitlines()) == 2 + len(verdicts)
    assert "**FAIL**" not in card

