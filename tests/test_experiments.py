"""The experiment list regenerates the archived record.

Every table of :data:`repro.analysis.EXPERIMENTS`, rendered, must equal
its ``benchmarks/results/<stem>.txt`` byte for byte: the artifact
commands print these tables, the report writes them, and the
benchmarks archive them.
"""

from pathlib import Path

import pytest

from repro.analysis import EXPERIMENTS

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_tables_equal_the_committed_results(name):
    for table in EXPERIMENTS[name].run(1, ()):
        assert table.render() + "\n" == (RESULTS / f"{table.stem}.txt").read_text()


def test_the_list_covers_table1_and_figs_9_to_13():
    assert list(EXPERIMENTS) == ["table1", "fig9", "fig10", "fig11", "fig12", "fig13"]
    assert [name for name, e in EXPERIMENTS.items() if e.takes_apps] == ["fig11"]
