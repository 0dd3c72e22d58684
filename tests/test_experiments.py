"""The experiment list regenerates the archived record and its claims hold.

Every table of :data:`repro.analysis.EXPERIMENTS`, rendered, must equal
its ``benchmarks/results/<stem>.txt`` byte for byte: the artifact
commands print these tables, the report writes them, and the
benchmarks archive them.  Every claim must hold on those tables, and
EXPERIMENTS.md must carry the scorecard they render to.
"""

from pathlib import Path

import pytest

from repro.analysis import EXPERIMENTS
from repro.analysis.experiments import scorecard
from repro.analysis.report_builder import render_scorecard

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"
BEGIN, END = "<!-- scorecard:begin -->", "<!-- scorecard:end -->"


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_tables_equal_the_committed_results(experiment_tables, name):
    for table in experiment_tables[name]:
        assert table.render() + "\n" == (RESULTS / f"{table.stem}.txt").read_text()


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_claim_holds(experiment_tables, name):
    verdicts = EXPERIMENTS[name].check(experiment_tables[name])
    assert verdicts and [v for v in verdicts if not v.passed] == []


def test_the_list_covers_table1_and_figs_9_to_13():
    assert list(EXPERIMENTS) == ["table1", "fig9", "fig10", "fig11", "fig12", "fig13"]
    assert [name for name, e in EXPERIMENTS.items() if e.takes_apps] == ["fig11"]


def test_each_claim_is_stated_once():
    claims = [claim for e in EXPERIMENTS.values() for claim in e.claims]
    assert len({claim.text for claim in claims}) == len(claims)


def test_experiments_md_carries_the_rendered_scorecard(experiment_tables):
    text = (ROOT / "EXPERIMENTS.md").read_text()
    committed = text.split(BEGIN, 1)[1].split(END, 1)[0].strip()
    assert committed == render_scorecard(scorecard(experiment_tables))


#: The tight claims: experiment, claim, table, row, column, and the cell
#: moved just past the claim's bound (computed from the record).
TIGHT = [
    ("table1", "Every route's ratio to the native GPU run", "table1", 4, "Ratio",
     lambda r: r["Paper ratio"] * (1 - 0.0701)),
    ("fig9", "Tk ≥ Tm: measured speedup tracks Eq. 7", "fig9a", 8, "Results",
     lambda r: r["Expected (Eq.7)"] * 1.0101),
    ("fig9", "Every N tracks Eq. 8, 3N/(N+2)", "fig9b", 4, "Results",
     lambda r: r["Expected (Eq.8)"] * (1 - 0.0251)),
    ("fig10", "The speedup at 16 coalesced programs", "fig10a", 4, "Speedup",
     lambda r: 10.54 * 1.0801),
    ("fig12", "Host runs are far shorter than the target's (H)", "fig12", 0, "H",
     lambda r: 0.15011),
    ("fig13", "The estimate matches the measured power (error, %)", "fig13", 5, "Error (%)",
     lambda r: -11.01),
]


@pytest.mark.parametrize("name, claim, stem, row, column, moved", TIGHT,
                         ids=[stem for _, _, stem, *_ in TIGHT])
def test_a_cell_past_a_tight_bound_fails_that_claim_alone(
    experiment_tables, name, claim, stem, row, column, moved
):
    tables = []
    for table in experiment_tables[name]:
        if table.stem == stem:
            rows = list(table.rows)
            cells = list(rows[row])
            cells[table.headers.index(column)] = moved(dict(zip(table.headers, cells)))
            rows[row] = tuple(cells)
            table = table._replace(rows=rows)
        tables.append(table)
    failed = [v.claim.text for v in EXPERIMENTS[name].check(tables) if not v.passed]
    assert failed == [claim]
