"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or
an ablation/scaling study), prints it, and archives the rendered text
under ``benchmarks/results/`` so a run leaves a complete
paper-vs-measured record behind.  The paper's artifacts are the tables
of :mod:`repro.analysis.experiments`, the same ones ``python -m repro
table1`` … ``fig13`` print.
"""

from pathlib import Path

import pytest

from repro.analysis import Table

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record_result():
    """Print a :class:`~repro.analysis.Table` and archive it to
    ``results/<stem>.txt``."""

    def _record(table: Table) -> None:
        text = table.render()
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{table.stem}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record
