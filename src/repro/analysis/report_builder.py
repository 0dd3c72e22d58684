"""One-shot regeneration of the full paper-vs-measured report.

``python -m repro report`` (or :func:`build_report`) reruns every
experiment of :data:`~repro.analysis.experiments.EXPERIMENTS` and
writes its tables as a self-contained markdown document in the shape
of EXPERIMENTS.md — the reproducibility artifact a reviewer would ask
for.  The tables are the ones the artifact commands print and
``benchmarks/results/`` archives.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .experiments import EXPERIMENTS

#: A reduced Fig-11 app set for quick report runs.
QUICK_FIG11_APPS = ("BlackScholes", "matrixMul", "SobelFilter", "mergeSort")


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:,.2f}" if abs(cell) >= 10 else f"{cell:.3f}"
        return str(cell)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
    return "\n".join(lines)


def build_report(quick: bool = False) -> str:
    """Rerun all experiments; returns the markdown report text."""
    apps = QUICK_FIG11_APPS if quick else ()
    parts = [
        "# SigmaVP reproduction — regenerated experiment report",
        "",
        "Every number below was produced by this run (see EXPERIMENTS.md "
        "for the curated record and deviation notes).",
        "",
    ]
    for experiment in EXPERIMENTS.values():
        parts += [f"## {experiment.heading}", ""]
        for table in experiment.run(1, apps):
            parts += [f"**{table.title}**", "",
                      _md_table(table.headers, table.rows), ""]
    return "\n".join(parts)


def write_report(path: Path, quick: bool = False) -> Path:
    """Build the report and write it to ``path``."""
    path = Path(path)
    path.write_text(build_report(quick=quick) + "\n")
    return path
