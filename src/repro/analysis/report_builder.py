"""One-shot regeneration of the full paper-vs-measured report.

``python -m repro report`` runs every experiment of
:data:`~repro.analysis.experiments.EXPERIMENTS` once and writes
:func:`build_report`: a self-contained markdown document in the shape of
EXPERIMENTS.md — the scorecard of every claim, then every table — the
reproducibility artifact a reviewer would ask for.  The tables are the
ones the artifact commands print and ``benchmarks/results/`` archives.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .experiments import EXPERIMENTS, Table, Verdict, scorecard


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


def render_scorecard(verdicts: Sequence[Verdict]) -> str:
    """One markdown table: each claim next to the paper's value."""
    return _md_table(
        ("Table", "Claim", "Paper", "Measured", "Bound", "Pass"),
        [(v.claim.stem, v.claim.text, v.paper or "—", v.measured, v.claim.bound,
          "pass" if v.passed else "**FAIL**") for v in verdicts],
    )


def build_report(tables: Mapping[str, Sequence[Table]]) -> str:
    """The markdown report of every experiment's ``tables``."""
    parts = [
        "# SigmaVP reproduction — regenerated experiment report",
        "",
        "Every number below was produced by this run (see EXPERIMENTS.md "
        "for the curated record and deviation notes).",
        "",
        "## Scorecard",
        "",
        render_scorecard(scorecard(tables)),
        "",
    ]
    for name, experiment in EXPERIMENTS.items():
        parts += [f"## {experiment.heading}", ""]
        for table in tables[name]:
            parts += [f"**{table.title}**", "",
                      _md_table(table.headers, table.rows), ""]
    return "\n".join(parts)
