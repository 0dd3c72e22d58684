"""Plain-text rendering of experiment results.

:func:`render_table` is the one fixed-width renderer: every
:class:`~repro.analysis.experiments.Table` the artifact commands print
and ``benchmarks/results/`` archives goes through it, as do the CLI's
own tables.  :func:`render_series` lays (label, values) series out
against a shared x axis for it, for interactive sweeps such as
``examples/optimization_study.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width text table."""
    materialized: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    for row in materialized:
        out.append(line(row))
    return "\n".join(out)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def render_series(
    name: str,
    xs: Sequence[object],
    series: Sequence[tuple],
    x_label: str = "x",
) -> str:
    """Render one or more (label, values) series against a shared x axis."""
    headers = [x_label] + [label for label, _values in series]
    rows = []
    for index, x in enumerate(xs):
        rows.append([x] + [values[index] for _label, values in series])
    return render_table(headers, rows, title=name)
