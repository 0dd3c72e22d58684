"""One-shot regeneration of the full paper-vs-measured report.

``python -m repro report`` (or :func:`build_report`) reruns every
experiment and emits a self-contained markdown document in the shape of
EXPERIMENTS.md — the reproducibility artifact a reviewer would ask for.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from .figures import (
    FIG11_APPS,
    fig9a_series,
    fig9b_series,
    fig10a_series,
    fig10b_series,
    fig11_series,
    fig12_series,
    fig13_series,
)
from .tables import build_table1

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


@dataclass
class ReportSection:
    title: str
    body: str


def _section_table1() -> ReportSection:
    rows = build_table1()
    body = _md_table(
        ["Language", "Executed by", "Measured (ms)", "Ratio",
         "Paper (ms)", "Paper ratio"],
        [(r.language, r.executed_by, r.time_ms, r.ratio,
          r.paper_time_ms, r.paper_ratio) for r in rows],
    )
    return ReportSection("Table 1 — matrix multiplication, six routes", body)


def _section_fig9() -> ReportSection:
    a = fig9a_series(kernel_lengths_ms=(2.0, 8.0, 13.44, 30.0, 60.0))
    b = fig9b_series()
    body = (
        "**(a) speedup vs kernel length (2 programs, Tm = 13.44 ms):**\n\n"
        + _md_table(["kernel (ms)", "measured", "expected (Eq. 7)"],
                    [(f"{p.x:.2f}", p.measured, p.expected) for p in a])
        + "\n\n**(b) speedup vs N programs (Tk = Tm):**\n\n"
        + _md_table(["N", "measured", "3N/(N+2) (Eq. 8)"],
                    [(int(p.x), p.measured, p.expected) for p in b])
    )
    return ReportSection("Fig. 9 — Kernel Interleaving", body)


def _section_fig10() -> ReportSection:
    a = fig10a_series()
    stair = fig10b_series(grids=(1, 8, 9, 16, 17, 32, 33, 48, 49, 64))
    body = (
        "**(a) coalescence effectiveness (64 programs):**\n\n"
        + _md_table(["coalesced", "time (ms)", "speedup"],
                    [(p.batch, p.total_ms, p.speedup) for p in a])
        + "\n\n**(b) grid-size staircase (Eq. 9):**\n\n"
        + _md_table(["grid", "time (ms)"],
                    [(p.grid, p.time_ms) for p in stair])
    )
    return ReportSection("Fig. 10 — Kernel Coalescing", body)


def _section_fig11(apps: Sequence[str]) -> ReportSection:
    points = fig11_series(apps=apps)
    body = _md_table(
        ["app", "emulation (s)", "x multiplexing", "x optimized"],
        [(p.app, p.emulation_ms / 1e3, p.multiplexing_speedup,
          p.optimized_speedup) for p in points],
    ) + ("\n\nPaper bands: 622-2045x (multiplexing), "
         "1098-6304x (optimized).")
    return ReportSection("Fig. 11 — the application suite (8 VPs)", body)


def _section_fig12() -> ReportSection:
    points = fig12_series()
    body = _md_table(
        ["host", "app", "H", "C", "C'", "C''"],
        [(p.host, p.app, p.h_normalized, p.c_normalized,
          p.c_prime_normalized, p.c_double_prime_normalized)
         for p in points],
    ) + "\n\nAll values normalized by the Tegra K1 observation (T = 1)."
    return ReportSection("Fig. 12 — timing estimation", body)


def _section_fig13() -> ReportSection:
    points = fig13_series()
    body = _md_table(
        ["host", "app", "measured (W)", "estimate (W)", "error (%)"],
        [(p.host, p.app, p.measured_w, p.estimated_w, p.error_pct)
         for p in points],
    ) + "\n\nPaper claim: estimates within about 10% of measured."
    return ReportSection("Fig. 13 — power estimation", body)


def build_report(quick: bool = False) -> str:
    """Rerun all experiments; returns the markdown report text."""
    apps = QUICK_FIG11_APPS if quick else FIG11_APPS
    sections: List[ReportSection] = [
        _section_table1(),
        _section_fig9(),
        _section_fig10(),
        _section_fig11(apps),
        _section_fig12(),
        _section_fig13(),
    ]
    parts = [
        "# SigmaVP reproduction — regenerated experiment report",
        "",
        "Every number below was produced by this run (see EXPERIMENTS.md "
        "for the curated record and deviation notes).",
        "",
    ]
    for section in sections:
        parts.append(f"## {section.title}")
        parts.append("")
        parts.append(section.body)
        parts.append("")
    return "\n".join(parts)


def write_report(path: Path, quick: bool = False) -> Path:
    """Build the report and write it to ``path``."""
    path = Path(path)
    path.write_text(build_report(quick=quick) + "\n")
    return path
