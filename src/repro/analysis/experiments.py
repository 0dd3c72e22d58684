"""The paper's Table 1 and Figs. 9-13, each declared once.

:data:`EXPERIMENTS` maps each artifact command (``table1``, ``fig9`` …
``fig13``) to the :class:`Table` objects it regenerates.  A table's
results stem, title, headers and point-to-row map are written here and
nowhere else, and its point set is the series function's default; all
of them follow the archived record in ``benchmarks/results/``.  Three
consumers render these same tables: the ``python -m repro`` artifact
commands print them, :func:`~repro.analysis.report_builder.build_report`
writes them as markdown, and each ``benchmarks/bench_*.py`` archives
one as ``benchmarks/results/<stem>.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

from .figures import (
    FIG11_APPS,
    CoalescingPoint,
    EstimationPoint,
    InterleavingPoint,
    PowerPoint,
    StaircasePoint,
    SuitePoint,
    fig9a_series,
    fig9b_series,
    fig10a_series,
    fig10b_series,
    fig11_series,
    fig12_series,
    fig13_series,
)
from .reporting import render_table
from .tables import Table1Row, build_table1


class Table(NamedTuple):
    """One rendered result: ``benchmarks/results/<stem>.txt``."""

    stem: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def table1(rows: Iterable[Table1Row]) -> Table:
    return Table(
        "table1",
        "Table 1: Execution time of matrix multiplication",
        ("Language", "Executed by", "Time (ms)", "Ratio", "Paper (ms)",
         "Paper ratio"),
        [(r.language, r.executed_by, r.time_ms, r.ratio, r.paper_time_ms,
          r.paper_ratio) for r in rows],
    )


def fig9a(points: Iterable[InterleavingPoint]) -> Table:
    return Table(
        "fig9a",
        "Fig 9(a): interleaving speedup vs kernel length (Tm = 13.44 ms)",
        ("kernel ms", "Results", "Expected (Eq.7)"),
        [(f"{p.x:.2f}", p.measured, p.expected) for p in points],
    )


def fig9b(points: Iterable[InterleavingPoint]) -> Table:
    return Table(
        "fig9b",
        "Fig 9(b): interleaving speedup vs number of programs (Tk = Tm)",
        ("N", "Results", "Expected (Eq.8)"),
        [(int(p.x), p.measured, p.expected) for p in points],
    )


def fig10a(points: Iterable[CoalescingPoint]) -> Table:
    return Table(
        "fig10a",
        "Fig 10(a): coalescing 64 vectorAdd programs",
        ("coalesced", "Execution time (ms)", "Speedup"),
        [(p.batch, p.total_ms, p.speedup) for p in points],
    )


def fig10b(points: Iterable[StaircasePoint]) -> Table:
    return Table(
        "fig10b",
        "Fig 10(b): kernel time vs grid size (block = 512)",
        ("grid", "Execution time (ms)"),
        [(p.grid, p.time_ms) for p in points],
    )


def fig11(points: Iterable[SuitePoint]) -> Table:
    return Table(
        "fig11",
        "Fig 11: GPU-VP emulation vs SigmaVP, 8 VPs "
        "(paper: 622-2045x plain, 1098-6304x optimized)",
        ("Application", "Emulation on VP (s)", "Speedup (multiplexing)",
         "Speedup (optimized)"),
        [(p.app, p.emulation_ms / 1e3, p.multiplexing_speedup,
          p.optimized_speedup) for p in points],
    )


def fig12(points: Iterable[EstimationPoint]) -> Table:
    return Table(
        "fig12",
        "Fig 12: normalized execution times (target = Tegra K1)",
        ("Host", "App", "H", "T", "C", "C'", "C''"),
        [(p.host, p.app, p.h_normalized, p.t_normalized, p.c_normalized,
          p.c_prime_normalized, p.c_double_prime_normalized) for p in points],
    )


def fig13(points: Iterable[PowerPoint]) -> Table:
    return Table(
        "fig13",
        "Fig 13: target power, measured vs estimated (Tegra K1)",
        ("Host", "App", "Measured (W)", "Estimate P (W)", "Error (%)"),
        [(p.host, p.app, p.measured_w, p.estimated_w, p.error_pct)
         for p in points],
    )


@dataclass(frozen=True)
class Experiment:
    """One artifact command: its heading and the tables it regenerates.

    ``run(workers, apps)`` fans each series over ``workers`` farm
    processes; ``apps`` narrows the app set of an experiment that
    ``takes_apps`` (empty means all of them).
    """

    heading: str
    run: Callable[[int, Sequence[str]], List[Table]]
    takes_apps: bool = False


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Table 1 — matrix multiplication, six routes",
        lambda workers, apps: [table1(build_table1(workers=workers))],
    ),
    "fig9": Experiment(
        "Fig. 9 — Kernel Interleaving against Eq. 7 and Eq. 8",
        lambda workers, apps: [fig9a(fig9a_series(workers=workers)),
                               fig9b(fig9b_series(workers=workers))],
    ),
    "fig10": Experiment(
        "Fig. 10 — Kernel Coalescing and Eq. 9's grid-size staircase",
        lambda workers, apps: [fig10a(fig10a_series(workers=workers)),
                               fig10b(fig10b_series())],
    ),
    "fig11": Experiment(
        "Fig. 11 — the application suite on 8 VPs",
        lambda workers, apps: [fig11(fig11_series(apps=apps or FIG11_APPS,
                                                  workers=workers))],
        takes_apps=True,
    ),
    "fig12": Experiment(
        "Fig. 12 — timing estimation",
        lambda workers, apps: [fig12(fig12_series(workers=workers))],
    ),
    "fig13": Experiment(
        "Fig. 13 — power estimation (paper: within about 10%)",
        lambda workers, apps: [fig13(fig13_series(workers=workers))],
    ),
}
