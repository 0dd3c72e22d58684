"""The paper's Table 1 and Figs. 9-13, each declared once with its claims.

:data:`EXPERIMENTS` maps each artifact command (``table1``, ``fig9`` …
``fig13``) to the :class:`Table` objects it regenerates and the
:class:`Claim` objects the paper makes about them.  A table's results
stem, title, headers and point-to-row map are written here and nowhere
else, and its point set is the series function's default; all of them
follow the archived record in ``benchmarks/results/``.  A claim reads
its table's rows and states its bound once: the number it checks is the
number the scorecard prints.  The ``python -m repro`` artifact commands
print the tables, ``python -m repro report`` writes them with the
:func:`scorecard` of every claim, and ``benchmarks/bench_experiments.py``
archives each table as ``benchmarks/results/<stem>.txt`` and asserts
every claim.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from ..workloads import SUITE
from .figures import (
    FIG11_APPS,
    PAPER_FIG10A,
    PAPER_FIG11,
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
from .tables import PAPER_TABLE1, Table1Row, build_table1


class Table(NamedTuple):
    """One rendered result: ``benchmarks/results/<stem>.txt``."""

    stem: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


#: A table's rows as records keyed by its headers.
Records = List[Dict[str, Any]]
#: A claim's values: one ``(label, value)`` per row it bounds.
Values = Callable[[Records], Iterable[Tuple[str, float]]]


class Verdict(NamedTuple):
    """One scorecard line: a claim, the paper's and the measured value."""

    claim: "Claim"
    paper: str
    measured: str
    passed: bool


class Claim(NamedTuple):
    """A claim about table ``stem``: ``check(records)`` returns the paper's
    value (empty where the paper gives none), the measured value and
    whether ``bound`` holds."""

    stem: str
    text: str
    bound: str
    check: Callable[[Records], Tuple[str, str, bool]]

    def verdict(self, tables: Sequence[Table]) -> Verdict:
        table = next(table for table in tables if table.stem == self.stem)
        paper, measured, passed = self.check([dict(zip(table.headers, row))
                                              for row in table.rows])
        return Verdict(self, paper, measured, passed)


def num(value: float) -> str:
    return f"{value:,.5g}"


def rel_error(stem: str, text: str, rel: float,
              pairs: Callable[[Records], Iterable[Tuple[str, float, float]]]) -> Claim:
    """Every ``(label, measured, reference)`` is within ``rel`` of its
    reference; the worst row shows, its reference as the paper's value."""

    def check(records: Records) -> Tuple[str, str, bool]:
        label, got, ref = max(pairs(records), key=lambda p: abs(p[1] - p[2]) / abs(p[2]))
        error = abs(got - ref) / abs(ref)
        return f"{num(ref)} ({label})", f"{num(got)}, {error:.2%} off", error <= rel

    return Claim(stem, text, f"≤ {rel:.1%} off", check)


_OPS = {"<": operator.lt, "≤": operator.le, ">": operator.gt, "≥": operator.ge}


def bound(stem: str, text: str, op: str, limit: float, values: Values,
          paper: str = "") -> Claim:
    """Every value stays ``op limit``; the worst one shows (the largest
    under an upper bound, the smallest over a lower one)."""

    def check(records: Records) -> Tuple[str, str, bool]:
        label, value = (max if op in "<≤" else min)(values(records), key=lambda lv: lv[1])
        return paper, f"{num(value)} ({label})", _OPS[op](value, limit)

    return Claim(stem, text, f"{op} {limit:g}", check)


def in_range(stem: str, text: str, lo: float, hi: float, values: Values,
             closed: bool = True) -> Claim:
    """Every value lies in ``[lo, hi]``, or ``(lo, hi)`` if not ``closed``."""
    inside = operator.le if closed else operator.lt

    def check(records: Records) -> Tuple[str, str, bool]:
        got = sorted(value for _, value in values(records))
        return ("", f"{num(got[0])}–{num(got[-1])}",
                inside(lo, got[0]) and inside(got[-1], hi))

    return Claim(stem, text, f"[{lo:g}, {hi:g}]" if closed else f"({lo:g}, {hi:g})", check)


def fact(stem: str, text: str, shown: str, check: Callable[[Records], Tuple[str, bool]],
         paper: str = "") -> Claim:
    """A structural claim: ``check(records)`` returns the measured text and
    whether it holds; ``shown`` states what must hold."""
    return Claim(stem, text, shown, lambda records: (paper, *check(records)))


def table1(rows: Iterable[Table1Row]) -> Table:
    return Table(
        "table1",
        "Table 1: Execution time of matrix multiplication",
        ("Language", "Executed by", "Time (ms)", "Ratio", "Paper (ms)",
         "Paper ratio"),
        [(r.language, r.executed_by, r.time_ms, r.ratio, r.paper_time_ms,
          r.paper_ratio) for r in rows],
    )


def _route(r: Dict[str, Any]) -> str:
    return f"{r['Language']} / {r['Executed by']}"


#: Plain C beats CUDA emulation on the same CPU, and the CPU beats the VP.
_TABLE1_ORDER = ("C / CPU", "CUDA / Emul. on CPU", "C / VP", "CUDA / Emul. on VP")


def _table1_order(records: Records) -> Tuple[str, bool]:
    ratio = {_route(r): r["Ratio"] for r in records}
    order = [ratio[route] for route in _TABLE1_ORDER]
    return " < ".join(map(num, order)), all(a < b for a, b in zip(order, order[1:]))


TABLE1_CLAIMS = (
    rel_error("table1", "Every route's ratio to the native GPU run", 0.07,
              lambda rs: [(_route(r), r["Ratio"], r["Paper ratio"]) for r in rs]),
    bound("table1", "SigmaVP runs within a few × of native", "<", 10,
          lambda rs: [(_route(r), r["Ratio"]) for r in rs if _route(r) == "CUDA / This work"],
          paper=num(PAPER_TABLE1["CUDA / This work"][1])),
    fact("table1", "Route order " + " < ".join(_TABLE1_ORDER), "increasing", _table1_order,
         paper=" < ".join(num(PAPER_TABLE1[route][1]) for route in _TABLE1_ORDER)),
)


#: Fig. 9(a)'s fixed memory-copy time Tm, ms.
FIG9A_TM = 13.44


def fig9a(points: Iterable[InterleavingPoint]) -> Table:
    return Table(
        "fig9a",
        f"Fig 9(a): interleaving speedup vs kernel length (Tm = {FIG9A_TM} ms)",
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


def _excess(records: Records) -> List[Tuple[str, float]]:
    """Measured over Eq. 7 where the kernel is shorter than the copy."""
    return [(f"Tk = {r['kernel ms']}", r["Results"] - r["Expected (Eq.7)"])
            for r in records if float(r["kernel ms"]) < FIG9A_TM]


def _falling_excess(records: Records) -> Tuple[str, bool]:
    excess = [value for _, value in _excess(records)]
    return (", ".join(f"{value:+.3f}" for value in excess),
            [label for label, _ in _excess(records)] == ["Tk = 1.00", "Tk = 4.00", "Tk = 8.00"]
            and all(e > 0 for e in excess) and excess == sorted(excess, reverse=True))


def _peak(records: Records) -> Tuple[str, bool]:
    tk = max(records, key=lambda r: r["Results"])["kernel ms"]
    return f"Tk = {tk}", float(tk) == FIG9A_TM


FIG9_CLAIMS = (
    rel_error("fig9a", "Tk ≥ Tm: measured speedup tracks Eq. 7", 0.01,
              lambda rs: [(f"Tk = {r['kernel ms']}", r["Results"], r["Expected (Eq.7)"])
                          for r in rs if float(r["kernel ms"]) >= FIG9A_TM]),
    fact("fig9a", "Tk < Tm: measured runs above Eq. 7, less so as Tk grows",
         "> 0, falling, at Tk = 1, 4, 8", _falling_excess),
    bound("fig9a", "Tk < Tm: the largest excess over Eq. 7", "≤", 0.32, _excess),
    fact("fig9a", "The speedup peaks where the kernel hides the copy", f"Tk = {FIG9A_TM:.2f}",
         _peak, paper=f"Tk = Tm = {FIG9A_TM:.2f} ms"),
    rel_error("fig9b", "Every N tracks Eq. 8, 3N/(N+2)", 0.025,
              lambda rs: [(f"N = {r['N']}", r["Results"], r["Expected (Eq.8)"]) for r in rs]),
    bound("fig9b", "The speedup grows with N (smallest step)", "≥", 0,
          lambda rs: [(f"N = {a['N']} → {b['N']}", b["Results"] - a["Results"])
                      for a, b in zip(rs, rs[1:])]),
    bound("fig9b", "The speedup approaches the 3× asymptote", ">", 2.5,
          lambda rs: [(f"N = {rs[-1]['N']}", rs[-1]["Results"])], paper="3 (N → ∞)"),
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


def _speedup_at(batch: int) -> Values:
    return lambda rs: [(f"{batch} coalesced", r["Speedup"]) for r in rs if r["coalesced"] == batch]


def _time_ratio(grid: int, base: int) -> Values:
    """Grid ``grid``'s kernel time over grid ``base``'s."""

    def values(records: Records) -> List[Tuple[str, float]]:
        times = {r["grid"]: r["Execution time (ms)"] for r in records}
        return [(f"grid {grid} / {base}", times[grid] / times[base])]

    return values


FIG10_CLAIMS = (
    bound("fig10a", "The speedup grows with the degree (smallest step)", "≥", -1e-6,
          lambda rs: [(f"{a['coalesced']} → {b['coalesced']}", b["Speedup"] - a["Speedup"])
                      for a, b in zip(rs, rs[1:])]),
    rel_error("fig10a", "The speedup at 16 coalesced programs", 0.08,
              lambda rs: [(label, got, PAPER_FIG10A[16]) for label, got in _speedup_at(16)(rs)]),
    bound("fig10a", "The speedup at 64 coalesced programs is of the paper's order", ">",
          PAPER_FIG10A[64] / 2.5, _speedup_at(64), paper=num(PAPER_FIG10A[64])),
    bound("fig10b", "Grids 9 and 16 take the same time (relative gap)", "≤", 0.02,
          lambda rs: [(label, abs(ratio - 1)) for label, ratio in _time_ratio(9, 16)(rs)],
          paper="the same time"),
    bound("fig10b", "A step up at grid 17 (time ratio)", ">", 1.1, _time_ratio(17, 16)),
    bound("fig10b", "A step up at grid 33 (time ratio)", ">", 1.05, _time_ratio(33, 32)),
    bound("fig10b", "Steps across grids 1-64 (time ratio)", ">", 2.0, _time_ratio(64, 1)),
)


def _band(kind: str) -> str:
    return "-".join(map(str, PAPER_FIG11[kind]))


def fig11(points: Iterable[SuitePoint]) -> Table:
    return Table(
        "fig11",
        f"Fig 11: GPU-VP emulation vs SigmaVP, 8 VPs (paper: {_band('multiplexing')}x "
        f"plain, {_band('optimized')}x optimized)",
        ("Application", "Emulation on VP (s)", "Speedup (multiplexing)",
         "Speedup (optimized)"),
        [(p.app, p.emulation_ms / 1e3, p.multiplexing_speedup,
          p.optimized_speedup) for p in points],
    )


_PLAIN, _OPTIMIZED = "Speedup (multiplexing)", "Speedup (optimized)"
#: Section 5's app groups: FP-light apps trail FP-heavy ones, and the two
#: optimizations speed up the benefiting apps' kernels only.
_FP_LIGHT = ("VolumeFiltering", "SobelFilter", "stereoDisparity", "mergeSort")
_FP_HEAVY = ("BlackScholes", "matrixMul", "Mandelbrot")
_NOT_BENEFITING = ("convolutionSeparable", "dct8x8", "SobelFilter", "MonteCarlo", "nbody",
                   "smokeParticles")
_BENEFITING = ("bicubicTexture", "stereoDisparity", "recursiveGaussian", "mergeSort",
               "simpleGL", "BlackScholes")


def _apps(value: Callable[[Dict[str, Any]], float], apps: Sequence[str] = FIG11_APPS) -> Values:
    return lambda rs: [(r["Application"], value(r)) for r in rs if r["Application"] in apps]


def _gain(r: Dict[str, Any]) -> float:
    """The two optimizations' gain over plain multiplexing."""
    return r[_OPTIMIZED] / r[_PLAIN]


def _best(column: str, allowed: Sequence[str]) -> Callable[[Records], Tuple[str, bool]]:
    def check(records: Records) -> Tuple[str, bool]:
        best = max(records, key=lambda r: r[column])
        return f"{best['Application']} ({num(best[column])})", best["Application"] in allowed

    return check


def _fp_light_trail(records: Records) -> Tuple[str, bool]:
    plain = {r["Application"]: r[_PLAIN] for r in records}
    light, heavy = max(_FP_LIGHT, key=plain.get), min(_FP_HEAVY, key=plain.get)
    return (f"{light} {num(plain[light])} < {heavy} {num(plain[heavy])}",
            plain[light] < plain[heavy])


FIG11_CLAIMS = (
    bound("fig11", "Plain multiplexing: orders of magnitude on every app", ">", 100,
          _apps(lambda r: r[_PLAIN]), paper=_band("multiplexing")),
    bound("fig11", "Optimized multiplexing: orders of magnitude on every app", ">", 100,
          _apps(lambda r: r[_OPTIMIZED]), paper=_band("optimized")),
    fact("fig11", "The best plain-multiplexing case", "BlackScholes, Mandelbrot or matrixMul",
         _best(_PLAIN, ("BlackScholes", "Mandelbrot", "matrixMul"))),
    bound("fig11", "BlackScholes' plain-multiplexing speedup", ">", 1000,
          _apps(lambda r: r[_PLAIN], ("BlackScholes",))),
    fact("fig11", "The best optimized case", "BlackScholes", _best(_OPTIMIZED, ("BlackScholes",))),
    fact("fig11", "FP-light apps trail the FP-heavy ones (plain)",
         "fastest FP-light < slowest FP-heavy", _fp_light_trail),
    bound("fig11", "The six non-benefiting apps gain little (optimized / plain)", "<", 1.07,
          _apps(_gain, _NOT_BENEFITING)),
    in_range("fig11", "The six benefiting apps gain (optimized / plain)", 1.2, 2.6,
             _apps(_gain, _BENEFITING)),
    fact("fig11", "The rows are the paper's apps, all in the catalog", "FIG11_APPS ⊆ SUITE",
         lambda rs: (f"{len(rs)} apps", {r["Application"] for r in rs} == set(FIG11_APPS)
                     and set(FIG11_APPS) <= set(SUITE)),
         paper=f"{len(FIG11_APPS)} apps"),
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


def _rows(value: Callable[[Dict[str, Any]], float]) -> Values:
    return lambda rs: [(f"{r['Host']} {r['App']}", value(r)) for r in rs]


def _error_gap(estimate: str, cruder: str) -> Values:
    """How much farther from 1 ``estimate`` lands than ``cruder``."""
    return _rows(lambda r: abs(r[estimate] - 1) - abs(r[cruder] - 1))


def _host_gap(column: str, relative: bool) -> Values:
    """Per app, the gap between its two hosts' ``column`` (over the first
    host's if ``relative``); infinite unless there are exactly two."""

    def values(records: Records) -> List[Tuple[str, float]]:
        per_app: Dict[str, List[float]] = {}
        for r in records:
            per_app.setdefault(r["App"], []).append(r[column])
        return [(app, abs(v[0] - v[1]) / (v[0] if relative else 1) if len(v) == 2 else math.inf)
                for app, v in per_app.items()]

    return values


def _signs(records: Records) -> Dict[str, Tuple[str, List[str]]]:
    """Per host: the app that under-estimates most, and those that over-estimate."""
    by_host: Dict[str, Dict[str, float]] = {}
    for r in records:
        by_host.setdefault(r["Host"], {})[r["App"]] = r["Error (%)"]
    return {host: (min(errors, key=errors.__getitem__), [a for a, e in errors.items() if e > 0])
            for host, errors in by_host.items()}


FIG12_CLAIMS = (
    in_range("fig12", "Host runs are far shorter than the target's (H)", 0.01, 0.1501,
             _rows(lambda r: r["H"])),
    bound("fig12", "C'' is no farther from 1 than C' (error gap)", "≤", 1e-9,
          _error_gap("C''", "C'")),
    bound("fig12", "C'' is no farther from 1 than C (error gap)", "≤", 1e-9,
          _error_gap("C''", "C")),
    bound("fig12", "C' is about as close to 1 as C (error gap)", "≤", 0.02,
          _error_gap("C'", "C")),
    bound("fig12", "C'' is close to 1 on both hosts (distance)", "≤", 0.15,
          _rows(lambda r: abs(r["C''"] - 1)), paper="close to 1"),
    bound("fig12", "C'' agrees across the two hosts (gap)", "<", 0.1,
          _host_gap("C''", relative=False)),
)

FIG13_CLAIMS = (
    bound("fig13", "The estimate matches the measured power (error, %)", "≤", 11.0,
          _rows(lambda r: abs(r["Error (%)"])), paper="within about 10%"),
    fact("fig13", "DRAM-heavy matrixMul under-estimates most", "matrixMul on 2 hosts",
         lambda rs: ("; ".join(f"{host}: {low}" for host, (low, _) in _signs(rs).items()),
                     [low for low, _ in _signs(rs).values()] == ["matrixMul"] * 2)),
    fact("fig13", "Mandelbrot alone over-estimates", "Mandelbrot on each host",
         lambda rs: ("; ".join(f"{host}: {', '.join(over)}"
                               for host, (_, over) in _signs(rs).items()),
                     all(over == ["Mandelbrot"] for _, over in _signs(rs).values()))),
    in_range("fig13", "A Tegra K1 board draws single-digit watts", 1.0, 12.0,
             _rows(lambda r: r["Measured (W)"]), closed=False),
    bound("fig13", "The estimate agrees across the two hosts (relative gap)", "<", 0.05,
          _host_gap("Estimate P (W)", relative=True)),
)


@dataclass(frozen=True)
class Experiment:
    """One artifact command: its heading, the tables it regenerates and
    the claims they meet.

    ``run(workers, apps)`` fans each series over ``workers`` farm
    processes; ``apps`` narrows the app set of an experiment that
    ``takes_apps`` (empty means all of them).
    """

    heading: str
    run: Callable[[int, Sequence[str]], List[Table]]
    claims: Tuple[Claim, ...]
    takes_apps: bool = False

    def check(self, tables: Sequence[Table]) -> List[Verdict]:
        """Every claim's verdict on this experiment's ``tables``."""
        return [claim.verdict(tables) for claim in self.claims]


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "Table 1 — matrix multiplication, six routes",
        lambda workers, apps: [table1(build_table1(workers=workers))],
        TABLE1_CLAIMS,
    ),
    "fig9": Experiment(
        "Fig. 9 — Kernel Interleaving against Eq. 7 and Eq. 8",
        lambda workers, apps: [fig9a(fig9a_series(workers=workers)),
                               fig9b(fig9b_series(workers=workers))],
        FIG9_CLAIMS,
    ),
    "fig10": Experiment(
        "Fig. 10 — Kernel Coalescing and Eq. 9's grid-size staircase",
        lambda workers, apps: [fig10a(fig10a_series(workers=workers)),
                               fig10b(fig10b_series())],
        FIG10_CLAIMS,
    ),
    "fig11": Experiment(
        "Fig. 11 — the application suite on 8 VPs",
        lambda workers, apps: [fig11(fig11_series(apps=apps or FIG11_APPS,
                                                  workers=workers))],
        FIG11_CLAIMS,
        takes_apps=True,
    ),
    "fig12": Experiment(
        "Fig. 12 — timing estimation",
        lambda workers, apps: [fig12(fig12_series(workers=workers))],
        FIG12_CLAIMS,
    ),
    "fig13": Experiment(
        "Fig. 13 — power estimation (paper: within about 10%)",
        lambda workers, apps: [fig13(fig13_series(workers=workers))],
        FIG13_CLAIMS,
    ),
}


def run_experiments() -> Dict[str, List[Table]]:
    """Every experiment's tables, each experiment run once, serially."""
    return {name: experiment.run(1, ()) for name, experiment in EXPERIMENTS.items()}


def scorecard(tables: Mapping[str, Sequence[Table]]) -> List[Verdict]:
    """Every claim's verdict, experiment by experiment."""
    return [verdict for name, experiment in EXPERIMENTS.items()
            for verdict in experiment.check(tables[name])]
