"""Experiment regeneration: the paper's tables and figures as code.

The ``*_series`` functions and :func:`build_table1` run the paper's
experiments; :data:`EXPERIMENTS` declares, once, the tables each
artifact command prints, the report writes and ``benchmarks/`` archives
(:mod:`repro.analysis.experiments`).
"""

from .critpath import (
    CritPathReport,
    DeviceAttribution,
    attribute,
    render_critpath,
)
from .experiments import EXPERIMENTS, Experiment, Table
from .figures import (
    CoalescingPoint,
    EstimationPoint,
    FIG11_APPS,
    InterleavingPoint,
    PAPER_FIG10A,
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
from .report_builder import build_report, write_report
from .reporting import render_table
from .sweeps import (
    DesignPoint,
    derive_architecture,
    pareto_front,
    sweep_suite,
    sweep_targets,
    tegra_scaling_candidates,
)
from .tables import PAPER_TABLE1, Table1Row, build_table1
from .timeline import Timeline, collect_timeline, render_gantt
from .validation import ValidationResult, validate_suite, validate_workload

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Table",
    "CoalescingPoint",
    "EstimationPoint",
    "FIG11_APPS",
    "InterleavingPoint",
    "PAPER_FIG10A",
    "PAPER_TABLE1",
    "PowerPoint",
    "StaircasePoint",
    "SuitePoint",
    "Table1Row",
    "Timeline",
    "DesignPoint",
    "ValidationResult",
    "CritPathReport",
    "DeviceAttribution",
    "attribute",
    "render_critpath",
    "build_report",
    "build_table1",
    "collect_timeline",
    "derive_architecture",
    "pareto_front",
    "render_gantt",
    "sweep_suite",
    "sweep_targets",
    "tegra_scaling_candidates",
    "validate_suite",
    "validate_workload",
    "write_report",
    "fig9a_series",
    "fig9b_series",
    "fig10a_series",
    "fig10b_series",
    "fig11_series",
    "fig12_series",
    "fig13_series",
    "render_table",
]
