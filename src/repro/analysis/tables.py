"""Regeneration of the paper's Table 1.

"Execution time of matrix multiplication" across six execution routes,
with the native-GPU run as the ratio base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.scenarios import (
    run_c_program,
    run_emulation,
    run_native_gpu,
    run_sigma_vp,
)
from ..vp.cpu import HOST_XEON, QEMU_ARM_VP
from ..workloads.base import WorkloadSpec
from ..workloads.catalog import get_workload
from .reporting import render_table

#: The paper's Table 1 values (time in ms, ratio to native GPU).
PAPER_TABLE1 = {
    "CUDA / GPU": (170.79, 1.00),
    "CUDA / Emul. on CPU": (9141.51, 53.52),
    "CUDA / Emul. on VP": (374534.34, 2192.95),
    "CUDA / This work": (568.12, 3.32),
    "C / CPU": (8213.09, 48.09),
    "C / VP": (269874.03, 1580.15),
}


@dataclass(frozen=True)
class Table1Row:
    language: str
    executed_by: str
    time_ms: float
    ratio: float
    paper_time_ms: float
    paper_ratio: float

    @property
    def key(self) -> str:
        return f"{self.language} / {self.executed_by}"


def build_table1(
    spec: Optional[WorkloadSpec] = None, workers: int = 1
) -> List[Table1Row]:
    """Run all six Table 1 routes and return the rows, paper-ordered.

    Each route is an independent simulation; ``workers>1`` fans the six
    routes over the scenario farm.  A spec that is not the catalogued
    object of its name cannot be rebuilt by name inside a worker, so it
    keeps the serial path.
    """
    from ..exec import jobs as farm_jobs
    from ..exec.farm import ScenarioFarm
    from ..workloads.catalog import SUITE

    spec = spec or get_workload("matrixMul")
    routes = list(PAPER_TABLE1)
    if SUITE.get(spec.name) is spec:
        farm = ScenarioFarm(workers=workers)
        times = farm_jobs.fanout(
            farm,
            "repro.exec.jobs:table1_route",
            [{"route": route, "app": spec.name} for route in routes],
            label="table1",
        )
        measured = dict(zip(routes, times))
    else:
        measured = {
            "CUDA / GPU": run_native_gpu(spec).total_ms,
            "CUDA / Emul. on CPU": run_emulation(spec, cpu=HOST_XEON).total_ms,
            "CUDA / Emul. on VP": run_emulation(spec, cpu=QEMU_ARM_VP).total_ms,
            "CUDA / This work": run_sigma_vp(spec, n_vps=1).total_ms,
            "C / CPU": run_c_program(spec, cpu=HOST_XEON).total_ms,
            "C / VP": run_c_program(spec, cpu=QEMU_ARM_VP).total_ms,
        }
    native = measured["CUDA / GPU"]
    rows = []
    for key, time_ms in measured.items():
        language, executed_by = key.split(" / ", 1)
        paper_time, paper_ratio = PAPER_TABLE1[key]
        rows.append(
            Table1Row(
                language=language,
                executed_by=executed_by,
                time_ms=time_ms,
                ratio=time_ms / native,
                paper_time_ms=paper_time,
                paper_ratio=paper_ratio,
            )
        )
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    return render_table(
        ["Language", "Executed by", "Time (ms)", "Ratio",
         "Paper (ms)", "Paper ratio"],
        [
            (r.language, r.executed_by, r.time_ms, r.ratio,
             r.paper_time_ms, r.paper_ratio)
            for r in rows
        ],
        title="Table 1: Execution time of matrix multiplication",
    )
