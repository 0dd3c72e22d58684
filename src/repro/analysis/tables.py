"""Regeneration of the paper's Table 1.

"Execution time of matrix multiplication" across six execution routes,
with the native-GPU run as the ratio base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.scenarios import (
    run_c_program,
    run_emulation,
    run_native_gpu,
    run_sigma_vp,
)
from ..exec.farm import FarmJob, ScenarioFarm
from ..vp.cpu import HOST_XEON, QEMU_ARM_VP
from ..workloads.catalog import get_workload

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


def table1_route(route: str, app: str = "matrixMul") -> float:
    """Total ms of one Table 1 execution route for a catalogued app."""
    spec = get_workload(app)
    if route == "CUDA / GPU":
        return run_native_gpu(spec).total_ms
    if route == "CUDA / Emul. on CPU":
        return run_emulation(spec, cpu=HOST_XEON).total_ms
    if route == "CUDA / Emul. on VP":
        return run_emulation(spec, cpu=QEMU_ARM_VP).total_ms
    if route == "CUDA / This work":
        return run_sigma_vp(spec, n_vps=1).total_ms
    if route == "C / CPU":
        return run_c_program(spec, cpu=HOST_XEON).total_ms
    if route == "C / VP":
        return run_c_program(spec, cpu=QEMU_ARM_VP).total_ms
    raise ValueError(f"unknown Table 1 route {route!r}")


def build_table1(workers: int = 1) -> List[Table1Row]:
    """Run all six Table 1 routes on matrixMul; rows in the paper's order.

    Each route is an independent simulation (:func:`table1_route`);
    ``workers>1`` fans the six routes over the scenario farm.
    """
    routes = list(PAPER_TABLE1)
    times = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:table1_route",
                kwargs={"route": route, "app": "matrixMul"})
        for route in routes
    ])
    measured = dict(zip(routes, times))
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
