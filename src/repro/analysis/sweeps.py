"""Design-space exploration sweeps.

"Simulation with multiple instances of virtual platforms enables many
important design decisions as part of the process of exploring the
design space of the target systems" (paper Section 1).  This module is
that use case as a library: sweep candidate *target* GPU configurations
(clock, SM count, cache, memory bandwidth) and predict each candidate's
execution time and power for a workload — using the same profile-based
estimation flow of Section 4, so one host profiling run serves every
candidate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from ..core.estimation import ExecutionAnalyzer
from ..exec.farm import FarmJob, ScenarioFarm
from ..gpu.arch import GPUArchitecture, QUADRO_4000, TEGRA_K1, get_architecture
from ..kernels.compiler import KernelCompiler
from ..workloads.base import WorkloadSpec
from ..workloads.catalog import get_workload


def derive_architecture(base: GPUArchitecture, name: str, **overrides) -> GPUArchitecture:
    """A candidate target: ``base`` with selected fields replaced.

    Cache fields may be overridden via ``cache_size_kb`` /
    ``cache_associativity`` / ``cache_miss_penalty_cycles`` without
    constructing a :class:`CacheGeometry` by hand.
    """
    cache_overrides = {}
    for key, field_name in (
        ("cache_size_kb", "size_kb"),
        ("cache_associativity", "associativity"),
        ("cache_miss_penalty_cycles", "miss_penalty_cycles"),
        ("cache_line_bytes", "line_bytes"),
    ):
        if key in overrides:
            cache_overrides[field_name] = overrides.pop(key)
    cache = (
        dataclasses.replace(base.cache, **cache_overrides)
        if cache_overrides
        else base.cache
    )
    return dataclasses.replace(base, name=name, cache=cache, **overrides)


@dataclass(frozen=True)
class DesignPoint:
    """One candidate target's predicted behaviour for a workload."""

    name: str
    arch: GPUArchitecture
    estimated_time_ms: float
    estimated_power_w: float

    @property
    def energy_mj(self) -> float:
        return self.estimated_power_w * self.estimated_time_ms / 1e3

    @property
    def energy_delay_product(self) -> float:
        """EDP in mJ*ms — the usual embedded design-space metric."""
        return self.energy_mj * self.estimated_time_ms


def sweep_targets(
    spec: WorkloadSpec,
    candidates: Sequence[GPUArchitecture],
    host: GPUArchitecture = QUADRO_4000,
) -> List[DesignPoint]:
    """Predict time/power for each candidate target architecture.

    The kernel is profiled once on the host; each candidate then gets
    the C'' estimate and the Eq.-6 power estimate from that one profile
    — exactly the cheap exploration loop the paper's estimation method
    enables.
    """
    kernel, launch = spec.kernel, spec.launch_config()
    compiler = KernelCompiler()
    host_profile = ExecutionAnalyzer(host, candidates[0], compiler).profile_on_host(
        kernel, launch
    )
    points = []
    for candidate in candidates:
        analyzer = ExecutionAnalyzer(host, candidate, compiler)
        cycles = analyzer.estimate_c_double_prime(kernel, launch, host_profile)
        time_ms = analyzer.estimated_time_ms(cycles)
        power = analyzer.estimate_power(
            kernel, launch, cycles=cycles, host_profile=host_profile
        )
        points.append(
            DesignPoint(
                name=candidate.name,
                arch=candidate,
                estimated_time_ms=time_ms,
                estimated_power_w=power.total_w,
            )
        )
    return points


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """The time/power Pareto-optimal candidates (both minimized)."""
    front = []
    for point in points:
        dominated = any(
            other.estimated_time_ms <= point.estimated_time_ms
            and other.estimated_power_w <= point.estimated_power_w
            and (
                other.estimated_time_ms < point.estimated_time_ms
                or other.estimated_power_w < point.estimated_power_w
            )
            for other in points
        )
        if not dominated:
            front.append(point)
    return sorted(front, key=lambda p: p.estimated_time_ms)


def sweep_point(
    app: str,
    sm_count: int,
    clock_mhz: float,
    host: str = "Quadro 4000",
) -> Dict[str, Any]:
    """One Tegra-K1-derived design candidate's predicted time and power.

    Rebuilds the candidate with :func:`tegra_scaling_candidates` so the
    parent process can re-derive the identical architecture object.
    """
    candidates = tegra_scaling_candidates(
        sm_counts=(sm_count,), clocks_mhz=(clock_mhz,)
    )
    point = sweep_targets(
        get_workload(app), candidates, host=get_architecture(host)
    )[0]
    return {
        "name": point.name,
        "estimated_time_ms": point.estimated_time_ms,
        "estimated_power_w": point.estimated_power_w,
    }


def sweep_suite(
    apps: Sequence[str],
    sm_counts: Sequence[int] = (1, 2, 4),
    clocks_mhz: Sequence[float] = (652.0, 852.0),
    host: GPUArchitecture = QUADRO_4000,
    workers: int = 1,
) -> Dict[str, List[DesignPoint]]:
    """Sweep the Tegra-scaling candidate grid across many workloads.

    This is the farm-parallel face of the exploration loop: every
    (app, SMX count, clock) combination is one independent estimation
    job, fanned over ``workers`` processes.  Candidates are re-derived
    from their grid coordinates on both sides, so the returned
    :class:`DesignPoint` objects carry the full architecture while the
    jobs themselves stay JSON-able.
    """
    grid = [(sm, clock) for sm in sm_counts for clock in clocks_mhz]
    values = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:sweep_point", kwargs={
            "app": app, "sm_count": sm, "clock_mhz": clock, "host": host.name,
        })
        for app in apps
        for sm, clock in grid
    ])
    results: Dict[str, List[DesignPoint]] = {}
    index = 0
    for app in apps:
        points = []
        for sm, clock in grid:
            value = values[index]
            index += 1
            candidate = tegra_scaling_candidates(
                sm_counts=(sm,), clocks_mhz=(clock,)
            )[0]
            points.append(
                DesignPoint(
                    name=value["name"],
                    arch=candidate,
                    estimated_time_ms=value["estimated_time_ms"],
                    estimated_power_w=value["estimated_power_w"],
                )
            )
        results[app] = points
    return results


def tegra_scaling_candidates(
    sm_counts: Sequence[int] = (1, 2, 4),
    clocks_mhz: Sequence[float] = (652.0, 852.0),
) -> List[GPUArchitecture]:
    """A default candidate set: Tegra-K1-derived designs.

    Scales the SMX count (with proportional static power) and the clock
    (with roughly quadratic dynamic-energy impact folded into the
    per-instruction energies via a linear voltage proxy).
    """
    candidates = []
    for sm_count in sm_counts:
        for clock in clocks_mhz:
            voltage_proxy = clock / TEGRA_K1.clock_mhz
            energies = {
                itype: value * voltage_proxy**2
                for itype, value in TEGRA_K1.instruction_energy_nj.items()
            }
            candidates.append(
                derive_architecture(
                    TEGRA_K1,
                    name=f"TegraK1-like {sm_count}SMX @{clock:.0f}MHz",
                    sm_count=sm_count,
                    clock_mhz=clock,
                    static_power_w=TEGRA_K1.static_power_w * sm_count**0.7,
                    instruction_energy_nj=energies,
                    memory_bandwidth_gbps=TEGRA_K1.memory_bandwidth_gbps
                    * min(2.0, sm_count**0.5),
                )
            )
    return candidates
