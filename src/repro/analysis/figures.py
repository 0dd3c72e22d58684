"""Regeneration of the paper's Figures 9-13.

Each ``fig*_series`` function runs the corresponding experiment through
the full simulation stack and returns the measured series next to the
analytical/expected values the paper plots;
:mod:`repro.analysis.experiments` lays them out as the archived tables.

Every point of a figure is an independent simulation, so each series
fans its points out over the :class:`~repro.exec.ScenarioFarm`: pass
``workers=N`` to run N points concurrently in worker processes.  The
default ``workers=1`` runs the identical job functions serially
in-process, so parallel and serial series are bit-identical.  Each
``fig*_point`` function sits beside the series that fans it out; a job
names it by its frozen tag (:data:`repro.exec.farm.JOB_HOMES`).  The
Fig. 9 and Fig. 10(a) jobs run over shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.estimation import ExecutionAnalyzer
from ..core.interleaving import balanced_speedup, expected_speedup
from ..core.ipc import SHARED_MEMORY, resolve_transport
from ..core.scenarios import run_emulation, run_sigma_vp
from ..exec.farm import FarmJob, ScenarioFarm
from ..gpu.arch import (
    GPUArchitecture,
    GRID_K520,
    QUADRO_4000,
    TEGRA_K1,
    get_architecture,
)
from ..gpu.timing import KernelTimingModel
from ..kernels.compiler import KernelCompiler
from ..kernels.launch import LaunchConfig
from ..workloads.catalog import ESTIMATION_APPS, get_workload
from ..workloads.linalg import make_vectoradd_kernel, make_vectoradd_spec
from ..workloads.synthetic import make_phase_workload, measured_phase_times


# ---------------------------------------------------------------------------
# Fig. 9: Kernel Interleaving
# ---------------------------------------------------------------------------


@dataclass
class InterleavingPoint:
    """One point of Fig. 9: measured vs expected speedup."""

    x: float
    measured: float
    expected: float


def fig9a_point(
    t_kernel_ms: float,
    t_copy_ms: float = 13.44,
    transport: str = "shared-memory",
) -> Dict[str, float]:
    """One Fig. 9(a) point: interleaving speedup at one kernel length."""
    ipc = resolve_transport(transport)
    spec = make_phase_workload(t_kernel_ms=t_kernel_ms, t_copy_ms=t_copy_ms)
    tm, tk = measured_phase_times(spec)
    serial = run_sigma_vp(spec, n_vps=2, interleaving=False,
                          coalescing=False, transport=ipc)
    inter = run_sigma_vp(spec, n_vps=2, interleaving=True,
                         coalescing=False, transport=ipc)
    return {
        "x": tk,
        "measured": serial.total_ms / inter.total_ms,
        "expected": expected_speedup(2, tm, tk),
    }


def fig9a_series(
    kernel_lengths_ms: Sequence[float] = (1.0, 4.0, 8.0, 13.44, 20.0, 40.0, 60.0, 80.0, 100.0),
    t_copy_ms: float = 13.44,
    workers: int = 1,
) -> List[InterleavingPoint]:
    """Fig. 9(a): two interleaved programs, kernel length swept.

    The copy time is fixed at the paper's 13.44 ms; speedup peaks where
    the kernel matches it (latency hiding).
    """
    values = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:fig9a_point", kwargs={
            "t_kernel_ms": tk, "t_copy_ms": t_copy_ms,
            "transport": SHARED_MEMORY.name,
        })
        for tk in kernel_lengths_ms
    ])
    return [InterleavingPoint(**value) for value in values]


def fig9b_point(
    n_programs: int,
    t_phase_ms: float = 4.0,
    transport: str = "shared-memory",
) -> Dict[str, float]:
    """One Fig. 9(b) point: interleaving speedup for N balanced programs."""
    ipc = resolve_transport(transport)
    spec = make_phase_workload(t_kernel_ms=t_phase_ms, t_copy_ms=t_phase_ms)
    serial = run_sigma_vp(spec, n_vps=n_programs, interleaving=False,
                          coalescing=False, transport=ipc)
    inter = run_sigma_vp(spec, n_vps=n_programs, interleaving=True,
                         coalescing=False, transport=ipc)
    return {
        "x": float(n_programs),
        "measured": serial.total_ms / inter.total_ms,
        "expected": balanced_speedup(n_programs),
    }


def fig9b_series(
    program_counts: Sequence[int] = (2, 4, 8, 16, 32),
    t_phase_ms: float = 4.0,
    workers: int = 1,
) -> List[InterleavingPoint]:
    """Fig. 9(b): N interleaved programs with Tk = Tm; expected = 3N/(N+2)."""
    values = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:fig9b_point", kwargs={
            "n_programs": n, "t_phase_ms": t_phase_ms,
            "transport": SHARED_MEMORY.name,
        })
        for n in program_counts
    ])
    return [InterleavingPoint(**value) for value in values]


# ---------------------------------------------------------------------------
# Fig. 10: Kernel Coalescing
# ---------------------------------------------------------------------------


@dataclass
class CoalescingPoint:
    """One point of Fig. 10(a)."""

    batch: int
    total_ms: float
    speedup: float


#: Paper anchors for Fig. 10(a): 10.54x at 16 coalesced programs,
#: 20.48x at 64.
PAPER_FIG10A = {16: 10.54, 64: 20.48}


def fig10a_point(
    batch: int,
    n_programs: int = 64,
    transport: str = "shared-memory",
    functional: bool = False,
    policy: Optional[str] = None,
    placement: Optional[str] = None,
) -> float:
    """Fig. 10(a): total ms at one coalescing degree (1 = coalescing off)."""
    spec = make_vectoradd_spec(
        elements=4096, iterations=1, block_size=512,
        elements_per_thread=8, fp32_per_element=4000,
    )
    return run_sigma_vp(
        spec,
        n_vps=n_programs,
        interleaving=False,
        coalescing=batch > 1,
        max_batch=max(batch, 1),
        transport=resolve_transport(transport),
        functional=functional,
        policy=policy,
        placement=placement,
    ).total_ms


def fig10a_series(
    batch_degrees: Sequence[int] = (1, 2, 4, 8, 16, 32, 48, 64),
    n_programs: int = 64,
    workers: int = 1,
) -> List[CoalescingPoint]:
    """Fig. 10(a): vectorAdd, 64 programs, coalescing degree swept.

    Per-program work is fixed (the total stays the same as the paper
    requires); the baseline is the same 64 programs with coalescing off.
    """
    batches = [1] + [b for b in batch_degrees if b > 1]
    totals = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:fig10a_point", kwargs={
            "batch": batch, "n_programs": n_programs,
            "transport": SHARED_MEMORY.name,
        })
        for batch in batches
    ])
    base = totals[0]
    return [
        CoalescingPoint(batch=batch, total_ms=total, speedup=base / total)
        for batch, total in zip(batches, totals)
    ]


@dataclass
class StaircasePoint:
    grid: int
    time_ms: float


def fig10b_series(
    grids: Sequence[int] = tuple(range(1, 65)),
    block_size: int = 512,
    arch: GPUArchitecture = QUADRO_4000,
) -> List[StaircasePoint]:
    """Fig. 10(b): single-kernel time vs grid size (Eq. 9's staircase)."""
    kernel = make_vectoradd_kernel(elements_per_thread=8, fp32_per_element=4000)
    model = KernelTimingModel(arch)
    compiler = KernelCompiler()
    compiled = compiler.compile(kernel, arch)
    return [
        StaircasePoint(
            grid=grid,
            time_ms=model.kernel_time_ms(compiled, LaunchConfig(
                grid_size=grid, block_size=block_size, elements=grid * block_size * 8,
            )),
        )
        for grid in grids
    ]


# ---------------------------------------------------------------------------
# Fig. 11: the application suite
# ---------------------------------------------------------------------------


@dataclass
class SuitePoint:
    """One application's bar/lines in Fig. 11."""

    app: str
    emulation_ms: float
    multiplexing_speedup: float
    optimized_speedup: float


#: The applications Fig. 11 plots, in its x-axis order.
FIG11_APPS: Tuple[str, ...] = (
    "simpleGL",
    "Mandelbrot",
    "marchingCubes",
    "bicubicTexture",
    "VolumeFiltering",
    "recursiveGaussian",
    "SobelFilter",
    "stereoDisparity",
    "convolutionSeparable",
    "dct8x8",
    "BlackScholes",
    "MonteCarlo",
    "matrixMul",
    "mergeSort",
    "nbody",
    "smokeParticles",
    "segmentationTreeThrust",
)


def fig11_point(
    app: str,
    n_vps: int = 8,
    functional: bool = False,
) -> Dict[str, Any]:
    """One Fig. 11 application: emulation time plus SigmaVP speedups."""
    spec = get_workload(app)
    emul = run_emulation(spec, n_instances=n_vps).total_ms
    base = run_sigma_vp(spec, n_vps=n_vps, interleaving=False,
                        coalescing=False, functional=functional).total_ms
    opt = run_sigma_vp(spec, n_vps=n_vps, interleaving=True,
                       coalescing=True, functional=functional).total_ms
    return {
        "app": app,
        "emulation_ms": emul,
        "multiplexing_speedup": emul / base,
        "optimized_speedup": emul / opt,
    }


def fig11_series(
    apps: Sequence[str] = FIG11_APPS,
    n_vps: int = 8,
    workers: int = 1,
) -> List[SuitePoint]:
    """Fig. 11: per-app emulation time and SigmaVP speedups on 8 VPs."""
    values = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:fig11_point",
                kwargs={"app": name, "n_vps": n_vps})
        for name in apps
    ])
    return [SuitePoint(**value) for value in values]


# ---------------------------------------------------------------------------
# Figs. 12 and 13: timing and power estimation
# ---------------------------------------------------------------------------


@dataclass
class EstimationPoint:
    """One app's bars in Fig. 12: everything normalized by the target
    observation."""

    app: str
    host: str
    h_normalized: float
    t_normalized: float  # 1.0 by construction
    c_normalized: float
    c_prime_normalized: float
    c_double_prime_normalized: float


def fig12_point(host: str, app: str, target: str = "Tegra K1") -> Dict[str, Any]:
    """One Fig. 12 (host, app) pair: normalized execution-time estimates."""
    host_arch = get_architecture(host)
    analyzer = ExecutionAnalyzer(host_arch, get_architecture(target))
    spec = get_workload(app)
    kernel, launch = spec.kernel, spec.launch_config()
    host_profile = analyzer.profile_on_host(kernel, launch)
    truth_ms = analyzer.observe_on_target(kernel, launch).time_ms
    est = analyzer.analyze(kernel, launch, host_profile=host_profile)

    def norm(cycles: float) -> float:
        return analyzer.estimated_time_ms(cycles) / truth_ms

    return {
        "app": app,
        "host": host_arch.name,
        "h_normalized": host_profile.time_ms / truth_ms,
        "t_normalized": 1.0,
        "c_normalized": norm(est.c_cycles),
        "c_prime_normalized": norm(est.c_prime_cycles),
        "c_double_prime_normalized": norm(est.c_double_prime_cycles),
    }


def fig12_series(
    hosts: Sequence[GPUArchitecture] = (QUADRO_4000, GRID_K520),
    apps: Sequence[str] = ESTIMATION_APPS,
    target: GPUArchitecture = TEGRA_K1,
    workers: int = 1,
) -> List[EstimationPoint]:
    """Fig. 12: normalized execution times, two hosts x four apps."""
    values = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:fig12_point",
                kwargs={"host": host.name, "app": name, "target": target.name})
        for host in hosts
        for name in apps
    ])
    return [EstimationPoint(**value) for value in values]


@dataclass
class PowerPoint:
    """One app's bars in Fig. 13: measured vs estimated target power."""

    app: str
    host: str
    measured_w: float
    estimated_w: float

    @property
    def error_pct(self) -> float:
        return 100.0 * (self.estimated_w - self.measured_w) / self.measured_w


def fig13_point(host: str, app: str, target: str = "Tegra K1") -> Dict[str, Any]:
    """One Fig. 13 (host, app) pair: measured vs estimated target power."""
    host_arch = get_architecture(host)
    analyzer = ExecutionAnalyzer(host_arch, get_architecture(target))
    spec = get_workload(app)
    kernel, launch = spec.kernel, spec.launch_config()
    host_profile = analyzer.profile_on_host(kernel, launch)
    measured = analyzer.observed_power(kernel, launch)
    estimated = analyzer.estimate_power(kernel, launch, host_profile=host_profile)
    return {
        "app": app,
        "host": host_arch.name,
        "measured_w": measured.total_w,
        "estimated_w": estimated.total_w,
    }


def fig13_series(
    hosts: Sequence[GPUArchitecture] = (QUADRO_4000, GRID_K520),
    apps: Sequence[str] = ESTIMATION_APPS,
    target: GPUArchitecture = TEGRA_K1,
    workers: int = 1,
) -> List[PowerPoint]:
    """Fig. 13: normalized power, two hosts x four apps (within ~10%)."""
    values = ScenarioFarm(workers=workers).map_values([
        FarmJob(fn="repro.exec.jobs:fig13_point",
                kwargs={"host": host.name, "app": name, "target": target.name})
        for host in hosts
        for name in apps
    ])
    return [PowerPoint(**value) for value in values]
