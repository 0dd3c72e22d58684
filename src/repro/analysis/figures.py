"""Regeneration of the paper's Figures 9-13.

Each ``fig*_series`` function runs the corresponding experiment through
the full simulation stack and returns the measured series next to the
analytical/expected values the paper plots;
:mod:`repro.analysis.experiments` lays them out as the archived tables.

Every point of a figure is an independent simulation, so each series
fans its points out over the :class:`~repro.exec.ScenarioFarm`: pass
``workers=N`` to run N points concurrently in worker processes.  The
default ``workers=1`` runs the identical job functions serially
in-process, so parallel and serial series are bit-identical.  The
Fig. 9 and Fig. 10(a) jobs run over shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.ipc import SHARED_MEMORY
from ..exec import jobs as farm_jobs
from ..exec.farm import ScenarioFarm
from ..gpu.arch import GPUArchitecture, GRID_K520, QUADRO_4000, TEGRA_K1
from ..gpu.timing import KernelTimingModel
from ..kernels.compiler import KernelCompiler
from ..kernels.launch import LaunchConfig
from ..workloads.catalog import ESTIMATION_APPS
from ..workloads.linalg import make_vectoradd_kernel


# ---------------------------------------------------------------------------
# Fig. 9: Kernel Interleaving
# ---------------------------------------------------------------------------


@dataclass
class InterleavingPoint:
    """One point of Fig. 9: measured vs expected speedup."""

    x: float
    measured: float
    expected: float


def fig9a_series(
    kernel_lengths_ms: Sequence[float] = (1.0, 4.0, 8.0, 13.44, 20.0, 40.0, 60.0, 80.0, 100.0),
    t_copy_ms: float = 13.44,
    workers: int = 1,
) -> List[InterleavingPoint]:
    """Fig. 9(a): two interleaved programs, kernel length swept.

    The copy time is fixed at the paper's 13.44 ms; speedup peaks where
    the kernel matches it (latency hiding).
    """
    farm = ScenarioFarm(workers=workers)
    values = farm_jobs.fanout(
        farm,
        "repro.exec.jobs:fig9a_point",
        [
            {"t_kernel_ms": tk, "t_copy_ms": t_copy_ms, "transport": SHARED_MEMORY.name}
            for tk in kernel_lengths_ms
        ],
        label="fig9a",
    )
    return [InterleavingPoint(**value) for value in values]


def fig9b_series(
    program_counts: Sequence[int] = (2, 4, 8, 16, 32),
    t_phase_ms: float = 4.0,
    workers: int = 1,
) -> List[InterleavingPoint]:
    """Fig. 9(b): N interleaved programs with Tk = Tm; expected = 3N/(N+2)."""
    farm = ScenarioFarm(workers=workers)
    values = farm_jobs.fanout(
        farm,
        "repro.exec.jobs:fig9b_point",
        [
            {"n_programs": n, "t_phase_ms": t_phase_ms, "transport": SHARED_MEMORY.name}
            for n in program_counts
        ],
        label="fig9b",
    )
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


def fig10a_series(
    batch_degrees: Sequence[int] = (1, 2, 4, 8, 16, 32, 48, 64),
    n_programs: int = 64,
    workers: int = 1,
) -> List[CoalescingPoint]:
    """Fig. 10(a): vectorAdd, 64 programs, coalescing degree swept.

    Per-program work is fixed (the total stays the same as the paper
    requires); the baseline is the same 64 programs with coalescing off.
    """
    farm = ScenarioFarm(workers=workers)
    batches = [1] + [b for b in batch_degrees if b > 1]
    totals = farm_jobs.fanout(
        farm,
        "repro.exec.jobs:fig10a_point",
        [
            {"batch": batch, "n_programs": n_programs, "transport": SHARED_MEMORY.name}
            for batch in batches
        ],
        label="fig10a",
    )
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


def fig11_series(
    apps: Sequence[str] = FIG11_APPS,
    n_vps: int = 8,
    workers: int = 1,
) -> List[SuitePoint]:
    """Fig. 11: per-app emulation time and SigmaVP speedups on 8 VPs."""
    farm = ScenarioFarm(workers=workers)
    values = farm_jobs.fanout(
        farm,
        "repro.exec.jobs:fig11_point",
        [{"app": name, "n_vps": n_vps} for name in apps],
        label="fig11",
    )
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


def fig12_series(
    hosts: Sequence[GPUArchitecture] = (QUADRO_4000, GRID_K520),
    apps: Sequence[str] = ESTIMATION_APPS,
    target: GPUArchitecture = TEGRA_K1,
    workers: int = 1,
) -> List[EstimationPoint]:
    """Fig. 12: normalized execution times, two hosts x four apps."""
    farm = ScenarioFarm(workers=workers)
    values = farm_jobs.fanout(
        farm,
        "repro.exec.jobs:fig12_point",
        [
            {"host": host.name, "app": name, "target": target.name}
            for host in hosts
            for name in apps
        ],
        label="fig12",
    )
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


def fig13_series(
    hosts: Sequence[GPUArchitecture] = (QUADRO_4000, GRID_K520),
    apps: Sequence[str] = ESTIMATION_APPS,
    target: GPUArchitecture = TEGRA_K1,
    workers: int = 1,
) -> List[PowerPoint]:
    """Fig. 13: normalized power, two hosts x four apps (within ~10%)."""
    farm = ScenarioFarm(workers=workers)
    values = farm_jobs.fanout(
        farm,
        "repro.exec.jobs:fig13_point",
        [
            {"host": host.name, "app": name, "target": target.name}
            for host in hosts
            for name in apps
        ],
        label="fig13",
    )
    return [PowerPoint(**value) for value in values]
