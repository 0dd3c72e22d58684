"""SigmaVP reproduction: host-GPU multiplexing for simulating embedded GPUs.

Reproduction of Jung & Carloni, "SigmaVP: Host-GPU Multiplexing for
Efficient Simulation of Multiple Embedded GPUs on Virtual Platforms",
DAC 2015.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured record.

Public API highlights:

* :class:`repro.core.SigmaVP` — the framework: attach VPs, run workloads.
* :mod:`repro.core.scenarios` — the comparative execution routes.
* :class:`repro.core.ExecutionAnalyzer` — target time/power estimation.
* :mod:`repro.sched` — the dispatch pipeline and its policies and
  placements, picked by name.
* :data:`repro.workloads.SUITE` — the CUDA-SDK-style benchmark suite.
"""

from .core import (
    ExecutionAnalyzer,
    PowerEstimate,
    ScenarioResult,
    SigmaVP,
    TimingEstimate,
    run_c_program,
    run_emulation,
    run_native_gpu,
    run_sigma_vp,
)
from .gpu import GRID_K520, HostGPU, QUADRO_4000, TEGRA_K1, get_architecture
from .kernels import KernelIR, LaunchConfig, MemoryFootprint, uniform_kernel
from .sim import Environment
from .vp import HOST_XEON, QEMU_ARM_VP, VirtualPlatform
from .workloads import SUITE, WorkloadSpec, get_workload

__version__ = "1.0.0"

__all__ = [
    "Environment",
    "ExecutionAnalyzer",
    "GRID_K520",
    "HOST_XEON",
    "HostGPU",
    "KernelIR",
    "LaunchConfig",
    "MemoryFootprint",
    "PowerEstimate",
    "QEMU_ARM_VP",
    "QUADRO_4000",
    "SUITE",
    "ScenarioResult",
    "SigmaVP",
    "TEGRA_K1",
    "TimingEstimate",
    "VirtualPlatform",
    "WorkloadSpec",
    "get_architecture",
    "get_workload",
    "run_c_program",
    "run_emulation",
    "run_native_gpu",
    "run_sigma_vp",
    "uniform_kernel",
]
