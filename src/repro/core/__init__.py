"""SigmaVP core: the paper's contribution (Fig. 2's host-side modules)."""

from .coalescing import CoalesceStats, KernelCoalescer, Triple
from .dispatcher import DispatchStats, JobDispatcher, ServiceMode
from .estimation import ExecutionAnalyzer, PowerEstimate, TimingEstimate
from .framework import SigmaVP, VPSession
from .handles import HandleTable
from .interleaving import (
    balanced_speedup,
    expected_speedup,
    interleaved_total_time,
    serial_total_time,
)
from .ipc import IPCManager, IPCTransport, SHARED_MEMORY, SOCKET, VPControl
from .jobs import Job, JobKind, JobQueue
from .profiler import ProfileRecord, Profiler
from .scenarios import (
    ScenarioResult,
    run_c_program,
    run_emulation,
    run_native_gpu,
    run_sigma_vp,
)

__all__ = [
    "CoalesceStats",
    "DispatchStats",
    "ExecutionAnalyzer",
    "HandleTable",
    "IPCManager",
    "IPCTransport",
    "Job",
    "JobDispatcher",
    "JobKind",
    "JobQueue",
    "KernelCoalescer",
    "PowerEstimate",
    "ProfileRecord",
    "Profiler",
    "ScenarioResult",
    "ServiceMode",
    "SHARED_MEMORY",
    "SOCKET",
    "SigmaVP",
    "TimingEstimate",
    "Triple",
    "VPControl",
    "VPSession",
    "balanced_speedup",
    "expected_speedup",
    "interleaved_total_time",
    "run_c_program",
    "run_emulation",
    "run_native_gpu",
    "run_sigma_vp",
    "serial_total_time",
]
