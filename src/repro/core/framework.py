"""The SigmaVP framework: one host machine serving many virtual platforms.

This is the top-level object of the reproduction (paper Fig. 2).  It
wires together the host GPU model, the Job Queue, the IPC manager with VP
control, the Re-scheduler policy, the Kernel Coalescer, the Job
Dispatcher, the Profiler, and the Time/Power Estimation module; adds
virtual platforms; and runs their applications to completion in one
discrete-event simulation.

Typical use::

    from repro import SigmaVP, SUITE

    framework = SigmaVP(n_vps=8)
    framework.run_workload(SUITE["BlackScholes"])
    print(framework.total_time_ms)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Type

import numpy as np

from ..backend import ExecutionBackend, NumpyBackend
from ..gpu.arch import GPUArchitecture, QUADRO_4000, TEGRA_K1
from ..gpu.device import HostGPU
from ..kernels.functional import REGISTRY, FunctionalRegistry
from ..sched.placement import make_placement
from ..sched.policies import make_policy
from ..sim import Environment, Process
from ..vp.cpu import CPUModel, QEMU_ARM_VP
from ..vp.cuda_runtime import CudaRuntime, SigmaVPBackend
from ..kernels.compiler import KernelCompiler
from ..vp.platform import VirtualPlatform
from .coalescing import KernelCoalescer
from .dispatcher import JobDispatcher, ServiceMode
from .estimation import ExecutionAnalyzer
from .handles import HandleTable
from .ipc import IPCManager, IPCTransport, SOCKET
from .jobs import JobQueue
from .profiler import Profiler


@dataclass
class VPSession:
    """One virtual platform attached to the framework."""

    vp: VirtualPlatform
    runtime: CudaRuntime
    processes: List[Process]


class SigmaVP:
    """Simulation using GPU-Multiplexing for Acceleration of VPs."""

    def __init__(
        self,
        env: Optional[Environment] = None,
        host_arch: GPUArchitecture = QUADRO_4000,
        target_arch: GPUArchitecture = TEGRA_K1,
        transport: IPCTransport = SOCKET,
        interleaving: bool = True,
        coalescing: bool = True,
        max_batch: int = 64,
        target_batch: Optional[int] = None,
        hold_window_ms: Optional[float] = None,
        registry: FunctionalRegistry = REGISTRY,
        n_vps: int = 0,
        vp_cpu: CPUModel = QEMU_ARM_VP,
        n_host_gpus: int = 1,
        policy: Optional[str] = None,
        placement: Optional[str] = None,
        backend: Type[ExecutionBackend] = NumpyBackend,
    ):
        if n_host_gpus < 1:
            raise ValueError(f"n_host_gpus must be >= 1, got {n_host_gpus}")
        self.env = env or Environment()
        # One execution backend serves every GPU, the dispatcher and every
        # VP runtime; ``backend`` is the class, so tests can substitute a
        # subclass of the numpy backend.
        self.backend = backend(registry)
        # "SigmaVP multiplexes the host GPUs": one or more devices (the
        # Grid K520 board, for instance, carries two GK104 GPUs).  All
        # devices share one kernel compiler so compilation caches once.
        shared_compiler = KernelCompiler()
        self.gpus = [
            HostGPU(
                self.env,
                host_arch,
                compiler=shared_compiler,
                index=i,
                backend=self.backend,
            )
            for i in range(n_host_gpus)
        ]
        self.gpu = self.gpus[0]
        self.queue = JobQueue(self.env)
        self.handles = HandleTable()
        self.ipc = IPCManager(self.env, self.queue, transport=transport)
        self.profiler = Profiler()
        self.analyzer = ExecutionAnalyzer(
            host_arch, target_arch, compiler=self.gpu.compiler
        )
        self.interleaving = interleaving
        self.coalescing = coalescing

        coalescer = None
        if coalescing:
            kwargs = {} if hold_window_ms is None else {"hold_window_ms": hold_window_ms}
            coalescer = KernelCoalescer(
                self.env,
                self.gpu,
                self.handles,
                max_batch=max_batch,
                target_batch=target_batch,
                **kwargs,
            )
        self.coalescer = coalescer

        # Interleaving = the optimized service discipline; without it the
        # prototype serves one request to completion at a time (the
        # baseline of paper Figs. 3a and 9).  An unnamed policy follows
        # the ``interleaving`` flag; an unnamed placement is round-robin.
        if policy is None:
            policy = "interleaving" if interleaving else "fifo"
        mode = ServiceMode.PIPELINED if interleaving else ServiceMode.SERIAL
        self.dispatcher = JobDispatcher(
            self.env,
            self.gpu,
            self.queue,
            self.handles,
            policy=make_policy(policy),
            mode=mode,
            coalescer=coalescer,
            registry=registry,
            profiler=self.profiler,
            extra_gpus=self.gpus[1:],
            placement=make_placement(placement or "round-robin"),
            backend=self.backend,
        )
        if coalescer is not None:
            # Triples merge only within one device's VPs.
            coalescer.gpus = self.gpus
            coalescer.device_of = self.dispatcher.device_index_for

        self.sessions: Dict[str, VPSession] = {}
        self._vp_cpu = vp_cpu
        # With no explicit target batch, the coalescer aims for one merge
        # covering every attached VP (tracked as VPs are added).
        self._auto_target_batch = coalescer is not None and target_batch is None
        for _ in range(n_vps):
            self.add_vp()

    def __repr__(self) -> str:
        return (
            f"<SigmaVP host={self.gpu.arch.name!r} vps={len(self.sessions)} "
            f"interleaving={self.interleaving} coalescing={self.coalescing}>"
        )

    # -- VP management -----------------------------------------------------

    def add_vp(
        self, name: Optional[str] = None, cpu: Optional[CPUModel] = None
    ) -> VPSession:
        """Attach a new virtual platform and its intercepting runtime."""
        if name is None:
            name = f"vp{len(self.sessions)}"
        if name in self.sessions:
            raise ValueError(f"VP {name!r} already exists")
        vp = VirtualPlatform(self.env, name, cpu=cpu or self._vp_cpu)
        self.ipc.vp_control.register(vp)
        backend = SigmaVPBackend(
            self.env, vp, self.ipc, self.handles, exec_backend=self.backend
        )
        session = VPSession(vp=vp, runtime=CudaRuntime(backend), processes=[])
        self.sessions[name] = session
        if self._auto_target_batch:
            # By default, wait for all attached VPs before merging.
            self.coalescer.target_batch = len(self.sessions)
        return session

    def session(self, name: str) -> VPSession:
        try:
            return self.sessions[name]
        except KeyError:
            raise KeyError(f"no VP named {name!r}") from None

    @property
    def vps(self) -> List[VirtualPlatform]:
        return [s.vp for s in self.sessions.values()]

    # -- running applications -----------------------------------------------

    def spawn(
        self,
        name: str,
        app_factory,
        seed: Optional[int] = None,
        inputs: Optional[List[np.ndarray]] = None,
    ) -> Process:
        """Start an application (from a WorkloadSpec) on one VP.

        ``inputs`` hands a spec's app a prebuilt input list instead of
        one drawn from ``seed`` (see :meth:`run_workload`).
        """
        from ..workloads.base import WorkloadSpec, build_app  # local: avoid cycle

        session = self.session(name)
        if isinstance(app_factory, WorkloadSpec):
            app = build_app(
                app_factory,
                session.runtime,
                seed=seed if seed is not None else len(session.processes),
                inputs=inputs,
            )
        else:
            app = app_factory(session.runtime)
        process = session.vp.run_app(app)
        session.processes.append(process)
        return process

    def run_workload(self, spec, seeds: Optional[List[int]] = None) -> float:
        """Run ``spec`` on every attached VP concurrently; returns total ms.

        A timing-only framework (empty registry) builds the spec's inputs
        once and shares them across every VP.
        """
        from ..workloads.base import WorkloadSpec, shared_inputs  # local: avoid cycle

        if not self.sessions:
            raise RuntimeError("no VPs attached; call add_vp() first")
        shared = None
        if isinstance(spec, WorkloadSpec):
            shared = shared_inputs(spec, self.backend.registry, seeds[0] if seeds else 0)
        processes = []
        for index, name in enumerate(sorted(self.sessions)):
            seed = seeds[index] if seeds else index
            processes.append(self.spawn(name, spec, seed=seed, inputs=shared))
        return self.run_until(processes)

    def run_until(self, processes: List[Process]) -> float:
        """Advance the simulation until every process finishes.

        When observability is active (``repro trace``, ``repro metrics``,
        or any other :func:`repro.obs.capture` window),
        the run is self-profiled in host wall-clock and the finished
        framework's state — engine utilizations, per-VP lifetimes, cache
        hit rates, coalescing totals — is collected into the active
        registry.
        """
        from ..obs import metrics as _obs_metrics  # local: cheap either way

        start = self.env.now
        if _obs_metrics.REGISTRY is None:
            self.env.run(self.env.all_of(processes))
        else:
            with _obs_metrics.timed("framework.run"):
                self.env.run(self.env.all_of(processes))
            _obs_metrics.collect_framework(self)
        return self.env.now - start

    @property
    def total_time_ms(self) -> float:
        return self.env.now

    # -- analysis passthrough --------------------------------------------------

    def estimate_timing(self, kernel, launch):
        """Target-time estimates for a profiled kernel (paper Fig. 12)."""
        host_profile = self.profiler.last_profile(kernel.name)
        return self.analyzer.analyze(kernel, launch, host_profile=host_profile)

    def estimate_power(self, kernel, launch):
        """Target-power estimate for a profiled kernel (paper Fig. 13)."""
        host_profile = self.profiler.last_profile(kernel.name)
        return self.analyzer.estimate_power(kernel, launch, host_profile=host_profile)
