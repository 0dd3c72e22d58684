"""Comparative execution scenarios: the paper's evaluation routes.

Table 1 and Fig. 11 compare the same applications along different
execution routes.  Each function here runs one route end to end in a
fresh simulation environment and returns a :class:`ScenarioResult`:

* :func:`run_native_gpu` — CUDA on the (modelled) host GPU, no VP;
* :func:`run_emulation` — CUDA interpreted in software on a CPU model
  (the host Xeon, or the binary-translated QEMU ARM VP);
* :func:`run_sigma_vp` — the paper's contribution, with interleaving
  and coalescing switchable (:func:`phase_point` is its synthetic
  phase-loop fleet, the scaling and ablation benchmarks' farm job);
* :func:`run_c_program` — the plain-C implementation on a CPU model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from ..backend import ExecutionBackend, NumpyBackend
from ..gpu.arch import GPUArchitecture, QUADRO_4000
from ..gpu.device import HostGPU
from ..kernels.functional import REGISTRY, FunctionalRegistry
from ..sim import Environment
from ..vp.cpu import CPUModel, HOST_XEON, QEMU_ARM_VP
from ..vp.cuda_runtime import CudaRuntime, EmulationBackend, NativeGPUBackend
from ..vp.platform import VirtualPlatform
from ..workloads.base import WorkloadSpec, build_app, shared_inputs
from .framework import SigmaVP
from .ipc import IPCTransport, SOCKET, resolve_transport

#: Registry used when functional (numpy) execution is switched off:
#: timing-only runs, as used by the parameter-sweep benchmarks.
NULL_REGISTRY = FunctionalRegistry()


@dataclass
class ScenarioResult:
    """Outcome of one execution route."""

    scenario: str
    workload: str
    n_instances: int
    total_ms: float
    per_instance_ms: List[float] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"ScenarioResult({self.scenario!r}, {self.workload!r}, "
            f"n={self.n_instances}, total={self.total_ms:.2f}ms)"
        )

    def summary(self) -> Dict[str, object]:
        """JSON-able digest of this result.

        This is the wire format of the scenario farm: everything a
        cross-process caller can consume (``extras`` holds live objects
        like the framework itself, which stay behind), and exactly what
        the tests hash when asserting that serial, parallel, cached and
        uncached runs simulate identical outcomes.
        """
        out: Dict[str, object] = {
            "scenario": self.scenario,
            "workload": self.workload,
            "n_instances": self.n_instances,
            "total_ms": self.total_ms,
            "per_instance_ms": list(self.per_instance_ms),
        }
        if "ipc_messages" in self.extras:
            out["ipc_messages"] = self.extras["ipc_messages"]
        stats = self.extras.get("coalesce_stats")
        if stats is not None:
            out["coalesce_merges"] = stats.merges
            out["kernels_coalesced"] = stats.kernels_coalesced
        return out


def _registry(functional: bool) -> FunctionalRegistry:
    return REGISTRY if functional else NULL_REGISTRY


def run_native_gpu(
    spec: WorkloadSpec,
    functional: bool = False,
    host_arch: GPUArchitecture = QUADRO_4000,
    backend: Type[ExecutionBackend] = NumpyBackend,
) -> ScenarioResult:
    """CUDA executed natively on the host GPU (Table 1, row 1)."""
    if functional:
        spec.check_functional()
    env = Environment()
    registry = _registry(functional)
    exec_backend = backend(registry)
    gpu = HostGPU(env, host_arch, backend=exec_backend)
    host = VirtualPlatform(env, "host", cpu=HOST_XEON)
    backend_ = NativeGPUBackend(
        env, gpu, host, registry=registry, exec_backend=exec_backend
    )
    runtime = CudaRuntime(backend_)
    process = host.run_app(build_app(spec, runtime))
    env.run(process)
    return ScenarioResult(
        scenario="native-gpu",
        workload=spec.name,
        n_instances=1,
        total_ms=env.now,
        per_instance_ms=[env.now],
        extras={"result": process.value},
    )


def run_emulation(
    spec: WorkloadSpec,
    n_instances: int = 1,
    cpu: CPUModel = QEMU_ARM_VP,
    functional: bool = False,
    backend: Type[ExecutionBackend] = NumpyBackend,
) -> ScenarioResult:
    """CUDA interpreted in software (Table 1 rows 2-3; Fig. 11 blue bars).

    ``cpu=HOST_XEON`` is "CUDA Emul. on CPU"; ``cpu=QEMU_ARM_VP`` is
    "CUDA Emul. on VP".

    Instances run *serialized*, reflecting the premise the paper opens
    with: "most of the current multi-node system simulators run the
    entire simulation on the host CPU" — the eight-VP emulation
    baseline of Fig. 11 advances one platform at a time.
    """
    if n_instances <= 0:
        raise ValueError(f"n_instances must be positive, got {n_instances}")
    if functional:
        spec.check_functional()
    env = Environment()
    registry = _registry(functional)
    exec_backend = backend(registry)
    inputs = shared_inputs(spec, registry)
    processes = []
    platforms = []

    def serialized():
        for index in range(n_instances):
            platform = VirtualPlatform(env, f"emu{index}", cpu=cpu)
            emu = EmulationBackend(
                env, platform, registry=registry, exec_backend=exec_backend
            )
            runtime = CudaRuntime(emu)
            process = platform.run_app(
                build_app(spec, runtime, seed=index, inputs=inputs)
            )
            platforms.append(platform)
            processes.append(process)
            yield process

    driver = env.process(serialized(), label="driver:emulation/serialized")
    env.run(driver)

    return ScenarioResult(
        scenario=f"emulation({cpu.name})",
        workload=spec.name,
        n_instances=n_instances,
        total_ms=env.now,
        per_instance_ms=[p.elapsed_ms or 0.0 for p in platforms],
        extras={"result": processes[0].value},
    )


def run_sigma_vp(
    spec: WorkloadSpec,
    n_vps: int = 1,
    interleaving: bool = True,
    coalescing: bool = True,
    transport: IPCTransport = SOCKET,
    functional: bool = False,
    host_arch: GPUArchitecture = QUADRO_4000,
    max_batch: int = 64,
    hold_window_ms: Optional[float] = None,
    n_host_gpus: int = 1,
    policy: Optional[str] = None,
    placement: Optional[str] = None,
    backend: Type[ExecutionBackend] = NumpyBackend,
) -> ScenarioResult:
    """The SigmaVP pipeline (Table 1 row 4; Fig. 11 speedup lines).

    ``policy``/``placement`` name scheduling stages (keys of
    :data:`~repro.sched.POLICIES` / :data:`~repro.sched.PLACEMENTS`).
    With neither named, or only the default round-robin placement, the
    scenario label — part of the digest wire format — is the legacy one.

    ``backend`` is the execution-backend class, a test-substitution
    seam: backends are digest-interchangeable, so it never enters the
    label.
    """
    if n_vps <= 0:
        raise ValueError(f"n_vps must be positive, got {n_vps}")
    if functional:
        spec.check_functional()
    framework = SigmaVP(
        host_arch=host_arch,
        transport=transport,
        interleaving=interleaving,
        coalescing=coalescing,
        max_batch=max_batch,
        hold_window_ms=hold_window_ms,
        registry=_registry(functional),
        n_vps=n_vps,
        n_host_gpus=n_host_gpus,
        policy=policy,
        placement=placement,
        backend=backend,
    )
    total = framework.run_workload(spec)
    sessions = [framework.session(n) for n in sorted(framework.sessions)]
    scenario = f"sigma-vp(interleave={interleaving}, coalesce={coalescing})"
    if policy is not None or placement not in (None, "round-robin"):
        # Named stages are part of the scenario identity; default runs
        # keep the legacy label so their digests stay bit-identical.
        dispatcher = framework.dispatcher
        scenario = (
            f"sigma-vp(interleave={interleaving}, coalesce={coalescing}, "
            f"policy={dispatcher.policy.name}, "
            f"placement={dispatcher.pipeline.placement.name})"
        )
    return ScenarioResult(
        scenario=scenario,
        workload=spec.name,
        n_instances=n_vps,
        total_ms=total,
        per_instance_ms=[s.vp.elapsed_ms or 0.0 for s in sessions],
        extras={
            "framework": framework,
            "result": sessions[0].processes[0].value if sessions[0].processes else None,
            "coalesce_stats": framework.coalescer.stats if framework.coalescer else None,
            "ipc_messages": framework.ipc.messages_sent,
        },
    )


def phase_point(
    n_vps: int,
    t_kernel_ms: float,
    t_copy_ms: float,
    iterations: int = 1,
    n_host_gpus: int = 1,
    interleaving: bool = True,
    coalescing: bool = False,
    transport: str = "shared-memory",
    policy: Optional[str] = None,
    placement: Optional[str] = None,
) -> float:
    """Total ms for a synthetic phase-loop fleet (scaling/ablation benches)."""
    from ..workloads.synthetic import make_phase_workload

    spec = make_phase_workload(
        t_kernel_ms=t_kernel_ms, t_copy_ms=t_copy_ms, iterations=iterations
    )
    framework = SigmaVP(
        n_vps=n_vps,
        n_host_gpus=n_host_gpus,
        interleaving=interleaving,
        coalescing=coalescing,
        transport=resolve_transport(transport),
        policy=policy,
        placement=placement,
    )
    return framework.run_workload(spec)


def run_c_program(spec: WorkloadSpec, cpu: CPUModel = HOST_XEON,
                  n_instances: int = 1) -> ScenarioResult:
    """The plain-C implementation on a CPU model (Table 1 rows 5-6).

    Instances are independent processes on independent cores, so the
    total equals one instance's time.
    """
    if spec.c_ops <= 0:
        raise ValueError(f"{spec.name} has no C-implementation op count")
    per_instance = cpu.time_for_ops(spec.c_ops)
    return ScenarioResult(
        scenario=f"c-program({cpu.name})",
        workload=spec.name,
        n_instances=n_instances,
        total_ms=per_instance,
        per_instance_ms=[per_instance] * n_instances,
    )
