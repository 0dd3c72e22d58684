"""Module-level job functions for the :class:`~repro.exec.ScenarioFarm`.

Farm jobs must be *descriptions*: a ``"module:function"`` reference plus
JSON-able keyword arguments.  Workload specs carry numpy input factories
(closures) and transports/architectures are rich objects, so none of
them can ride inside a job.  The functions here take catalog names and
plain parameters instead, rebuild the heavyweight objects in the worker,
run one scenario/figure/table/sweep point, and return a JSON-able value
— which is also what makes ``results_digest`` equality across
``workers=1`` and ``workers=N`` meaningful.

A transport travels as its name in :data:`repro.core.ipc.TRANSPORTS`.
A scenario job is :func:`scenario_summary`, a thin projection of
:func:`repro.api.scenario`; the figure/table series functions in
:mod:`repro.analysis` submit the other points by name, so the serial
(``workers=1``) and parallel paths execute the exact same code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.ipc import resolve_transport
from ..gpu.arch import get_architecture
from ..workloads.catalog import get_workload


# ---------------------------------------------------------------------------
# Scenario points (``repro run``, ablations, ``repro.api``)
# ---------------------------------------------------------------------------


def scenario_summary(**fields: Any) -> Dict[str, Any]:
    """:func:`repro.api.scenario` of ``RunRequest(**fields)``, summarized.

    The request's farm-job projection: every config hash of a scenario
    is tagged with this function's name, so it stays here even though
    :class:`~repro.api.RunRequest` owns the field set and defaults.
    """
    from ..api import RunRequest, scenario

    return scenario(RunRequest(**fields)).summary()


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
    from ..core.framework import SigmaVP
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


# ---------------------------------------------------------------------------
# Figure points
# ---------------------------------------------------------------------------


def fig9a_point(
    t_kernel_ms: float,
    t_copy_ms: float = 13.44,
    transport: str = "shared-memory",
) -> Dict[str, float]:
    """One Fig. 9(a) point: interleaving speedup at one kernel length."""
    from ..core.interleaving import expected_speedup
    from ..core.scenarios import run_sigma_vp
    from ..workloads.synthetic import make_phase_workload, measured_phase_times

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


def fig9b_point(
    n_programs: int,
    t_phase_ms: float = 4.0,
    transport: str = "shared-memory",
) -> Dict[str, float]:
    """One Fig. 9(b) point: interleaving speedup for N balanced programs."""
    from ..core.interleaving import balanced_speedup
    from ..core.scenarios import run_sigma_vp
    from ..workloads.synthetic import make_phase_workload

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


def fig10a_point(
    batch: int,
    n_programs: int = 64,
    transport: str = "shared-memory",
    functional: bool = False,
    policy: Optional[str] = None,
    placement: Optional[str] = None,
) -> float:
    """Fig. 10(a): total ms at one coalescing degree (1 = coalescing off)."""
    from ..core.scenarios import run_sigma_vp
    from ..workloads.linalg import make_vectoradd_spec

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


def fig11_point(
    app: str,
    n_vps: int = 8,
    functional: bool = False,
) -> Dict[str, Any]:
    """One Fig. 11 application: emulation time plus SigmaVP speedups."""
    from ..core.scenarios import run_emulation, run_sigma_vp

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


def fig12_point(host: str, app: str, target: str = "Tegra K1") -> Dict[str, Any]:
    """One Fig. 12 (host, app) pair: normalized execution-time estimates."""
    from ..core.estimation import ExecutionAnalyzer

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


def fig13_point(host: str, app: str, target: str = "Tegra K1") -> Dict[str, Any]:
    """One Fig. 13 (host, app) pair: measured vs estimated target power."""
    from ..core.estimation import ExecutionAnalyzer

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


# ---------------------------------------------------------------------------
# Table 1 routes and design-space sweep points
# ---------------------------------------------------------------------------


def table1_route(route: str, app: str = "matrixMul") -> float:
    """Total ms of one Table 1 execution route for a catalogued app."""
    from ..core.scenarios import (
        run_c_program,
        run_emulation,
        run_native_gpu,
        run_sigma_vp,
    )
    from ..vp.cpu import HOST_XEON, QEMU_ARM_VP

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
    from ..analysis.sweeps import sweep_targets, tegra_scaling_candidates

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


# ---------------------------------------------------------------------------
# Series reconstruction helpers (used by repro.analysis to rebuild typed
# points from farm values)
# ---------------------------------------------------------------------------


def fanout(farm, fn: str, kwargs_list: List[Dict[str, Any]],
           label: str = "") -> List[Any]:
    """Submit one job per kwargs dict and return the values in order."""
    from .farm import FarmJob

    jobs = [
        FarmJob(fn=fn, kwargs=kwargs, label=f"{label}[{i}]" if label else "")
        for i, kwargs in enumerate(kwargs_list)
    ]
    return farm.map_values(jobs)
