"""Ablation benches for the design choices DESIGN.md calls out.

* Re-scheduler on/off: FIFO-serial vs interleaving-pipelined dispatch.
* Coalescing memory-merge vs kernel-merge-only at equal batch degree.
* IPC transport: socket (payloads cross the channel) vs shared memory
  (zero-copy descriptors).
* Estimator refinement chain C -> C' -> C'' accuracy ladder.
"""

from repro.analysis import Table
from repro.core.estimation import ExecutionAnalyzer
from repro.core.ipc import SHARED_MEMORY, SOCKET
from repro.core.scenarios import run_sigma_vp
from repro.gpu import QUADRO_4000, TEGRA_K1
from repro.workloads import SUITE
from repro.workloads.linalg import make_vectoradd_spec


def test_ablation_rescheduler(benchmark, record_result):
    """Dependency-aware pipelined dispatch vs the serial FIFO baseline."""
    from repro.exec import FarmJob, ScenarioFarm

    def run_pair():
        farm = ScenarioFarm(workers=1)
        return tuple(farm.map_values([
            FarmJob(
                fn="repro.exec.jobs:phase_point",
                kwargs={"n_vps": 8, "t_kernel_ms": 4.0, "t_copy_ms": 4.0,
                        "interleaving": interleaving},
                label="resched:" + ("inter" if interleaving else "fifo"),
            )
            for interleaving in (False, True)
        ]))

    serial_ms, pipelined_ms = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_result(Table(
        "ablation_rescheduler",
        "Ablation: Re-scheduler (8 phase-loop VPs)",
        ["Scheduler", "Total (ms)", "Speedup"],
        [
            ("FIFO serial (baseline)", serial_ms, 1.0),
            ("Interleaving pipelined", pipelined_ms, serial_ms / pipelined_ms),
        ],
    ))
    assert pipelined_ms < serial_ms / 2.0  # approaching Eq. 8's 2.4x at N=8


def test_ablation_copy_merge(benchmark, record_result):
    """Memory-chunk merging vs kernel-merge-only coalescing.

    With small per-program copies, merging them amortizes the DMA
    latency; the copy-merge limit knob switches the behaviour.
    """
    spec = make_vectoradd_spec(elements=4096, iterations=1, block_size=512,
                               elements_per_thread=8, fp32_per_element=4000)

    # Run the copy-merge variant and a kernel-only variant by setting
    # the limit to zero bytes on a fresh framework.
    from repro.core.framework import SigmaVP

    def run_with_limit(limit):
        framework = SigmaVP(
            interleaving=False, coalescing=True, max_batch=32,
            transport=SHARED_MEMORY, n_vps=32,
        )
        framework.coalescer.copy_merge_limit_bytes = limit
        return framework.run_workload(spec)

    merged_ms = benchmark.pedantic(
        run_with_limit, args=(512 * 1024,), rounds=1, iterations=1
    )
    kernel_only_ms = run_with_limit(0)
    record_result(Table(
        "ablation_copy_merge",
        "Ablation: memory-chunk merging (32 small programs)",
        ["Coalescing", "Total (ms)"],
        [
            ("kernels + memory chunks (Fig. 5)", merged_ms),
            ("kernels only", kernel_only_ms),
        ],
    ))
    assert merged_ms < kernel_only_ms


def test_ablation_ipc_transport(benchmark, record_result):
    """Socket vs shared-memory IPC for a copy-heavy workload."""
    spec = SUITE["BlackScholes"]

    def run_pair():
        socket = run_sigma_vp(spec, n_vps=4, transport=SOCKET)
        shm = run_sigma_vp(spec, n_vps=4, transport=SHARED_MEMORY)
        return socket.total_ms, shm.total_ms

    socket_ms, shm_ms = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    record_result(Table(
        "ablation_ipc",
        "Ablation: IPC transport (BlackScholes, 4 VPs)",
        ["Transport", "Total (ms)"],
        [("socket", socket_ms), ("shared memory (zero-copy)", shm_ms)],
    ))
    assert shm_ms < socket_ms


def test_ablation_estimator_ladder(benchmark, record_result):
    """Each refinement of Section 4 buys accuracy."""
    analyzer = ExecutionAnalyzer(QUADRO_4000, TEGRA_K1)
    rows = []

    def analyze_all():
        results = []
        for app in ("BlackScholes", "matrixMul", "dct8x8", "Mandelbrot"):
            spec = SUITE[app]
            kernel, launch = spec.kernel, spec.launch_config()
            truth = analyzer.observe_on_target(kernel, launch).elapsed_cycles
            est = analyzer.analyze(kernel, launch)
            results.append(
                (
                    app,
                    abs(est.c_cycles - truth) / truth,
                    abs(est.c_prime_cycles - truth) / truth,
                    abs(est.c_double_prime_cycles - truth) / truth,
                )
            )
        return results

    results = benchmark.pedantic(analyze_all, rounds=1, iterations=1)
    for app, err_c, err_cp, err_cpp in results:
        rows.append((app, 100 * err_c, 100 * err_cp, 100 * err_cpp))
        assert err_cpp <= err_cp <= err_c + 1e-9, app
    record_result(Table(
        "ablation_estimators",
        "Ablation: estimator refinement chain (vs Tegra K1 truth)",
        ["App", "err(C) %", "err(C') %", "err(C'') %"],
        rows,
    ))
