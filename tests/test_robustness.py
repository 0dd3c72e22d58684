"""Robustness and failure-injection tests.

What happens off the happy path: device memory exhaustion mid-run,
fragmented memory defeating the coalescer's re-layout, VPs stopped in
the middle of their pipelines, and oversized batches.
"""

import numpy as np
import pytest

from repro.core import SHARED_MEMORY, SigmaVP
from repro.core.coalescing import KernelCoalescer
from repro.core.handles import HandleTable
from repro.core.jobs import Job, JobKind, JobQueue
from repro.gpu import HostGPU, QUADRO_4000
from repro.gpu.memory import OutOfDeviceMemory
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.kernels.functional import REGISTRY
from repro.sim import Environment
from repro.workloads.linalg import make_vectoradd_spec


def _notes(excinfo) -> str:
    return "\n".join(getattr(excinfo.value, "__notes__", []))


def _oom_run(interleaving):
    """A 4 GiB cudaMalloc on the 2 GiB device; returns (app value, notes)."""
    framework = SigmaVP(transport=SHARED_MEMORY, interleaving=interleaving)
    session = framework.add_vp()
    api = session.runtime

    def greedy_app():
        try:
            yield from api.malloc(4 * 1024**3)  # 4 GiB > the 2 GiB device
            yield from api.synchronize()
        except OutOfDeviceMemory:
            return "oom-handled"
        return "no error"

    process = session.vp.run_app(greedy_app)
    with pytest.raises(OutOfDeviceMemory) as excinfo:
        framework.env.run()
    return process.value, _notes(excinfo)


def test_device_oom_reaches_the_application():
    """cudaMalloc failure propagates into the requesting app cleanly, and
    the error re-raised from the run names the job that failed."""
    value, notes = _oom_run(interleaving=True)
    assert value == "oom-handled"
    assert "'gpu:0/execute(vp0#0)'" in notes
    assert "t=" in notes


def test_device_oom_reaches_the_application_in_serial_mode():
    """The serial dispatcher waits on the failed job and re-raises it
    with the same identity."""
    value, notes = _oom_run(interleaving=False)
    assert value == "oom-handled"
    assert "'gpu:0/execute(vp0#0)'" in notes
    assert "t=" in notes


def test_engine_completion_failure_names_the_engine():
    """An op whose functional effect raises stops the run, and the error
    names the engine and the instant."""
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)

    def apply():
        raise ValueError("bad kernel effect")

    gpu.compute_engine.submit("kernel", 2.5, on_complete=apply)
    with pytest.raises(ValueError, match="bad kernel effect") as excinfo:
        env.run()
    notes = _notes(excinfo)
    assert "'gpu:0/compute'" in notes
    assert "t=2.5ms" in notes


def test_decision_loop_failure_names_the_dispatcher():
    """An error raised while the dispatcher decides (here: a placement
    strategy that cannot place a VP) stops the run, and the error names
    the dispatcher and the instant."""
    from repro.core.dispatcher import JobDispatcher
    from repro.sched import FIFOPolicy
    from repro.sched.placement import PlacementStrategy

    class Unplaceable(PlacementStrategy):
        name = "unplaceable"

        def pick(self, vp, n_devices, backlog):
            raise LookupError(f"no device for {vp}")

    env = Environment()
    queue = JobQueue(env)
    handles = HandleTable()
    JobDispatcher(env, HostGPU(env, QUADRO_4000), queue, handles,
                  policy=FIFOPolicy(), placement=Unplaceable())

    def producer():
        yield env.timeout(1.5)
        queue.put(Job(vp="vp0", seq=0, kind=JobKind.MALLOC,
                      completion=env.event(), size=4096,
                      handle=handles.new_handle("vp0")))

    env.process(producer())
    with pytest.raises(LookupError, match="no device for vp0") as excinfo:
        env.run()
    notes = _notes(excinfo)
    assert "'dispatcher:host/run'" in notes
    assert "t=1.5ms" in notes


def test_coalescer_relayout_survives_fragmentation():
    """When contiguous re-layout is impossible, coalescing still merges
    (keeping the original buffer layout) instead of failing."""
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000, memory_bytes=64 * 1024)
    handles = HandleTable()
    coalescer = KernelCoalescer(env, gpu, handles, target_batch=2)
    queue = JobQueue(env)

    # Fragment the small device: alternating live/free 8 KiB chunks.
    keep = []
    for index in range(4):
        keep.append(gpu.malloc(8 * 1024, owner="frag"))
        hole = gpu.malloc(8 * 1024, owner="hole")
        gpu.free(hole)

    kernel = uniform_kernel(
        "k", {"fp32": 1},
        MemoryFootprint(bytes_in=4096, bytes_out=4096, working_set_bytes=4096),
    )
    launch = LaunchConfig(grid_size=1, block_size=256, elements=256)
    for vp in ("a", "b"):
        handle = handles.new_handle(vp)
        handles.bind(handle, gpu.malloc(7 * 1024, owner=vp))
        job = Job(vp=vp, seq=0, kind=JobKind.KERNEL, completion=env.event(),
                  kernel=kernel, launch=launch, arg_handles=(handle,),
                  out_handle=handle)
        queue.put(job)

    def run_pass():
        # Let the D2H settle window expire; these triples have no D2H.
        yield env.timeout(1.0)
        return coalescer.coalesce_pass(queue)

    merged = env.run(env.process(run_pass()))
    assert merged  # the merge happened despite the failed re-layout
    assert coalescer.stats.merges == 1


def test_vp_stopped_mid_pipeline_then_resumed():
    """VP control can freeze a platform between its CUDA calls; the rest
    of the fleet keeps running, and the frozen VP completes on resume."""
    framework = SigmaVP(transport=SHARED_MEMORY, registry=REGISTRY,
                        coalescing=False)
    spec = make_vectoradd_spec(elements=4096, iterations=6)
    framework.add_vp("frozen")
    framework.add_vp("free")
    frozen = framework.spawn("frozen", spec, seed=0)
    free = framework.spawn("free", spec, seed=1)

    def controller():
        yield framework.env.timeout(0.5)
        framework.ipc.vp_control.stop("frozen")
        yield framework.env.timeout(25.0)
        framework.ipc.vp_control.resume("frozen")

    framework.env.process(controller())
    framework.run_until([frozen, free])

    frozen_vp = framework.session("frozen").vp
    free_vp = framework.session("free").vp
    assert frozen_vp.stop_count == 1
    assert frozen_vp.finished_at_ms > free_vp.finished_at_ms + 20.0
    # Both still computed the right answer.
    a, b = spec.build_inputs(0)
    np.testing.assert_allclose(frozen.value, a + b)


def test_max_batch_one_vp_repeats_are_not_merged():
    """A single VP's back-to-back identical kernels never self-coalesce
    (its own jobs are ordered; merging them would be meaningless)."""
    framework = SigmaVP(transport=SHARED_MEMORY, registry=REGISTRY)
    spec = make_vectoradd_spec(elements=2048, iterations=5)
    framework.add_vp("solo")
    process = framework.spawn("solo", spec)
    framework.run_until([process])
    assert framework.coalescer.stats.merges == 0
    assert len(framework.profiler) == 5


def test_empty_framework_env_runs_clean():
    framework = SigmaVP(transport=SHARED_MEMORY)
    framework.env.run(until=1.0)
    assert framework.total_time_ms == 1.0
    assert len(framework.queue) == 0
