"""Tests for the virtual platform and the CUDA runtime backends."""

import numpy as np
import pytest

from repro.core.handles import HandleTable
from repro.core.ipc import IPCManager, SHARED_MEMORY
from repro.core.jobs import JobKind, JobQueue
from repro.core.dispatcher import JobDispatcher, ServiceMode
from repro.core.profiler import Profiler
from repro.sched import FIFOPolicy
from repro.gpu import HostGPU, QUADRO_4000
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.kernels.functional import REGISTRY
from repro.sim import Environment
from repro.vp import (
    CudaRuntime,
    EmulationBackend,
    GUEST_DRIVER_CALL_OPS,
    HOST_XEON,
    NativeGPUBackend,
    QEMU_ARM_VP,
    SigmaVPBackend,
    VirtualPlatform,
)


def _vector_kernel(n):
    return uniform_kernel(
        "vectorAdd",  # registered functional kernel
        {"fp32": 1, "load": 2, "store": 1},
        MemoryFootprint(bytes_in=2 * n * 8, bytes_out=n * 8,
                        working_set_bytes=3 * n * 8),
        signature="vectorAdd",
    )


def _vecadd_app(api, n=1024):
    """The canonical program, written once for every backend."""

    def app():
        a = np.arange(n, dtype=np.float64)
        b = np.full(n, 10.0)
        h_a = yield from api.malloc(a.nbytes)
        h_b = yield from api.malloc(b.nbytes)
        h_out = yield from api.malloc(a.nbytes)
        yield from api.memcpy_h2d(h_a, a)
        yield from api.memcpy_h2d(h_b, b)
        launch = LaunchConfig(grid_size=n // 256, block_size=256, elements=n)
        yield from api.launch_kernel(
            _vector_kernel(n), launch, args=[h_a, h_b], out=h_out
        )
        yield from api.synchronize()
        result = yield from api.memcpy_d2h(h_out, nbytes=a.nbytes)
        yield from api.free(h_a)
        yield from api.free(h_b)
        return result.value

    return app


# -- VirtualPlatform ----------------------------------------------------------


def test_platform_tracks_guest_time():
    env = Environment()
    vp = VirtualPlatform(env, "vp0")

    def app():
        yield from vp.execute_ops(vp.cpu.ops_per_ms * 2)

    env.run(vp.run_app(app))
    assert vp.guest_cpu_ms == pytest.approx(2.0)
    assert vp.elapsed_ms == pytest.approx(2.0)


def test_platform_execute_ms_validation():
    env = Environment()
    vp = VirtualPlatform(env, "vp0")

    def bad():
        yield from vp.execute_ms(-1.0)

    with pytest.raises(ValueError):
        env.run(vp.run_app(bad))


def test_platform_resume_without_stop_is_noop():
    env = Environment()
    vp = VirtualPlatform(env, "vp0")
    vp.resume()
    assert not vp.paused


# -- NativeGPUBackend -----------------------------------------------------------


def test_native_backend_functional():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    host = VirtualPlatform(env, "host", cpu=HOST_XEON)
    api = CudaRuntime(NativeGPUBackend(env, gpu, host))
    handles = []
    malloc = api.malloc

    def recording_malloc(nbytes):
        handle = yield from malloc(nbytes)
        handles.append(handle)
        return handle

    api.malloc = recording_malloc
    process = host.run_app(_vecadd_app(api))
    result = env.run(process)
    np.testing.assert_array_equal(result, np.arange(1024) + 10.0)
    assert len(gpu.kernel_log) == 1
    # Three distinct buffers allocated, two of them freed.
    assert len(set(handles)) == 3
    assert len(gpu.memory) == 1


def test_native_backend_frees_device_memory():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    host = VirtualPlatform(env, "host", cpu=HOST_XEON)
    api = CudaRuntime(NativeGPUBackend(env, gpu, host))
    env.run(host.run_app(_vecadd_app(api)))
    # h_a and h_b freed; h_out still held.
    assert gpu.memory.used_bytes == 1024 * 8


# -- EmulationBackend --------------------------------------------------------------


def test_emulation_backend_functional():
    env = Environment()
    platform = VirtualPlatform(env, "emu", cpu=HOST_XEON)
    api = CudaRuntime(EmulationBackend(env, platform))
    result = env.run(platform.run_app(_vecadd_app(api)))
    np.testing.assert_array_equal(result, np.arange(1024) + 10.0)


def test_emulation_on_vp_much_slower_than_on_host():
    def run_on(cpu):
        env = Environment()
        platform = VirtualPlatform(env, "emu", cpu=cpu)
        api = CudaRuntime(EmulationBackend(env, platform))
        env.run(platform.run_app(_vecadd_app(api, n=4096)))
        return env.now

    host_time = run_on(HOST_XEON)
    vp_time = run_on(QEMU_ARM_VP)
    assert vp_time > 30 * host_time


def test_emulation_unknown_handle_raises():
    env = Environment()
    platform = VirtualPlatform(env, "emu", cpu=HOST_XEON)
    backend = EmulationBackend(env, platform)

    def app():
        yield from backend.memcpy_h2d("ghost", np.zeros(4), sync=True)

    with pytest.raises(KeyError):
        env.run(platform.run_app(app))


# -- SigmaVPBackend -------------------------------------------------------------------


def _sigma_setup():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    queue = JobQueue(env)
    handles = HandleTable()
    ipc = IPCManager(env, queue, transport=SHARED_MEMORY)
    dispatcher = JobDispatcher(
        env, gpu, queue, handles,
        policy=FIFOPolicy(), mode=ServiceMode.PIPELINED,
        registry=REGISTRY, profiler=Profiler(),
    )
    vp = VirtualPlatform(env, "vp0")
    ipc.vp_control.register(vp)
    api = CudaRuntime(SigmaVPBackend(env, vp, ipc, handles))
    return env, gpu, vp, api, dispatcher


def test_sigma_guest_path_gates_charges_and_stamps_seq():
    """Each SigmaVP call waits out a stop, charges the guest library and
    driver ops on the VP's CPU, then crosses IPC into the Job Queue."""
    env = Environment()
    queue = JobQueue(env)
    ipc = IPCManager(env, queue, transport=SHARED_MEMORY)
    arrivals = []
    queue.on_put = lambda job: arrivals.append(
        (job.vp, job.seq, env.now, vps[job.vp].guest_cpu_ms)
    )
    vps = {name: VirtualPlatform(env, name) for name in ("vp0", "vp1")}
    data = np.zeros(128)

    def app(api):
        def run():
            handle = yield from api.malloc(data.nbytes)
            yield from api.memcpy_h2d(handle, data, sync=False)
            yield from api.free(handle)

        return run

    for vp in vps.values():
        vp.run_app(app(CudaRuntime(SigmaVPBackend(env, vp, ipc, HandleTable()))))
    vps["vp0"].stop()

    def resumer():
        yield env.timeout(5.0)
        vps["vp0"].resume()

    env.process(resumer())
    env.run()

    guest_ms = vps["vp0"].cpu.time_for_ops(GUEST_DRIVER_CALL_OPS)
    transfer = SHARED_MEMORY.transfer_ms
    payloads = (0, data.nbytes, 0)
    for name, start in (("vp0", 5.0), ("vp1", 0.0)):
        mine = [a for a in arrivals if a[0] == name]
        assert [seq for _, seq, _, _ in mine] == [0, 1, 2]
        now, charged = start, 0.0
        for (_, _, at, cpu_ms), payload in zip(mine, payloads):
            now = (now + guest_ms) + transfer(payload)
            charged += guest_ms
            assert at == now
            assert cpu_ms == charged


def test_sigma_backend_functional():
    env, gpu, vp, api, _ = _sigma_setup()
    result = env.run(vp.run_app(_vecadd_app(api)))
    np.testing.assert_array_equal(result, np.arange(1024) + 10.0)


def test_sigma_backend_binary_compatibility():
    """The same application source ran on all three backends above —
    this asserts identical numerical results (the paper's no-change
    claim transposed)."""
    env, gpu, vp, api, _ = _sigma_setup()
    sigma_result = env.run(vp.run_app(_vecadd_app(api)))

    env2 = Environment()
    platform = VirtualPlatform(env2, "emu", cpu=HOST_XEON)
    emul_api = CudaRuntime(EmulationBackend(env2, platform))
    emul_result = env2.run(platform.run_app(_vecadd_app(emul_api)))

    np.testing.assert_array_equal(sigma_result, emul_result)


def test_sigma_backend_sync_waits_for_completion():
    env, gpu, vp, api, _ = _sigma_setup()

    def app():
        h = yield from api.malloc(8192)
        yield from api.memcpy_h2d(h, np.zeros(1024), sync=True)
        return env.now

    t_done = env.run(vp.run_app(app))
    # At least: driver + request latency + copy + response latency.
    assert t_done > gpu.arch.copy_time_ms(8192)


def test_sigma_backend_async_returns_before_completion():
    env, gpu, vp, api, _ = _sigma_setup()
    marker = {}

    def app():
        h = yield from api.malloc(8 * 1024 * 1024)
        yield from api.memcpy_h2d(h, np.zeros(1024 * 1024), sync=False)
        marker["after_submit"] = env.now
        yield from api.synchronize()
        marker["after_sync"] = env.now

    env.run(vp.run_app(app))
    # 8 MB over the copy engine takes ~2 ms; the async call returned
    # well before that, the synchronize absorbed the rest.
    assert marker["after_sync"] - marker["after_submit"] > 1.0


def test_sigma_backend_malloc_validation():
    env, gpu, vp, api, _ = _sigma_setup()

    def app():
        yield from api.malloc(0)

    with pytest.raises(ValueError):
        env.run(vp.run_app(app))


def test_runtime_counts_calls():
    env, gpu, vp, api, dispatcher = _sigma_setup()
    env.run(vp.run_app(_vecadd_app(api)))
    env.run()  # the host drains the two asynchronous frees
    dispatched = dispatcher.stats.dispatched
    assert dispatched[JobKind.COPY_H2D] == 2
    assert dispatched[JobKind.COPY_D2H] == 1
    assert dispatched[JobKind.FREE] == 2
    # synchronize makes no job: its trace is one completion response,
    # next to the 9 requests and the responses of the three sync copies.
    assert api.backend.ipc.messages_sent == 9 + 3 + 1
