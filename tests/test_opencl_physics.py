"""Tests for the OpenCL runtime facade and the PhysX-style workload."""

import numpy as np
import pytest

from repro.core.handles import HandleTable
from repro.core.ipc import IPCManager, SHARED_MEMORY
from repro.core.jobs import JobKind, JobQueue
from repro.core.dispatcher import JobDispatcher, ServiceMode
from repro.core.profiler import Profiler
from repro.sched import FIFOPolicy
from repro.core.scenarios import run_emulation, run_native_gpu, run_sigma_vp
from repro.gpu import HostGPU, QUADRO_4000
from repro.kernels.functional import REGISTRY
from repro.sim import Environment
from repro.vp import (
    EmulationBackend,
    HOST_XEON,
    OpenCLRuntime,
    SigmaVPBackend,
    VirtualPlatform,
)
from repro.workloads import SUITE
from repro.workloads.physics import (
    GRAVITY,
    make_physics_kernel,
    physx_step_fn,
)


# -- OpenCL facade --------------------------------------------------------------


def _opencl_app(cl, n=2048):
    """A vectorAdd written in OpenCL style: the same backend serves it."""

    def app():
        a = np.arange(n, dtype=np.float64)
        b = np.full(n, 7.0)
        from repro.kernels import MemoryFootprint, uniform_kernel

        kernel = uniform_kernel(
            "vectorAdd",
            {"fp32": 1, "load": 2, "store": 1},
            MemoryFootprint(bytes_in=2 * n * 8, bytes_out=n * 8,
                            working_set_bytes=3 * n * 8),
            signature="vectorAdd",
        )
        buf_a = yield from cl.create_buffer(a.nbytes)
        buf_b = yield from cl.create_buffer(b.nbytes)
        buf_out = yield from cl.create_buffer(a.nbytes)
        yield from cl.enqueue_write_buffer(buf_a, a, blocking=False)
        yield from cl.enqueue_write_buffer(buf_b, b, blocking=False)
        yield from cl.enqueue_nd_range_kernel(
            kernel, global_size=n, local_size=256,
            args=[buf_a, buf_b], out=buf_out,
        )
        yield from cl.finish()
        result = yield from cl.enqueue_read_buffer(buf_out, nbytes=a.nbytes)
        yield from cl.release_mem_object(buf_a)
        return result.value

    return app


def test_opencl_on_emulation_backend():
    env = Environment()
    platform = VirtualPlatform(env, "ocl", cpu=HOST_XEON)
    cl = OpenCLRuntime(EmulationBackend(env, platform))
    result = env.run(platform.run_app(_opencl_app(cl)))
    np.testing.assert_array_equal(result, np.arange(2048) + 7.0)


def test_opencl_through_sigma_vp():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    queue = JobQueue(env)
    handles = HandleTable()
    ipc = IPCManager(env, queue, transport=SHARED_MEMORY)
    dispatcher = JobDispatcher(env, gpu, queue, handles, policy=FIFOPolicy(),
                               mode=ServiceMode.PIPELINED, registry=REGISTRY,
                               profiler=Profiler())
    vp = VirtualPlatform(env, "vp0")
    cl = OpenCLRuntime(SigmaVPBackend(env, vp, ipc, handles))
    result = env.run(vp.run_app(_opencl_app(cl)))
    np.testing.assert_array_equal(result, np.arange(2048) + 7.0)
    assert dispatcher.stats.dispatched[JobKind.KERNEL] == 1
    # clFinish makes no job: its trace is one completion response, next
    # to the 8 requests and the blocking read's response.
    assert ipc.messages_sent == 8 + 1 + 1


def test_nd_range_validation():
    env = Environment()
    platform = VirtualPlatform(env, "ocl", cpu=HOST_XEON)
    cl = OpenCLRuntime(EmulationBackend(env, platform))
    kernel = make_physics_kernel(1024)

    def bad():
        yield from cl.enqueue_nd_range_kernel(kernel, global_size=0, local_size=64)

    with pytest.raises(ValueError):
        env.run(platform.run_app(bad))

    def bad_local():
        yield from cl.enqueue_nd_range_kernel(kernel, global_size=32, local_size=64)

    with pytest.raises(ValueError):
        env.run(platform.run_app(bad_local))


def test_nd_range_grid_covers_global_size():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    queue = JobQueue(env)
    handles = HandleTable()
    ipc = IPCManager(env, queue, transport=SHARED_MEMORY)
    dispatcher = JobDispatcher(env, gpu, queue, handles, policy=FIFOPolicy(),
                               registry=REGISTRY, profiler=Profiler())
    vp = VirtualPlatform(env, "vp0")
    cl = OpenCLRuntime(SigmaVPBackend(env, vp, ipc, handles))

    def app():
        yield from cl.enqueue_nd_range_kernel(
            make_physics_kernel(1000), global_size=1000, local_size=128
        )
        yield from cl.finish()

    env.run(vp.run_app(app))
    profile = dispatcher.profiler.last_profile()
    assert profile.launch.grid_size == 8  # ceil(1000 / 128)
    assert profile.launch.block_size == 128


# -- PhysX-style workload --------------------------------------------------------


def test_physics_reference_step():
    state = np.array([[0.0, 1.0, 0.1, 0.0]], dtype=np.float32)
    stepped = physx_step_fn(state)
    assert stepped[0, 0] == pytest.approx(0.1)          # x advanced by vx
    assert stepped[0, 3] == pytest.approx(GRAVITY)      # vy gained gravity
    assert stepped[0, 1] < 1.0                          # falling


def test_physics_ground_collision_reflects():
    state = np.array([[0.0, 0.001, 0.0, -0.5]], dtype=np.float32)
    stepped = physx_step_fn(state)
    assert stepped[0, 1] > 0.0   # bounced above the plane
    assert stepped[0, 3] > 0.0   # vertical velocity reversed


def test_physics_energy_dissipates():
    rng = np.random.default_rng(7)
    state = np.column_stack([
        rng.uniform(-1, 1, 512), rng.uniform(0.5, 2.0, 512),
        rng.normal(0, 0.01, 512), rng.normal(0, 0.01, 512),
    ]).astype(np.float32)

    def energy(s):
        return float(np.sum(0.5 * (s[:, 2] ** 2 + s[:, 3] ** 2)
                     - GRAVITY * s[:, 1]))

    current = state
    for _ in range(200):
        current = physx_step_fn(current)
    assert energy(current) < energy(state)
    assert (current[:, 1] >= 0).all()  # nothing below the ground


def test_physics_workload_in_suite():
    assert "physxParticles" in SUITE
    assert SUITE["physxParticles"].readback_only


def test_physics_functional_through_all_backends():
    spec = SUITE["physxParticles"].scaled_to(1024, iterations=3)
    native = run_native_gpu(spec, functional=True).extras["result"]
    emul = run_emulation(spec, cpu=HOST_XEON, functional=True).extras["result"]
    sigma = run_sigma_vp(spec, n_vps=1, functional=True).extras["result"]
    (state,) = spec.build_inputs(0)
    expected = state
    for _ in range(3):
        expected = physx_step_fn(expected)
    np.testing.assert_allclose(native, expected, rtol=1e-5)
    np.testing.assert_allclose(emul, expected, rtol=1e-5)
    np.testing.assert_allclose(sigma, expected, rtol=1e-5)
