"""Tests for engines, streams, and the HostGPU facade."""

import numpy as np
import pytest

from repro.gpu import HostGPU, QUADRO_4000
from repro.gpu.engines import Engine
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.sim import Environment


def _kernel(name="k", signature=None):
    return uniform_kernel(
        name,
        {"fp32": 8, "load": 2, "store": 1, "int": 2},
        MemoryFootprint(bytes_in=8192, bytes_out=4096, working_set_bytes=16384),
        signature=signature or name,
    )


def _launch(grid=8, block=256):
    return LaunchConfig(grid_size=grid, block_size=block, elements=grid * block)


# -- Engine -------------------------------------------------------------------


def test_engine_serves_fifo():
    env = Environment()
    engine = Engine(env, "e")
    a = engine.submit("a", 2.0)
    b = engine.submit("b", 3.0)
    env.run()
    assert a.done.triggered and b.done.triggered
    assert engine.timeline[0].label == "a"
    assert engine.timeline[0].end_ms == 2.0
    assert engine.timeline[1].end_ms == 5.0
    assert engine.busy_ms == 5.0


def test_engine_queued_counts_ops_not_yet_taken():
    """An idle engine takes an op at once; later ones wait in its queue
    until the op before them finishes (the dispatcher's room check)."""
    env = Environment()
    engine = Engine(env, "e")
    engine.submit("a", 1.0)
    assert engine.queued == 0
    engine.submit("b", 1.0)
    engine.submit("c", 1.0)
    assert engine.queued == 2
    env.run(until=1.5)
    assert engine.queued == 1
    env.run()
    assert engine.queued == 0
    assert [entry.label for entry in engine.timeline] == ["a", "b", "c"]


def test_engine_rejects_negative_duration():
    env = Environment()
    engine = Engine(env, "e")
    with pytest.raises(ValueError):
        engine.submit("bad", -1.0)


def test_engine_on_complete_runs_at_finish_time():
    env = Environment()
    engine = Engine(env, "e")
    seen = []
    engine.submit("op", 4.0, on_complete=lambda: seen.append(env.now))
    env.run()
    assert seen == [4.0]


def test_engine_utilization():
    env = Environment()
    engine = Engine(env, "e")
    engine.submit("op", 3.0)
    env.run()

    def idle_then_check():
        yield env.timeout(3.0)  # now at 6.0 with engine idle since 3.0

    env.process(idle_then_check())
    env.run()
    assert engine.utilization() == pytest.approx(0.5)


def test_engine_idle_gaps():
    env = Environment()
    engine = Engine(env, "e")

    def submitter():
        engine.submit("first", 1.0)
        yield env.timeout(5.0)
        engine.submit("second", 1.0)

    env.process(submitter())
    env.run()
    spans = [(e.start_ms, e.end_ms) for e in engine.timeline]
    assert spans == [(0.0, 1.0), (5.0, 6.0)]  # idle from 1.0 to 5.0


def test_two_engines_overlap():
    """Copy and compute engines operate in parallel (paper Section 3)."""
    env = Environment()
    copy = Engine(env, "copy")
    compute = Engine(env, "compute")
    copy.submit("copy", 10.0)
    compute.submit("kernel", 10.0)
    env.run()
    assert env.now == 10.0  # not 20: they ran concurrently


# -- streams ------------------------------------------------------------------


def test_stream_preserves_order_across_engines():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    buf = gpu.malloc(8192, owner="s")

    gpu.memcpy_h2d(stream, buf, np.zeros(1024))
    done = gpu.launch_kernel(stream, _kernel(), _launch())
    env.run(done)
    # The kernel starts only after the stream's copy completed.
    copy_end = gpu.h2d_engine.timeline[0].end_ms
    kernel_start = gpu.compute_engine.timeline[0].start_ms
    assert kernel_start >= copy_end


def test_independent_streams_overlap():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    s1 = gpu.create_stream("s1")
    s2 = gpu.create_stream("s2")
    b1 = gpu.malloc(2 * 1024 * 1024, owner="s1")
    b2 = gpu.malloc(8192, owner="s2")

    gpu.memcpy_h2d(s1, b1, nbytes=2 * 1024 * 1024)  # long copy
    done = gpu.launch_kernel(s2, _kernel(), _launch())  # other stream's kernel
    env.run()
    kernel_entry = gpu.compute_engine.timeline[0]
    copy_entry = gpu.h2d_engine.timeline[0]
    # The kernel did not wait for the unrelated copy.
    assert kernel_entry.start_ms < copy_entry.end_ms
    assert done.triggered


def test_duplicate_stream_name_rejected():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    gpu.create_stream("s")
    with pytest.raises(ValueError):
        gpu.create_stream("s")


def test_stream_lookup():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    s = gpu.create_stream("vp0")
    assert gpu.stream("vp0") is s
    with pytest.raises(KeyError):
        gpu.stream("missing")


def test_stream_synchronize_idle_fires_immediately():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")

    def proc():
        yield stream.synchronize()
        return env.now

    assert env.run(env.process(proc())) == 0.0


def test_stream_synchronize_waits_for_work():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    gpu.launch_kernel(stream, _kernel(), _launch())

    def proc():
        yield stream.synchronize()
        return env.now

    finish = env.run(env.process(proc()))
    assert finish > 0.0
    assert finish == pytest.approx(gpu.compute_engine.timeline[0].end_ms)


# -- HostGPU functional behaviour ------------------------------------------------


def test_h2d_copy_sets_payload():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    buf = gpu.malloc(800, owner="s")
    data = np.arange(100, dtype=np.float64)
    gpu.memcpy_h2d(stream, buf, data)
    env.run()
    np.testing.assert_array_equal(buf.payload, data)
    # Zero-copy: the payload is a read-only view of the submitted array,
    # so accidental in-place writes through the device side fail loudly.
    assert not buf.payload.flags.writeable
    with pytest.raises(ValueError):
        buf.payload[0] = -1


def test_d2h_copy_delivers_payload():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    buf = gpu.malloc(800, owner="s")
    received = []
    gpu.memcpy_h2d(stream, buf, np.ones(100))
    gpu.memcpy_d2h(stream, buf, sink=received.append)
    env.run()
    assert len(received) == 1
    np.testing.assert_array_equal(received[0], np.ones(100))


def test_copy_overflow_rejected():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    buf = gpu.malloc(8, owner="s")
    with pytest.raises(ValueError):
        gpu.memcpy_h2d(stream, buf, np.zeros(100))


def test_kernel_apply_transforms_payload():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    buf = gpu.malloc(800, owner="s")
    gpu.memcpy_h2d(stream, buf, np.full(100, 2.0))

    def apply():
        buf.payload = buf.payload * 3.0

    gpu.launch_kernel(stream, _kernel(), _launch(), apply=apply)
    env.run()
    np.testing.assert_array_equal(buf.payload, np.full(100, 6.0))


def test_kernel_log_and_profiles():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    gpu.launch_kernel(stream, _kernel("alpha"), _launch())
    gpu.launch_kernel(stream, _kernel("beta"), _launch())
    env.run()
    assert [r.kernel_name for r in gpu.kernel_log] == ["alpha", "beta"]
    assert len(gpu.profiles_for("alpha")) == 1
    assert gpu.last_profile().kernel_name == "beta"


def test_byte_counters():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    buf = gpu.malloc(1000, owner="s")
    gpu.memcpy_h2d(stream, buf, nbytes=600)
    gpu.memcpy_d2h(stream, buf, nbytes=400)
    env.run()
    assert gpu.bytes_copied_h2d == 600
    assert gpu.bytes_copied_d2h == 400


def test_foreign_compiled_kernel_rejected():
    from repro.gpu import TEGRA_K1
    from repro.kernels import compile_kernel

    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    stream = gpu.create_stream("s")
    foreign = compile_kernel(_kernel("tg"), TEGRA_K1)
    with pytest.raises(ValueError):
        gpu.launch_kernel(stream, foreign, _launch())
