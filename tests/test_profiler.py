"""Tests for the Profiler's records and lookups."""

from repro.core.jobs import Job, JobKind
from repro.core.profiler import Profiler
from repro.gpu import QUADRO_4000
from repro.gpu.timing import KernelTimingModel
from repro.kernels import (
    KernelCompiler,
    LaunchConfig,
    MemoryFootprint,
    uniform_kernel,
)
from repro.sim import Environment

COMPILER = KernelCompiler()
MODEL = KernelTimingModel(QUADRO_4000)


def _profile(name="k", fp32=8.0):
    kernel = uniform_kernel(
        name,
        {"fp32": fp32, "load": 1, "int": 2},
        MemoryFootprint(bytes_in=8192, bytes_out=8192, working_set_bytes=8192),
    )
    launch = LaunchConfig(grid_size=8, block_size=256, elements=2048)
    return MODEL.execute(COMPILER.compile(kernel, QUADRO_4000), launch)


def _job(env, vp="vp0", members=0):
    job = Job(vp=vp, seq=0, kind=JobKind.KERNEL, completion=env.event())
    job.members = [
        Job(vp=f"m{i}", seq=0, kind=JobKind.KERNEL, completion=env.event())
        for i in range(members)
    ]
    return job


def test_record_and_lookup():
    env = Environment()
    profiler = Profiler()
    record = profiler.record(_job(env), _profile("alpha"))
    assert record.kernel_name == "alpha"
    assert len(profiler) == 1
    assert [r.kernel_name for r in profiler.records] == ["alpha"]
    assert profiler.last_profile("alpha") is record.profile
    assert profiler.last_profile("ghost") is None


def test_last_profile_returns_latest():
    env = Environment()
    profiler = Profiler()
    profiler.record(_job(env), _profile("k", fp32=2.0))
    second = profiler.record(_job(env), _profile("k", fp32=9.0))
    assert profiler.last_profile("k") is second.profile
    assert profiler.last_profile() is second.profile


def test_coalesced_member_count_recorded():
    env = Environment()
    profiler = Profiler()
    record = profiler.record(_job(env, members=5), _profile("k"))
    assert record.coalesced_members == 5
