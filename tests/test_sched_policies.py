"""Tests for the scheduling policies and engine backlog."""

import pytest

from repro.core.jobs import Job, JobKind
from repro.sched import (
    EngineBacklog,
    FIFOPolicy,
    InterleavingPolicy,
    engine_role,
    make_policy,
)
from repro.sim import Environment


def _job(env, vp="vp0", seq=0, kind=JobKind.COPY_H2D):
    return Job(vp=vp, seq=seq, kind=kind, completion=env.event())


def test_engine_role_mapping():
    env = Environment()
    assert engine_role(_job(env, kind=JobKind.COPY_H2D)) == "h2d"
    assert engine_role(_job(env, kind=JobKind.COPY_D2H)) == "d2h"
    assert engine_role(_job(env, kind=JobKind.KERNEL)) == "compute"
    assert engine_role(_job(env, kind=JobKind.MALLOC)) == "host"
    assert engine_role(_job(env, kind=JobKind.FREE)) == "host"


def test_backlog_add_retire():
    env = Environment()
    backlog = EngineBacklog()
    job = _job(env, kind=JobKind.KERNEL)
    backlog.add(job, 5.0)
    assert backlog.for_job(job) == 5.0
    backlog.retire(job, 5.0)
    assert backlog.for_job(job) == 0.0


def test_backlog_never_negative():
    env = Environment()
    backlog = EngineBacklog()
    job = _job(env, kind=JobKind.COPY_H2D)
    backlog.retire(job, 99.0)
    assert backlog.for_job(job) == 0.0


def test_backlog_tracks_engines_independently():
    env = Environment()
    backlog = EngineBacklog()
    h2d = _job(env, kind=JobKind.COPY_H2D)
    kernel = _job(env, kind=JobKind.KERNEL)
    backlog.add(h2d, 3.0)
    backlog.add(kernel, 7.0)
    assert backlog.for_job(h2d) == 3.0
    assert backlog.for_job(kernel) == 7.0


def test_fifo_selects_arrival_order():
    env = Environment()
    policy = FIFOPolicy()
    first = _job(env, vp="a")
    second = _job(env, vp="b")
    assert policy.select([second, first], EngineBacklog()) is first


def test_fifo_empty_returns_none():
    assert FIFOPolicy().select([], EngineBacklog()) is None


def test_interleaving_prefers_starving_engine():
    """The policy feeds the engine with the smaller expected backlog."""
    env = Environment()
    policy = InterleavingPolicy()
    backlog = EngineBacklog()
    copy_job = _job(env, vp="a", kind=JobKind.COPY_H2D)
    kernel_job = _job(env, vp="b", kind=JobKind.KERNEL)
    backlog.add(copy_job, 10.0)  # copy engine busy
    choice = policy.select([copy_job, kernel_job], backlog)
    assert choice is kernel_job


def test_interleaving_rotates_across_vps():
    env = Environment()
    policy = InterleavingPolicy()
    backlog = EngineBacklog()
    a1 = _job(env, vp="a", seq=0)
    b1 = _job(env, vp="b", seq=0)
    first = policy.select([a1, b1], backlog)
    assert first is a1  # tie-break by arrival
    a2 = _job(env, vp="a", seq=1)
    second = policy.select([a2, b1], backlog)
    assert second is b1  # VP a was just served: rotate to b


def test_interleaving_empty_returns_none():
    assert InterleavingPolicy().select([], EngineBacklog()) is None


def test_make_policy():
    assert isinstance(make_policy("fifo"), FIFOPolicy)
    assert isinstance(make_policy("interleaving"), InterleavingPolicy)
    with pytest.raises(ValueError):
        make_policy("magic")
