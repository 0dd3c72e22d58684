"""Tests for jobs and the Job Queue (partial order, barriers)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.jobs import Job, JobKind, JobQueue
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.sim import Environment


def _kernel(name="k", coalescible=True):
    return uniform_kernel(
        name,
        {"fp32": 1},
        MemoryFootprint(bytes_in=1024, bytes_out=1024, working_set_bytes=1024),
        coalescible=coalescible,
    )


def _job(env, vp="vp0", seq=0, kind=JobKind.KERNEL, **kw):
    fields = dict(vp=vp, seq=seq, kind=kind, completion=env.event())
    if kind is JobKind.KERNEL and "kernel" not in kw:
        fields["kernel"] = _kernel()
        fields["launch"] = LaunchConfig(grid_size=1, block_size=256, elements=256)
    fields.update(kw)
    return Job(**fields)


# -- Job ---------------------------------------------------------------------


def test_job_kind_predicates():
    env = Environment()
    assert _job(env, kind=JobKind.COPY_H2D).is_copy
    assert _job(env, kind=JobKind.COPY_D2H).is_copy
    assert _job(env, kind=JobKind.KERNEL).is_kernel
    assert not _job(env, kind=JobKind.MALLOC).is_copy


def test_coalesce_key_for_kernels():
    from repro.core.kernel_match import kernel_digest

    env = Environment()
    job = _job(env)
    # Identity is structural (Kernel Match): code digest + block size.
    assert job.coalesce_key == (kernel_digest(job.kernel), 256)


def test_coalesce_key_none_for_copies():
    env = Environment()
    assert _job(env, kind=JobKind.COPY_H2D).coalesce_key is None


def test_coalesce_key_none_for_non_coalescible_kernel():
    env = Environment()
    job = _job(env, kernel=_kernel(coalescible=False),
               launch=LaunchConfig(grid_size=1, block_size=256, elements=256))
    assert job.coalesce_key is None


def test_job_ids_unique_and_increasing():
    env = Environment()
    a, b = _job(env), _job(env)
    assert b.job_id > a.job_id


def test_fresh_job_holds_no_mutable_container():
    """Only the coalescer gives a job members or dependencies, each time
    a fresh list; a fresh job shares immutable empties."""
    env = Environment()
    job = _job(env)
    assert job.members == () and job.depends_on == ()
    assert job.params is None
    containers = (list, dict, set, bytearray)
    assert not [
        name for name in Job.__dataclass_fields__
        if isinstance(getattr(job, name), containers)
    ]


# -- JobQueue -----------------------------------------------------------------


def test_put_records_submission_time():
    env = Environment()
    queue = JobQueue(env)

    def proc():
        yield env.timeout(5.0)
        job = _job(env)
        queue.put(job)
        return job

    job = env.run(env.process(proc()))
    assert job.submitted_at_ms == 5.0


def test_arrival_event_fires_on_put():
    """The queue's arrival notification (``on_put``) fires at the put."""
    env = Environment()
    queue = JobQueue(env)
    arrivals = []
    queue.on_put = lambda job: arrivals.append((env.now, job))

    def producer():
        yield env.timeout(2.0)
        job = _job(env)
        queue.put(job)
        return job

    job = env.run(env.process(producer()))
    assert arrivals == [(2.0, job)]


def test_arrival_event_does_not_fire_for_existing_items():
    env = Environment()
    queue = JobQueue(env)
    queue.put(_job(env))
    arrivals = []
    queue.on_put = arrivals.append
    env.run()
    assert arrivals == []


def test_put_listener_sees_every_put_in_order():
    """``on_put`` is called with each job as it is added, after the
    queue's indexes already hold it."""
    env = Environment()
    queue = JobQueue(env)
    queue.put(_job(env, vp="a", seq=0))
    seen = []
    queue.on_put = lambda job: seen.append(
        (job.vp, job.seq, len(queue), queue.heads_per_vp()[job.vp] is job)
    )

    def producer():
        yield env.timeout(2.0)
        queue.put(_job(env, vp="b", seq=0))
        queue.put(_job(env, vp="b", seq=1))

    env.process(producer())
    env.run()
    assert seen == [("b", 0, 2, True), ("b", 1, 3, False)]


def test_heads_per_vp_takes_lowest_seq():
    env = Environment()
    queue = JobQueue(env)
    queue.put(_job(env, vp="a", seq=1))
    queue.put(_job(env, vp="a", seq=0))
    queue.put(_job(env, vp="b", seq=5))
    heads = queue.heads_per_vp()
    assert heads["a"].seq == 0
    assert heads["b"].seq == 5


def test_remove_unknown_job_raises():
    env = Environment()
    queue = JobQueue(env)
    with pytest.raises(RuntimeError):
        queue.remove(_job(env))


def test_replace_preserves_position():
    env = Environment()
    queue = JobQueue(env)
    first = _job(env, vp="x", seq=0)
    a = _job(env, vp="a", seq=0)
    b = _job(env, vp="b", seq=0)
    last = _job(env, vp="y", seq=0)
    for job in (first, a, b, last):
        queue.put(job)
    merged = _job(env, vp="merged", seq=0)
    queue.replace([a, b], merged)
    assert queue.jobs == [first, merged, last]


def test_replace_requires_members():
    env = Environment()
    queue = JobQueue(env)
    with pytest.raises(ValueError):
        queue.replace([], _job(env))


def test_watch_reports_touched_vps():
    """A watcher starts with every VP present and collects each VP whose
    pending jobs a put, remove or replace changes."""
    env = Environment()
    queue = JobQueue(env)
    a = _job(env, vp="a")
    queue.put(a)
    touched = queue.watch()
    assert touched == {"a"}
    touched.clear()
    b = _job(env, vp="b")
    queue.put(b)
    queue.remove(a)
    assert touched == {"a", "b"}
    touched.clear()
    queue.replace([b], _job(env, vp="merged"))
    assert touched == {"b", "merged"}


def test_barrier_blocks_until_event():
    env = Environment()
    queue = JobQueue(env)
    gate = env.event()
    queue.set_barrier("vp0", gate)
    assert queue.barred("vp0")
    assert not queue.barred("other")
    gate.succeed()
    env.run()
    assert not queue.barred("vp0")
    # Barrier is cleaned up after release.
    assert not queue.barred("vp0")


def test_barrier_seq_exemption():
    env = Environment()
    queue = JobQueue(env)
    gate = env.event()
    queue.set_barrier("vp0", gate, exempt_below_seq=3)
    assert not queue.barred("vp0", seq=2)
    assert queue.barred("vp0", seq=3)
    assert queue.barred("vp0", seq=10)


def test_pending_for_filters_by_vp():
    env = Environment()
    queue = JobQueue(env)
    a = _job(env, vp="a", seq=0)
    b = _job(env, vp="b", seq=0)
    a2 = _job(env, vp="a", seq=1)
    for job in (a, b, a2):
        queue.put(job)
    assert queue.pending_for("a") == [a, a2]


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 100)), max_size=40))
def test_heads_property(vp_seq_pairs):
    """heads_per_vp always returns the min-seq job of every present VP."""
    env = Environment()
    queue = JobQueue(env)
    for vp_idx, seq in vp_seq_pairs:
        queue.put(_job(env, vp=f"vp{vp_idx}", seq=seq, kind=JobKind.MALLOC))
    heads = queue.heads_per_vp()
    for vp, head in heads.items():
        assert all(head.seq <= j.seq for j in queue.pending_for(vp))
    assert set(heads) == {j.vp for j in queue}
