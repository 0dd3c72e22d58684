"""Tests for Kernel Coalescing: triples, groups, merges, barriers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.coalescing import KernelCoalescer
from repro.core.handles import HandleTable
from repro.core.jobs import Job, JobKind, JobQueue
from repro.gpu import HostGPU, QUADRO_4000
from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
from repro.sim import Environment


def _kernel(signature="vecadd", coalescible=True):
    return uniform_kernel(
        signature,
        {"fp32": 2, "load": 2, "store": 1},
        MemoryFootprint(bytes_in=4096, bytes_out=4096, working_set_bytes=8192),
        signature=signature,
        coalescible=coalescible,
    )


def _setup(target_batch=None, **kw):
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    handles = HandleTable()
    coalescer = KernelCoalescer(
        env, gpu, handles, target_batch=target_batch, **kw
    )
    return env, gpu, handles, coalescer


def _triple_jobs(env, vp, seq0=0, signature="vecadd", with_d2h=True, nbytes=4096):
    kernel = _kernel(signature)
    launch = LaunchConfig(grid_size=2, block_size=256, elements=512)
    h2d = Job(vp=vp, seq=seq0, kind=JobKind.COPY_H2D,
              completion=env.event(), nbytes=nbytes)
    k = Job(vp=vp, seq=seq0 + 1, kind=JobKind.KERNEL, completion=env.event(),
            kernel=kernel, launch=launch)
    jobs = [h2d, k]
    if with_d2h:
        jobs.append(Job(vp=vp, seq=seq0 + 2, kind=JobKind.COPY_D2H,
                        completion=env.event(), nbytes=nbytes))
    return jobs


# -- triple detection ------------------------------------------------------------


def test_find_triples_groups_by_key():
    env, gpu, handles, coalescer = _setup()
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    from repro.core.kernel_match import kernel_digest

    groups = coalescer.find_triples(queue)
    assert len(groups) == 1
    triples = groups[(kernel_digest(_kernel()), 256, 0)]  # digest, block, device
    assert [t.vp for t in triples] == ["a", "b"]
    assert all(len(t.h2d) == 1 and len(t.d2h) == 1 for t in triples)


def test_find_triples_requires_kernel_at_head_region():
    env, gpu, handles, coalescer = _setup()
    queue = JobQueue(env)
    queue.put(Job(vp="a", seq=0, kind=JobKind.MALLOC, completion=env.event(), size=64))
    for job in _triple_jobs(env, "a", seq0=1):
        queue.put(job)
    # The malloc at the head hides the triple: partial order protected.
    assert coalescer.find_triples(queue) == {}


def test_find_triples_ignores_different_signatures():
    env, gpu, handles, coalescer = _setup()
    queue = JobQueue(env)
    for job in _triple_jobs(env, "a", signature="x"):
        queue.put(job)
    for job in _triple_jobs(env, "b", signature="y"):
        queue.put(job)
    groups = coalescer.find_triples(queue)
    assert len(groups) == 2
    assert all(len(ts) == 1 for ts in groups.values())


def test_find_triples_skips_non_coalescible():
    env, gpu, handles, coalescer = _setup()
    queue = JobQueue(env)
    kernel = _kernel(coalescible=False)
    launch = LaunchConfig(grid_size=1, block_size=256, elements=256)
    queue.put(Job(vp="a", seq=0, kind=JobKind.KERNEL, completion=env.event(),
                  kernel=kernel, launch=launch))
    assert coalescer.find_triples(queue) == {}


def test_find_triples_never_recoalesces_merged():
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    merged = coalescer.coalesce_pass(queue)
    assert merged
    assert coalescer.find_triples(queue) == {}


# -- the incremental indexes against a full rescan ---------------------------------


def _scan_queue(jobs):
    """Per-VP heads and pending lists by one walk over the queue: the
    rescan the queue's incremental indexes replace, kept as their oracle."""
    heads, by_vp = {}, {}
    for job in jobs:
        by_vp.setdefault(job.vp, []).append(job)
        head = heads.get(job.vp)
        if head is None or job.seq < head.seq:
            heads[job.vp] = job
    return heads, by_vp


def _scan_triples(coalescer, jobs):
    """Every VP's head triple grouped by key, parsed from scratch: the
    rescan the coalescer's triple index replaces."""
    groups = {}
    _, by_vp = _scan_queue(jobs)
    for vp in sorted(by_vp):
        triple = coalescer._head_triple(by_vp[vp])
        if triple is None or triple.key is None:
            continue
        if triple.kernel.members or any(j.members for j in triple.jobs):
            continue
        device = coalescer.device_of(vp)
        groups.setdefault((*triple.key, device), []).append(triple)
    return groups


class _ListedQueue(JobQueue):
    """A queue that also keeps its jobs in one plain list, updated the way
    the queue once stored them (append, remove, merged job at the earliest
    member's slot): the oracle of the queue order ``jobs`` reports."""

    def __init__(self, env):
        super().__init__(env)
        self.listed = []

    def put(self, job):
        self.listed.append(job)
        super().put(job)

    def remove(self, job):
        super().remove(job)
        self.listed.remove(job)

    def replace(self, members, merged):
        super().replace(members, merged)
        at = min(self.listed.index(m) for m in members)
        for member in members:
            self.listed.remove(member)
        self.listed.insert(at, merged)


#: A VP's put cycles through this program, so triples form and grow.
_PROGRAM = (JobKind.COPY_H2D, JobKind.KERNEL, JobKind.COPY_D2H, JobKind.MALLOC)

_PUT = st.tuples(st.just("put"), st.integers(0, 3), st.booleans(),
                 st.sampled_from(("x", "x", "y", None)), st.integers(0, 3))
_OPS = st.one_of(
    _PUT, _PUT, _PUT,
    # A D2H put behind a VP's jobs (extends a triple that reaches the
    # end), and a dispatch of a VP's first pending job (a triple's head
    # H2D when it has one).
    st.tuples(st.just("put-d2h"), st.integers(0, 3)),
    st.tuples(st.just("dispatch"), st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("replace"), st.lists(st.integers(0, 63), min_size=1,
                                           max_size=4, unique=True),
              st.integers(0, 4)),
    st.tuples(st.just("coalesce"), st.sampled_from((0.0, 0.05, 3.0))),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, min_size=10, max_size=60))
def test_indexes_equal_a_full_rescan(ops):
    """After any sequence of puts, removes, replaces and real merges,
    ``queue.jobs`` is the queue order a plain list keeps, and the
    incremental indexes equal a from-scratch scan of it: heads (values
    and iteration order), pending lists, triple groups, and the memoised
    hold deadlines."""
    env, gpu, handles, coalescer = _setup(target_batch=3)
    coalescer.device_of = lambda vp: int(vp[-1]) // 3
    queue = _ListedQueue(env)
    launch = LaunchConfig(grid_size=2, block_size=256, elements=512)
    kernels = {sig: _kernel(sig) for sig in ("x", "y")}
    kernels[None] = _kernel("z", coalescible=False)
    seen = set()
    step = {}

    for op in ops:
        jobs = queue.jobs
        if op[0] == "put":
            # ``skip`` jumps a program stage; ``lag`` repeats or lowers
            # the seq, so heads by seq differ from queue order.
            _, vp_index, skip, signature, lag = op
            vp = f"vp{vp_index}"
            step[vp] = step.get(vp, -1) + 1 + skip
            kind = _PROGRAM[step[vp] % len(_PROGRAM)]
            fields = dict(vp=vp, seq=step[vp] - lag, kind=kind,
                          completion=env.event(), nbytes=4096, size=64)
            if kind is JobKind.KERNEL:
                fields.update(kernel=kernels[signature], launch=launch)
            queue.put(Job(**fields))
        elif op[0] == "put-d2h":
            vp = f"vp{op[1]}"
            step[vp] = step.get(vp, -1) + 1
            queue.put(Job(vp=vp, seq=step[vp], kind=JobKind.COPY_D2H,
                          completion=env.event(), nbytes=4096))
        elif op[0] == "dispatch":
            pending = queue.pending_for(f"vp{op[1]}")
            if pending:
                queue.remove(pending[0])
        elif op[0] == "remove" and jobs:
            queue.remove(jobs[op[1] % len(jobs)])
        elif op[0] == "replace" and jobs:
            members = list({id(j): j for j in (jobs[i % len(jobs)] for i in op[1])}
                           .values())
            # Into a fresh group VP, or into one that already has jobs.
            vp = f"vp{op[2]}" if op[2] < 4 else f"group{len(seen)}"
            merged = Job(vp=vp, seq=0, kind=JobKind.KERNEL,
                         completion=env.event(), kernel=kernels["x"],
                         launch=launch)
            merged.members = members
            queue.replace(members, merged)
        elif op[0] == "coalesce":
            if op[1]:
                env.run(until=env.now + op[1])
            coalescer.coalesce_pass(queue)

        jobs = queue.jobs
        assert jobs == queue.listed
        assert list(queue) == jobs and len(queue) == len(jobs)
        seen.update(job.vp for job in jobs)
        heads, by_vp = _scan_queue(jobs)
        assert list(queue.heads_per_vp().items()) == list(heads.items())
        for vp in seen:
            assert queue.pending_for(vp) == by_vp.get(vp, [])
        some = sorted(seen)[::2]
        assert queue.heads_of(some) == [
            job for vp, job in heads.items() if vp in some
        ]
        groups = _scan_triples(coalescer, jobs)
        assert coalescer.find_triples(queue) == groups
        group_of = {id(j): ts for ts in groups.values() for t in ts for j in t.jobs}
        for job in heads.values():
            triples = group_of.get(id(job))
            want = None
            if triples is not None:
                ready, deadline = coalescer._group_state(triples)
                want = None if ready else deadline
            assert coalescer.hold_deadline(queue, job) == want


def test_retouched_triple_keeps_sorted_vp_order():
    """Re-parsing one VP's triple keeps its group in sorted VP order."""
    env, gpu, handles, coalescer = _setup(target_batch=3)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp, with_d2h=False):
            queue.put(job)
    coalescer.find_triples(queue)
    queue.put(Job(vp="a", seq=2, kind=JobKind.COPY_D2H,
                  completion=env.event(), nbytes=4096))
    (triples,) = coalescer.find_triples(queue).values()
    assert [t.vp for t in triples] == ["a", "b"]
    assert [len(t.d2h) for t in triples] == [1, 0]


def test_hold_deadline_follows_a_group_change_at_one_instant():
    """The memoised group state is dropped when the group changes, even
    with the clock standing still."""
    env, gpu, handles, coalescer = _setup(target_batch=3)
    queue = JobQueue(env)
    firsts = []
    for vp in ("a", "b", "c"):
        jobs = _triple_jobs(env, vp, with_d2h=False)
        for job in jobs:
            queue.put(job)
        firsts.append(coalescer.hold_deadline(queue, jobs[0]))
    # Short of the goal the group waits out the hold window; at the goal
    # it waits only for the members' D2H copies to settle.
    window, settle = coalescer.hold_window_ms, coalescer.settle_ms
    assert firsts == [pytest.approx(window), pytest.approx(window),
                      pytest.approx(settle)]


# -- merging -----------------------------------------------------------------------


def test_merge_produces_single_triple():
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    merged = coalescer.coalesce_pass(queue)
    kinds = [j.kind for j in merged]
    assert kinds == [JobKind.COPY_H2D, JobKind.KERNEL, JobKind.COPY_D2H]
    assert len(queue) == 3


def test_merged_kernel_covers_both_launches():
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    merged = coalescer.coalesce_pass(queue)
    kernel_job = next(j for j in merged if j.is_kernel)
    assert kernel_job.launch.grid_size == 4  # 2 + 2
    assert kernel_job.launch.elements == 1024
    assert len(kernel_job.members) == 2


def test_merged_copies_sum_bytes():
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    merged = coalescer.coalesce_pass(queue)
    h2d = next(j for j in merged if j.kind is JobKind.COPY_H2D)
    assert h2d.nbytes == 8192


def test_large_copies_stay_individual():
    """Copies above the merge limit keep pipelining; the merged kernel
    depends on them instead."""
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    big = coalescer.copy_merge_limit_bytes * 2
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp, nbytes=big):
            queue.put(job)
    merged = coalescer.coalesce_pass(queue)
    kinds = [j.kind for j in merged]
    assert kinds == [JobKind.KERNEL]
    kernel_job = merged[0]
    assert len(kernel_job.depends_on) == 2
    # The individual copies are still queued.
    copies = [j for j in queue if j.is_copy]
    assert len(copies) == 4


def test_merge_sets_barriers_for_members():
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    merged = coalescer.coalesce_pass(queue)
    final = merged[-1]
    assert queue.barred("a", seq=10)
    assert queue.barred("b", seq=10)
    final.completion.succeed()
    env.run()
    assert not queue.barred("a", seq=10)


def test_merge_respects_max_batch():
    env, gpu, handles, coalescer = _setup(target_batch=4, max_batch=2)
    queue = JobQueue(env)
    for vp in ("a", "b", "c", "d"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    coalescer.coalesce_pass(queue)
    assert coalescer.stats.merges == 2
    assert coalescer.stats.batch_sizes == [2, 2]


def test_merge_waits_for_goal_inside_window():
    env, gpu, handles, coalescer = _setup(target_batch=3)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    # Only 2 of 3 expected triples and the window is still open.
    assert coalescer.coalesce_pass(queue) == []
    assert coalescer.stats.merges == 0


def test_window_expiry_merges_partial_group():
    env, gpu, handles, coalescer = _setup(target_batch=3, hold_window_ms=1.0)
    queue = JobQueue(env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)

    def later():
        yield env.timeout(2.0)
        return coalescer.coalesce_pass(queue)

    merged = env.run(env.process(later()))
    assert merged
    assert coalescer.stats.batch_sizes == [2]


def test_relayout_binds_members_contiguously():
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    buffers = {}
    for vp in ("a", "b"):
        jobs = _triple_jobs(env, vp)
        in_h = handles.new_handle(vp)
        out_h = handles.new_handle(vp)
        handles.bind(in_h, gpu.malloc(4096, owner=vp))
        handles.bind(out_h, gpu.malloc(4096, owner=vp))
        jobs[1].arg_handles = (in_h,)
        jobs[1].out_handle = out_h
        buffers[vp] = (in_h, out_h)
        for job in jobs:
            queue.put(job)
    coalescer.coalesce_pass(queue)
    rebound = [handles.buffer(h) for vp in ("a", "b") for h in buffers[vp]]
    assert gpu.memory.are_contiguous(rebound)


def _bound_pair(env, gpu, handles, queue):
    """Two VPs' triples, each kernel reading and writing a bound buffer."""
    buffers = []
    for vp in ("a", "b"):
        jobs = _triple_jobs(env, vp)
        in_h, out_h = handles.new_handle(vp), handles.new_handle(vp)
        for handle in (in_h, out_h):
            handles.bind(handle, gpu.malloc(4096, owner=vp))
            buffers.append(handles.buffer(handle))
        jobs[1].arg_handles = (in_h,)
        jobs[1].out_handle = out_h
        for job in jobs:
            queue.put(job)
    return buffers


def test_relayout_moves_buffers_in_place():
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    buffers = _bound_pair(env, gpu, handles, queue)
    tokens = [b.backend_token for b in buffers]
    coalescer.coalesce_pass(queue)
    # Same buffer objects and backend tokens, now one region owned by
    # the group; the old ranges are free again.
    assert [b.backend_token for b in buffers] == tokens
    assert [b.address for b in buffers] == [4 * 4096 + i * 4096 for i in range(4)]
    assert {b.owner for b in buffers} == {"coalesced#1"}
    assert gpu.memory._free_gaps[0] == (0, 4 * 4096)


def test_relayout_on_a_fragmented_device_keeps_the_layout():
    """No gap holds the merged region: the merge goes ahead over the
    buffers where they are."""
    from repro.gpu import DeviceMemoryAllocator

    env, gpu, handles, coalescer = _setup(target_batch=2)
    gpu.memory = DeviceMemoryAllocator(5 * 4096, backend=gpu.backend)
    queue = JobQueue(env)
    buffers = _bound_pair(env, gpu, handles, queue)
    merged = coalescer.coalesce_pass(queue)
    assert coalescer.stats.merges == 1
    assert any(job.is_kernel and job.members for job in merged)
    assert [b.address for b in buffers] == [i * 4096 for i in range(4)]
    assert [b.owner for b in buffers] == ["a", "a", "b", "b"]


def test_relayout_lets_a_non_oom_error_propagate(monkeypatch):
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    _bound_pair(env, gpu, handles, queue)

    def broken(buffers, owner=""):
        raise RuntimeError("allocator bug")

    monkeypatch.setattr(gpu.memory, "relocate", broken)
    with pytest.raises(RuntimeError, match="allocator bug"):
        coalescer.coalesce_pass(queue)


def test_fragmented_device_run_completes_with_per_vp_outputs():
    """A functional run whose device is too fragmented for any merge
    region keeps every layout, still merges, and each VP's output equals
    the uncoalesced per-VP reference."""
    import numpy as np

    from repro.core.framework import SigmaVP
    from repro.core.scenarios import run_sigma_vp
    from repro.gpu import DeviceMemoryAllocator, OutOfDeviceMemory
    from repro.workloads import get_workload

    spec = get_workload("vectorAdd").scaled_to(4096)
    refused = []

    class Fragmented(DeviceMemoryAllocator):
        def relocate(self, buffers, owner=""):
            before = [b.address for b in buffers]
            try:
                super().relocate(buffers, owner)
            except OutOfDeviceMemory:
                refused.append([b.address for b in buffers] == before)
                raise

    framework = SigmaVP(n_vps=3)
    # Three VPs' three 16 KiB buffers fill the device but for 16 KiB, so
    # no merge region (all nine buffers) fits.
    framework.gpu.memory = Fragmented(10 * 16384, backend=framework.backend)
    framework.run_workload(spec)
    outputs = [framework.session(name).processes[0].value
               for name in sorted(framework.sessions)]
    reference = run_sigma_vp(spec, n_vps=3, coalescing=False, functional=True)
    reference_outputs = [
        reference.extras["framework"].session(name).processes[0].value
        for name in sorted(reference.extras["framework"].sessions)
    ]
    assert framework.coalescer.stats.merges > 0
    assert refused and all(refused)
    assert len(refused) == framework.coalescer.stats.merges
    for got, want in zip(outputs, reference_outputs):
        np.testing.assert_equal(got, want)


def test_coalesced_fleet_asks_the_backend_only_for_guest_allocations():
    """A 64-VP coalesced run allocates and frees on the backend exactly
    once per guest malloc and free: relayouts move buffers, they do not
    re-allocate them."""
    from repro.core.framework import SigmaVP
    from repro.core.scenarios import NULL_REGISTRY
    from repro.workloads import get_workload
    from tests.backend_doubles import Counting

    framework = SigmaVP(n_vps=64, registry=NULL_REGISTRY, backend=Counting)
    kinds = {JobKind.MALLOC: 0, JobKind.FREE: 0}
    put = framework.queue.put

    def counted_put(job):
        if job.kind in kinds:
            kinds[job.kind] += 1
        put(job)

    framework.queue.put = counted_put
    framework.run_workload(get_workload("vectorAdd").scaled_to(4096))
    assert framework.coalescer.stats.merges > 0
    assert kinds[JobKind.MALLOC] == 64 * 3
    assert framework.backend.ledger_calls == {
        "allocate": kinds[JobKind.MALLOC], "free": kinds[JobKind.FREE],
    }


def test_min_batch_validation():
    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    with pytest.raises(ValueError):
        KernelCoalescer(env, gpu, HandleTable(), min_batch=1)
    with pytest.raises(ValueError):
        KernelCoalescer(env, gpu, HandleTable(), min_batch=4, max_batch=2)


def test_hold_deadline_for_incomplete_group():
    env, gpu, handles, coalescer = _setup(target_batch=3)
    queue = JobQueue(env)
    jobs = _triple_jobs(env, "a")
    for job in jobs:
        queue.put(job)
    deadline = coalescer.hold_deadline(queue, jobs[1])
    assert deadline == pytest.approx(coalescer.hold_window_ms)


def test_hold_deadline_none_for_unrelated_job():
    env, gpu, handles, coalescer = _setup()
    queue = JobQueue(env)
    stray = Job(vp="z", seq=0, kind=JobKind.MALLOC, completion=env.event(), size=8)
    queue.put(stray)
    assert coalescer.hold_deadline(queue, stray) is None


# -- in-flight member transfers --------------------------------------------------


def test_merged_kernel_waits_for_inflight_h2d():
    """A member whose H2D is already on a copy engine has no queued copy
    left, so the merged kernel needs an explicit dependency on it."""
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    a_jobs = _triple_jobs(env, "a")
    inflight_h2d = a_jobs.pop(0)  # dispatched: never enters the queue
    for job in a_jobs:
        queue.put(job)
    for job in _triple_jobs(env, "b"):
        queue.put(job)
    coalescer.inflight_of = lambda vp: inflight_h2d if vp == "a" else None
    merged = coalescer.coalesce_pass(queue)
    kernel_job = next(j for j in merged if j.is_kernel)
    assert inflight_h2d.completion in kernel_job.depends_on


def test_merged_kernel_ignores_inflight_d2h():
    """An in-flight D2H reads buffers the relayout already snapshotted;
    depending on it would only serialize unrelated pipelining."""
    env, gpu, handles, coalescer = _setup(target_batch=2)
    queue = JobQueue(env)
    inflight_d2h = Job(vp="a", seq=99, kind=JobKind.COPY_D2H,
                       completion=env.event(), nbytes=4096)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    coalescer.inflight_of = lambda vp: inflight_d2h if vp == "a" else None
    merged = coalescer.coalesce_pass(queue)
    kernel_job = next(j for j in merged if j.is_kernel)
    assert inflight_d2h.completion not in (kernel_job.depends_on or [])


@pytest.mark.parametrize("n_vps", [2, 3, 4])
def test_functional_small_vp_counts_complete(n_vps):
    """Regression: with 2 VPs the merged kernel used to race a member's
    in-flight H2D and sweep unwritten buffers, crashing the functional
    payload sum with a ``None`` element."""
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    result = run_sigma_vp(
        get_workload("vectorAdd"), n_vps=n_vps, functional=True
    )
    assert result.total_ms > 0
    assert len(result.per_instance_ms) == n_vps


def test_functional_and_timing_totals_agree():
    """The functional registry must not perturb simulated time."""
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    timing = run_sigma_vp(get_workload("vectorAdd"), n_vps=2)
    functional = run_sigma_vp(
        get_workload("vectorAdd"), n_vps=2, functional=True
    )
    assert functional.total_ms == pytest.approx(timing.total_ms)


#: The functional apps the ``functional-batched`` benchmark workload draws.
FUNCTIONAL_APPS = (
    "vectorAdd", "BlackScholes", "matrixMul", "MonteCarlo", "mergeSort",
    "reduction", "scalarProd", "histogram", "physxParticles", "simpleGL",
)

#: Apps whose coalescible kernels never find a merge partner.
NEVER_MERGE = {"MonteCarlo"}


@pytest.mark.parametrize(
    "app,n_vps,scale_elements,transport",
    [
        (app, n_vps, 4096, "socket")
        for app in FUNCTIONAL_APPS
        for n_vps in (2, 5, 8)
    ]
    # Regression: a second-iteration merged kernel must wait for the
    # first merge's group H2D copy of its members' inputs.  With the shm
    # transport that copy was still queued when the next merge formed,
    # and the merged kernel swept unwritten (``None``) input buffers.
    + [("BlackScholes", 8, 65536, "shm")],
)
def test_coalesced_outputs_match_uncoalesced_across_iterations(
    app, n_vps, scale_elements, transport
):
    """Every VP's functional output under coalescing equals its output
    from a run that never merges (the per-VP reference)."""
    import numpy as np

    from repro.core.ipc import resolve_transport
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    spec = get_workload(app).scaled_to(scale_elements, iterations=2)

    def run(coalescing):
        result = run_sigma_vp(
            spec, n_vps=n_vps, coalescing=coalescing, functional=True,
            transport=resolve_transport(transport), max_batch=8,
        )
        framework = result.extras["framework"]
        outputs = [
            [process.value for process in framework.session(name).processes]
            for name in sorted(framework.sessions)
        ]
        return framework, outputs

    framework, coalesced = run(True)
    _, reference = run(False)
    if app not in NEVER_MERGE:
        assert framework.coalescer.stats.merges > 0
    assert len(coalesced) == len(reference) == n_vps
    for got, want in zip(coalesced, reference):
        np.testing.assert_equal(got, want)


#: sha256 of the four VPs' output bytes (VP order) for the apps whose
#: every op is integer or exactly rounded (a float32 add), so any host
#: gives the same bytes.
EXACT_OUTPUT_PINS = {
    "vectorAdd": "02643dc9978ceacc28b3005e953a71cff70fbacb83ae1730f1172cf82dc3ea35",
    "mergeSort": "1e22d2510dc42f8024ed6a5fb1ae7df8a0c7f3b625d73df380598a24537ca328",
    "histogram": "a5dc09fb6288a38c2eeac7b7d0313da663ede0a1f78b99bb9817bc3b0a94c144",
}

#: Each VP's output L2 norm for the apps whose values depend on numpy's
#: SIMD transcendentals (exp, log, sin, cos, sqrt), on BLAS (matrixMul)
#: or on a SIMD summation order (reduction, scalarProd, the norm
#: itself): a few ulps may differ across hosts, so they are compared
#: with ``OUTPUT_NORM_RTOL``.
OUTPUT_NORM_PINS = {
    "BlackScholes": (387.46764, 385.615045, 367.973488, 375.190651),
    "MonteCarlo": (1391.740648, 1591.79438, 1490.637739, 1497.554872),
    "simpleGL": (38.629604, 38.755986, 38.85662, 39.016299),
    "matrixMul": (1902.070823, 1911.981517, 1905.538908, 1913.887249),
    "physxParticles": (90.357529, 90.631024, 91.029039, 90.958982),
    "reduction": (30.604713, 37.748981, 22.318729, 59.442356),
    "scalarProd": (23.156006, 21.942186, 21.043529, 19.890963),
}
OUTPUT_NORM_RTOL = 1e-5


@pytest.mark.parametrize("backend_name", ["numpy", "recording"])
@pytest.mark.parametrize("app", FUNCTIONAL_APPS)
def test_pinned_functional_outputs(app, backend_name):
    """Four coalesced VPs, two iterations, 4096 elements: each VP's
    output values are pinned, on the default backend and the injected
    double.  No scenario digest sees a value, so these pins are what
    catches a changed input draw or kernel."""
    import hashlib

    import numpy as np

    from repro.backend import NumpyBackend
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload
    from tests.backend_doubles import Recording

    backend = {"numpy": NumpyBackend, "recording": Recording}[backend_name]
    spec = get_workload(app).scaled_to(4096, iterations=2)
    result = run_sigma_vp(spec, n_vps=4, coalescing=True, functional=True, backend=backend)
    framework = result.extras["framework"]
    outputs = [framework.session(name).processes[0].value for name in sorted(framework.sessions)]
    if app in EXACT_OUTPUT_PINS:
        digest = hashlib.sha256(b"".join(out.tobytes() for out in outputs)).hexdigest()
        assert digest == EXACT_OUTPUT_PINS[app]
    else:
        norms = [np.linalg.norm(out.astype(np.float64)) for out in outputs]
        np.testing.assert_allclose(norms, OUTPUT_NORM_PINS[app], rtol=OUTPUT_NORM_RTOL)
