"""The repro.sched refactor: digest preservation, names, constants, stages.

The tentpole guarantee of the scheduling refactor is that the default
pipeline (FIFO / interleaving select, round-robin placement) is
*bit-identical* to the pre-refactor dispatcher: the pinned digests below
were produced by the seed code before :mod:`repro.sched` existed, and
every scenario summary must still hash to exactly those values.
"""

import copy
import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.jobs import Job, JobKind
from repro.obs import metrics as obs_metrics
from repro.obs.export import canonical_json
from repro.sched import (
    EngineBacklog,
    FairSharePolicy,
    InterleavingPolicy,
    PriorityDeadlinePolicy,
    ShortestJobFirstPolicy,
    make_placement,
    make_policy,
)
from repro.sched import backlog as backlog_mod
from repro.sched.backlog import DRIFT_TOLERANCE_MS
from repro.sched.policies import SchedulingPolicy
from repro.sim import Environment


def _digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


# -- bit-identical digests against the pre-refactor seed ---------------------

#: (kwargs for scenario_summary, sha256 of the summary) pinned before the
#: repro.sched extraction.  A mismatch means the refactor changed
#: observable scheduling behaviour — that is a bug, not a new baseline.
PINNED_SCENARIOS = [
    (
        dict(app="vectorAdd", n_vps=4, interleaving=True, coalescing=True),
        "3cafbd3ca5eb54bf27aa1bc334e20828218647fbb3ec7f4e09a6c7b900e9d6a6",
    ),
    (
        dict(app="vectorAdd", n_vps=4, interleaving=False, coalescing=True),
        "ef6090c8c4e8b0591f5cf4abb9a1b3e1751b9df963281fc97d5bac96dbd1b00f",
    ),
    (
        dict(app="mergeSort", n_vps=4, interleaving=True, coalescing=False),
        "40eb3b93d4ad00c9b891bc39bd998447a6ea388430296b4a38bf06a2323bfec8",
    ),
    (
        dict(app="matrixMul", n_vps=3, interleaving=False, coalescing=False),
        "3cfc3a100ef001ffef2aa0697ad099399c1a355ddec1b1aa984a29ee8cbc13f1",
    ),
    # The two digests below were rebased when the coalescer gained the
    # in-flight-H2D dependency (a merged kernel no longer races a member
    # VP's input copy that is already on an engine; previously it could
    # start early and, in functional mode, sweep unwritten buffers).
    # Only scenarios where that race actually occurred shifted — the
    # other coalescing=True pins above are byte-identical.
    (
        dict(app="BlackScholes", n_vps=4, interleaving=True, coalescing=True,
             n_host_gpus=2),
        "dc564083dd146dd4563686efae25d57f21886ab8df9ae58e95e94a11d6a8ed7b",
    ),
    (
        dict(app="histogram", n_vps=2, interleaving=True, coalescing=True,
             functional=True),
        "2c87a50ff360ea26f224071e7be7df14dee03db185cc1a9161849c1437a04a65",
    ),
    # Two-GPU placement, coalescing off, and FIFO service at 5-12 VPs.
    (
        dict(app="vectorAdd", n_vps=8, n_host_gpus=2),
        "8b39bf1111d08bb6313b45b8051299877b8f2b07fa0b8009cfed094259f2aef3",
    ),
    (
        dict(app="BlackScholes", n_vps=12, n_host_gpus=2),
        "7c46d5cbe2ca1fe4c8763eaba52f0955e7fb46d77d4ef9e6b8b4cde240a5bf5a",
    ),
    (
        dict(app="mergeSort", n_vps=5, interleaving=False),
        "999f37c2f85cfe4a3802009db45d0ffcc5a57fb8ffbcd0db3ad275e5c94acb18",
    ),
    (
        dict(app="vectorAdd", n_vps=6, n_host_gpus=2, coalescing=False),
        "9f076d24c1518fd00372edd58aaa3329d80f14c8d3ffc3564130e267c9b077a4",
    ),
    # Many-VP two-GPU fleets, where the scheduler's per-decision scans
    # dominate (event-bound: inputs scaled down).
    (
        dict(app="vectorAdd", n_vps=48, n_host_gpus=2,
             scale_elements=1024, scale_iterations=24),
        "62d0b80910329d624efcb1d050a240ac4d690fdbadbf72b1bc41dfe73b89a13a",
    ),
    (
        dict(app="BlackScholes", n_vps=24, n_host_gpus=2,
             scale_elements=1024, scale_iterations=24),
        "34a735234bfb2912da5652d476875e016ccf51b64d43f3fefd1ff70a7be37023",
    ),
    # Coalesced two-GPU fleets under every policy x placement:
    # the hold/room checks and the coalescer's first-use device binds
    # all run on these paths.
    *(
        (
            dict(app="vectorAdd", n_vps=12, n_host_gpus=2, coalescing=True,
                 scale_elements=1024, scale_iterations=4,
                 policy=policy, placement=placement),
            digest,
        )
        for policy, placement, digest in (
            ("fifo", "round-robin",
             "f287fe44b9f22fc2f4f46d23e941b091d575d5a00ea56f689ca926cce199ea54"),
            ("fifo", "least-backlog",
             "9874453d1e03323b0a88df69eec0c4426752de9ed1ff1ee0efbce05fdc1c8ac9"),
            ("interleaving", "round-robin",
             "6e79f1f3a8402b81065250a67d8100954c3c174e3ac08826316a3a6f8a64ab23"),
            ("interleaving", "least-backlog",
             "440109cfb64495a9af46c13a9d4d89e6e66ea3ac38132a2ce0ae39aefaf6fc72"),
            ("sjf", "round-robin",
             "f71afd2eb5bca090cd72aef75b7ae3ab89af8f7446d682f507a5148cc10d3721"),
            ("sjf", "least-backlog",
             "379e498ca5efc00eba74f2917f5d35e3d0c062d95b4dbc51a1521b4890fae5b0"),
            ("fair-share", "round-robin",
             "387e410aca1b940c862998daf92ab1fc0c6aa71fac9892458a0e43cda221ba18"),
            ("fair-share", "least-backlog",
             "9cf394e82d41030be5820ecf885d235b923bd66bee51c1d16315145edfc1051a"),
            ("priority-deadline", "round-robin",
             "402621672c62c8ae312eb4ad70ef74c46a8364ea9505bf71e6084c313b730e51"),
            ("priority-deadline", "least-backlog",
             "0177ed3301b56ea0a933ee9a83d50830418d0cb2abb89b399ca2fba82cfac62b"),
        )
    ),
]

PINNED_PHASE = (
    dict(n_vps=4, t_kernel_ms=4.0, t_copy_ms=4.0, iterations=2),
    "51d4d2de334259d17f95f0e2050deb64d30516c21b4a6b4d9ed4d9fa234b6134",
)


@pytest.mark.parametrize("kwargs, expected", PINNED_SCENARIOS,
                         ids=lambda v: v if isinstance(v, str) else v["app"])
def test_default_pipeline_digest_bit_identical(kwargs, expected):
    from repro.api import scenario_summary

    assert _digest(scenario_summary(**kwargs)) == expected


def test_phase_point_digest_bit_identical():
    from repro.core.scenarios import phase_point

    kwargs, expected = PINNED_PHASE
    assert _digest(phase_point(**kwargs)) == expected


#: ``sched.*``/``dispatch.*`` obs counters, computed with the full-walk
#: decision.  No scenario digest covers them, and ``n_rejected``/``n_held``
#: are bookkeeping the pipeline keeps across a dispatch burst.
PINNED_COUNTERS = [
    *(
        (
            dict(app="vectorAdd", n_vps=12, n_host_gpus=2, coalescing=True,
                 scale_elements=1024, scale_iterations=4,
                 policy=policy, placement=placement),
            (309, 204, 50, 82, 31 if policy == "fair-share" else 0),
        )
        for policy in ("fifo", "interleaving", "sjf", "fair-share",
                       "priority-deadline")
        for placement in ("round-robin", "least-backlog")
    ),
    (
        dict(app="vectorAdd", n_vps=48, n_host_gpus=2,
             scale_elements=1024, scale_iterations=24),
        (8775, 5328, 340, 570, 92),
    ),
]

COUNTER_NAMES = (
    "sched.admission.rejected",
    "sched.hold.held",
    "sched.select.idle",
    "dispatch.decisions",
    "dispatch.reorders",
)


@pytest.mark.parametrize(
    "kwargs, expected", PINNED_COUNTERS,
    ids=[f"{kw.get('policy', 'default')}-{kw.get('placement', 'round-robin')}"
         f"-{kw['n_vps']}vp" for kw, _ in PINNED_COUNTERS],
)
def test_sched_counters_pinned(kwargs, expected):
    from repro.api import scenario_summary

    registry = obs_metrics.enable()
    try:
        scenario_summary(**kwargs)
    finally:
        obs_metrics.disable()
    counts = tuple(registry.counter(name).value for name in COUNTER_NAMES)
    assert counts == expected


# -- incremental decisions: bursts at one instant ---------------------------


def _same_instant_fleet(n_vps):
    """A fleet whose events pile up at shared instants.

    Host calls cost nothing and event records are zero-time, so many
    events fire at one simulated instant and a dispatch burst can start
    at a time the previous burst already saw.
    """
    from repro.core.dispatcher import JobDispatcher
    from repro.core.handles import HandleTable
    from repro.core.ipc import SHARED_MEMORY, IPCManager
    from repro.core.jobs import JobQueue
    from repro.gpu import QUADRO_4000, HostGPU
    from repro.kernels import LaunchConfig, MemoryFootprint, uniform_kernel
    from repro.kernels.functional import FunctionalRegistry
    from repro.vp import CudaRuntime, SigmaVPBackend, VirtualPlatform

    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    queue = JobQueue(env)
    handles = HandleTable()
    ipc = IPCManager(env, queue, transport=SHARED_MEMORY)
    dispatcher = JobDispatcher(
        env, gpu, queue, handles, policy=InterleavingPolicy(),
        registry=FunctionalRegistry(),
    )
    kernel = uniform_kernel(
        "burst", {"fp32": 8, "load": 1, "store": 1},
        MemoryFootprint(bytes_in=4096, bytes_out=4096, working_set_bytes=4096),
    )

    def app(api):
        def run():
            handle = yield from api.malloc(4096)
            data = np.zeros(1024, dtype=np.float32)
            done = None
            for i in range(3):
                start = yield from api.event_create()
                yield from api.event_record(start)
                yield from api.memcpy_h2d(handle, data, sync=False)
                launch = LaunchConfig(grid_size=8 + i, block_size=256,
                                      elements=1024)
                yield from api.launch_kernel(kernel, launch, args=[handle],
                                             out=handle, sync=False)
                done = yield from api.event_create()
                yield from api.event_record(done)
            yield from api.free(handle)
            yield from api.event_synchronize(done)
        return run

    processes = []
    for index in range(n_vps):
        vp = VirtualPlatform(env, f"vp{index}")
        api = CudaRuntime(SigmaVPBackend(env, vp, ipc, handles))
        processes.append(vp.run_app(app(api)))
    with patch.object(backlog_mod, "HOST_CALL_MS", 0.0):
        env.run(env.all_of(processes))
    return env, dispatcher.completed_log, [gpu]


def _same_instant_log(n_vps):
    _, completed, _ = _same_instant_fleet(n_vps)
    return [
        [job.vp, job.seq, job.kind.name, job.dispatched_at_ms,
         job.completed_at_ms]
        for job in completed
    ]


@pytest.mark.parametrize("n_vps, expected", [
    (4, "37602b884ae727843de13364f207c2c6e38dd3452010ee8dc717d44438542948"),
    (8, "68c0b7aaa42517023baa785e4040979da07dcdfbf7b9eb3f7c1a57d4f5c646cd"),
])
def test_same_instant_bursts_keep_the_completed_log(n_vps, expected):
    """A burst is bounded by processed events, not by the clock.

    Many events share one instant here; a decision memo that outlived an
    event because the clock did not move would miss a freed stream and
    stall the fleet.
    """
    log = _same_instant_log(n_vps)
    assert len(log) == 14 * n_vps
    assert _digest(log) == expected


# -- the event loop: same-instant tie order and the event budget -----------


def _tie_digest(completed, gpus):
    """sha256 of the completed log and every engine timeline.

    Times enter as ``repr`` so that a tie that fires in another order,
    or a float summed in another order, moves the digest.
    """
    digest = hashlib.sha256()
    for job in completed:
        digest.update(repr((
            job.vp, job.seq, job.kind.name, job.device,
            job.dispatched_at_ms, job.completed_at_ms,
        )).encode())
    for gpu in gpus:
        for engine in (gpu.h2d_engine, gpu.compute_engine, gpu.d2h_engine):
            for entry in engine.timeline:
                digest.update(
                    repr((entry.label, entry.start_ms, entry.end_ms)).encode()
                )
    return digest.hexdigest()


def _sigma_vp_run(**fields):
    from repro.api import RunRequest, scenario

    framework = scenario(RunRequest(**fields)).extras["framework"]
    return framework.env, framework.dispatcher.completed_log, framework.gpus


def _native_table1_run():
    """Table 1's native route: matrixMul on the host GPU's streams."""
    from repro.core.scenarios import NULL_REGISTRY
    from repro.gpu import QUADRO_4000, HostGPU
    from repro.vp import CudaRuntime, VirtualPlatform
    from repro.vp.cpu import HOST_XEON
    from repro.vp.cuda_runtime import NativeGPUBackend
    from repro.workloads import get_workload
    from repro.workloads.base import build_app

    env = Environment()
    gpu = HostGPU(env, QUADRO_4000)
    host = VirtualPlatform(env, "host", cpu=HOST_XEON)
    runtime = CudaRuntime(NativeGPUBackend(env, gpu, host, registry=NULL_REGISTRY))
    env.run(host.run_app(build_app(get_workload("matrixMul"), runtime)))
    return env, [], [gpu]


#: (scenario, tie-order digest, ``Environment.steps``).  The digests were
#: computed before dispatched jobs, engines and streams became callback
#: chains and a guest call became one heap entry; they must never move.
#: The step counts are the event budget after job completions that no
#: waiter claims stopped entering the heap (``Event.succeed_lazily``);
#: the counts before that change, before the Job Dispatcher became a
#: callback chain, and before the first change are in the comments.  An
#: event that creeps back fails here.
TIE_ORDER_RUNS = {
    "serial-vectorAdd-48x2": (
        lambda: _sigma_vp_run(app="vectorAdd", n_vps=48, n_host_gpus=2,
                              interleaving=False),
        "7f9c4e34d85b71001b5815e51a1e2bacc3c992daf4a83bb70b1f6a38f504ab36",
        7458,  # 9260 before lazy completions; was 12192, and 15200 before that
    ),
    "coalesced-fleet-64": (
        lambda: _sigma_vp_run(app="vectorAdd", n_vps=64,
                              scale_elements=4096, scale_iterations=4),
        "bce6b06ad557216cc72067d713363295ec471c81b3dcbe24b78dca964d0f697f",
        4878,  # 6038 before lazy completions; was 7656, and 10375 before that
    ),
    "interleave-4gpu-shm": (
        lambda: _sigma_vp_run(app="vectorAdd", n_vps=16, n_host_gpus=4,
                              coalescing=False, transport="shm"),
        "da9f420643cbad37f1d7452b2f5f7632e202a32a65cf4a6de3356b3c4d3b0132",
        2534,  # 3078 before lazy completions; was 4074, and 5718 before that
    ),
    "zero-cost-same-instant-8": (
        lambda: _same_instant_fleet(8),
        "8337401ea1f26337debcf7e5f593117d0a75e7ede14f7baa9e9c834135a17e6f",
        578,  # 682 before lazy completions; was 834, and 1109 before that
    ),
    "native-table1-matrixMul": (
        _native_table1_run,
        "00a5cd37edb054e4d7fe78202f500fddef6e21664952982ba8b779b9d14fd1b1",
        1823,  # was 2433 (the dispatcher is not on this route)
    ),
}


@pytest.mark.parametrize("name", sorted(TIE_ORDER_RUNS))
def test_event_loop_keeps_tie_order_within_its_event_budget(name):
    """Same-instant ties fire in the pinned order, with the pinned number
    of processed events."""
    run, expected_digest, expected_steps = TIE_ORDER_RUNS[name]
    env, completed, gpus = run()
    assert _tie_digest(completed, gpus) == expected_digest
    assert env.steps == expected_steps


# -- incremental decisions: the full walk as the oracle ---------------------


def _reference_walk(pipeline, queue, inflight):
    """The full-walk decision: every head, every check, in head order.

    This is the pipeline's pre-incremental ``decide`` body (without the
    pick): returns the candidates in head order, each held VP's
    deadline, and the rejected count.
    """
    candidates = []
    deadlines = {}
    rejected = 0
    room = {}
    for job in queue.heads_per_vp().values():
        if not pipeline.admission.eligible(job, queue, inflight):
            rejected += 1
            continue
        pipeline.placer.bind(job, pipeline.backlog)
        engine = (job.device, job.kind)
        if engine not in room:
            room[engine] = pipeline.admission.has_room(job)
        if not room[engine]:
            rejected += 1
            continue
        if pipeline.coalescer is not None:
            deadline = pipeline.coalescer.hold_deadline(queue, job)
            if deadline is not None:
                deadlines[job.vp] = deadline
                continue
        candidates.append(job)
    return candidates, deadlines, rejected


def _oracle_checked(pipeline, checks):
    """Wrap ``pipeline.decide`` to compare every decision to the oracle."""
    decide = pipeline.decide
    policy = pipeline.policy

    def checked(queue, inflight, now):
        # The reference pick runs on a copy of the policy as it was
        # before this decision (picks move policy state); the expected-
        # duration oracle is shared, not copied.
        oracle = policy._expected_ms
        memo = {} if oracle is None else {id(oracle): oracle}
        reference_policy = copy.deepcopy(policy, memo)
        decision = decide(queue, inflight, now)
        candidates, deadlines, rejected = _reference_walk(
            pipeline, queue, inflight
        )
        assert set(map(id, pipeline._candidates.jobs.values())) == set(
            map(id, candidates)
        )
        assert decision.n_candidates == len(candidates)
        assert pipeline._held == deadlines
        assert decision.n_held == len(deadlines)
        assert decision.hold_deadline == (
            min(deadlines.values()) if deadlines else None
        )
        assert decision.n_rejected == rejected
        assert decision.job is reference_policy.select(
            candidates, pipeline.backlog
        )
        checks.append(decision)
        return decision

    pipeline.decide = checked


def test_a_group_change_reexamines_every_member():
    """A held head is re-examined when its coalescing group changes, even
    if the queue did not touch the head's own VP."""
    from repro.core.jobs import JobQueue
    from repro.sched import FIFOPolicy, RoundRobinPlacement, SchedulerPipeline
    from tests.test_core_coalescing import _setup, _triple_jobs

    env, _gpu, _handles, coalescer = _setup(target_batch=3)
    queue = JobQueue(env)
    pipeline = SchedulerPipeline(FIFOPolicy(), RoundRobinPlacement(),
                                 EngineBacklog(), coalescer=coalescer)
    inflight = {}
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    first = pipeline.decide(queue, inflight, env.now)
    assert (first.n_held, first.n_candidates) == (2, 0)
    # At the same instant a third triple completes the group: every
    # member is ready now, not only the VP the queue touched.
    for job in _triple_jobs(env, "c"):
        queue.put(job)
    second = pipeline.decide(queue, inflight, env.now)
    assert (second.n_held, second.n_candidates) == (0, 3)
    candidates, deadlines, rejected = _reference_walk(pipeline, queue, inflight)
    assert (len(candidates), deadlines, rejected) == (3, {}, 0)


# -- incremental decisions: the status inputs carried across events --------
#
# A pipelined burst ends with no candidates, so the next decision keeps
# every rejected and held head's status and re-examines only the heads
# whose inputs an event changed.  One test per input: each fails when
# that input's invalidation is dropped.


def _tick(env, delay=0.0):
    """Process one event ``delay`` ms ahead: the next decision starts a
    new burst."""
    env.timeout(delay)
    env.step()


def _carrying_pipeline(coalescer=None, env=None):
    """A FIFO pipeline whose engine room the test sets per
    ``(device, kind)`` (missing: room)."""
    from repro.core.jobs import JobQueue
    from repro.sched import FIFOPolicy, RoundRobinPlacement, SchedulerPipeline

    env = env if env is not None else Environment()
    room = {}
    pipeline = SchedulerPipeline(
        FIFOPolicy(), RoundRobinPlacement(), EngineBacklog(),
        coalescer=coalescer,
        engine_has_room=lambda job: room.get((job.device, job.kind), True),
    )
    return env, JobQueue(env), room, pipeline


def _counts(decision):
    return decision.n_candidates, decision.n_held, decision.n_rejected


def _equals_full_walk(pipeline, queue, inflight, decision):
    candidates, deadlines, rejected = _reference_walk(pipeline, queue, inflight)
    return (
        _counts(decision) == (len(candidates), len(deadlines), rejected)
        and pipeline._held == deadlines
    )


def test_a_retire_reexamines_its_vps_head():
    env, queue, _room, pipeline = _carrying_pipeline()
    inflight = {"a": _job(env, vp="a", seq=0, kind=JobKind.MALLOC)}
    queue.put(_job(env, vp="a", seq=1, kind=JobKind.MALLOC))
    assert _counts(pipeline.decide(queue, inflight, env.now)) == (0, 0, 1)
    _tick(env)
    del inflight["a"]
    pipeline.freed("a")
    decision = pipeline.decide(queue, inflight, env.now)
    assert decision.job is queue.heads_per_vp()["a"]
    assert _equals_full_walk(pipeline, queue, inflight, decision)


def test_a_processed_barrier_reexamines_the_barred_head():
    env, queue, _room, pipeline = _carrying_pipeline()
    until = env.event()
    queue.set_barrier("a", until)
    queue.put(_job(env, vp="a", kind=JobKind.MALLOC))
    inflight = {}
    assert _counts(pipeline.decide(queue, inflight, env.now)) == (0, 0, 1)
    until.succeed()
    env.step()
    decision = pipeline.decide(queue, inflight, env.now)
    assert decision.job is not None
    assert _equals_full_walk(pipeline, queue, inflight, decision)


def test_a_processed_dependency_reexamines_the_waiting_head():
    env, queue, _room, pipeline = _carrying_pipeline()
    dep = env.event()
    job = _job(env, vp="a", kind=JobKind.MALLOC)
    job.depends_on = [dep]
    queue.put(job)
    inflight = {}
    assert _counts(pipeline.decide(queue, inflight, env.now)) == (0, 0, 1)
    dep.succeed()
    env.step()
    decision = pipeline.decide(queue, inflight, env.now)
    assert decision.job is job
    assert _equals_full_walk(pipeline, queue, inflight, decision)


def test_engine_room_that_frees_up_reexamines_a_room_rejected_head():
    env, queue, room, pipeline = _carrying_pipeline()
    room[(0, JobKind.KERNEL)] = False
    queue.put(_job(env, vp="a", kind=JobKind.KERNEL))
    inflight = {}
    assert _counts(pipeline.decide(queue, inflight, env.now)) == (0, 0, 1)
    room[(0, JobKind.KERNEL)] = True
    _tick(env)
    decision = pipeline.decide(queue, inflight, env.now)
    assert decision.job is not None
    assert _equals_full_walk(pipeline, queue, inflight, decision)


def test_engine_room_that_fills_up_reexamines_a_held_head():
    from tests.test_core_coalescing import _setup, _triple_jobs

    env, _gpu, _handles, coalescer = _setup(target_batch=3)
    env, queue, room, pipeline = _carrying_pipeline(coalescer, env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    inflight = {}
    assert _counts(pipeline.decide(queue, inflight, env.now)) == (0, 2, 0)
    room[(0, JobKind.COPY_H2D)] = False
    _tick(env)
    decision = pipeline.decide(queue, inflight, env.now)
    assert _counts(decision) == (0, 0, 2)
    assert decision.hold_deadline is None
    assert _equals_full_walk(pipeline, queue, inflight, decision)


def test_a_hold_deadline_the_clock_reaches_reexamines_the_held_heads():
    from tests.test_core_coalescing import _setup, _triple_jobs

    env, _gpu, _handles, coalescer = _setup(target_batch=3)
    env, queue, _room, pipeline = _carrying_pipeline(coalescer, env)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    inflight = {}
    first = pipeline.decide(queue, inflight, env.now)
    assert _counts(first) == (0, 2, 0)
    _tick(env, first.hold_deadline / 2)
    assert _counts(pipeline.decide(queue, inflight, env.now)) == (0, 2, 0)
    _tick(env, first.hold_deadline / 2)
    # The window expired with two of three: the group is ready as is.
    decision = pipeline.decide(queue, inflight, env.now)
    assert _counts(decision) == (2, 0, 0)
    assert _equals_full_walk(pipeline, queue, inflight, decision)


def _counting_passes(coalescer):
    """Record the clock at every coalesce pass that is not skipped."""
    passes = []
    full_pass = coalescer._coalesce_pass

    def counted(queue, groups):
        passes.append(coalescer.env.now)
        return full_pass(queue, groups)

    coalescer._coalesce_pass = counted
    return passes


def test_coalesce_pass_skips_until_a_group_changes():
    from repro.core.jobs import JobQueue
    from tests.test_core_coalescing import _setup, _triple_jobs

    env, _gpu, _handles, coalescer = _setup(target_batch=3)
    queue = JobQueue(env)
    passes = _counting_passes(coalescer)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    assert coalescer.coalesce_pass(queue) == []
    _tick(env, 1.0)
    assert coalescer.coalesce_pass(queue) == []
    assert passes == [0.0]
    groups = coalescer.find_triples(queue).values()
    assert not any(coalescer._group_state(group)[0] for group in groups)
    for job in _triple_jobs(env, "c"):
        queue.put(job)
    assert len(coalescer.coalesce_pass(queue)) == 3  # H2D, kernel, D2H
    assert passes == [0.0, 1.0]


def test_coalesce_pass_skips_until_the_clock_reaches_a_deadline():
    from repro.core.jobs import JobQueue
    from tests.test_core_coalescing import _setup, _triple_jobs

    env, _gpu, _handles, coalescer = _setup(target_batch=3)
    queue = JobQueue(env)
    passes = _counting_passes(coalescer)
    for vp in ("a", "b"):
        for job in _triple_jobs(env, vp):
            queue.put(job)
    assert coalescer.coalesce_pass(queue) == []
    _tick(env, coalescer.hold_window_ms / 2)
    assert coalescer.coalesce_pass(queue) == []
    _tick(env, coalescer.hold_window_ms / 2)
    assert len(coalescer.coalesce_pass(queue)) == 3
    assert passes == [0.0, coalescer.hold_window_ms]


# -- incremental decisions: benchmark-shaped runs against the oracle -------


def _benchmark_shaped_run(n_vps, **framework_kwargs):
    """A timing-only ``vectorAdd`` fleet shaped like ``bench/``'s, with
    every decision checked against the full walk.

    Returns the decisions, the coalesce passes skipped (each checked to
    leave no group ready) and the idle bursts that followed only retires
    of VPs with nothing queued (each checked to examine no head).
    """
    from repro.core import SigmaVP
    from repro.core.scenarios import NULL_REGISTRY
    from repro.workloads import get_workload

    framework = SigmaVP(registry=NULL_REGISTRY, n_vps=n_vps, **framework_kwargs)
    dispatcher = framework.dispatcher
    pipeline = dispatcher.pipeline
    queue = framework.queue
    coalescer = framework.coalescer
    decisions = []
    _oracle_checked(pipeline, decisions)

    skipped = []
    if coalescer is not None:
        passes = _counting_passes(coalescer)
        coalesce_pass = coalescer.coalesce_pass

        def checked_pass(queue_):
            before = len(passes)
            merged = coalesce_pass(queue_)
            if len(passes) == before:
                groups = coalescer.find_triples(queue_).values()
                assert not any(coalescer._group_state(g)[0] for g in groups)
                skipped.append(framework.env.now)
            return merged

        coalescer.coalesce_pass = checked_pass

    retired = []
    retire = dispatcher._retire

    def retiring(job, expected_ms):
        retired.append(job.vp)
        retire(job, expected_ms)

    dispatcher._retire = retiring
    queue_touched = queue.watch()
    examined = []
    examine = pipeline._examine

    def counting(heads, queue_, inflight):
        heads = list(heads)
        examined.extend(heads)
        examine(heads, queue_, inflight)

    pipeline._examine = counting
    marked = []
    catch_up = pipeline._catch_up

    def catching_up(queue_):
        before = set(pipeline._touched)
        catch_up(queue_)
        marked.extend(pipeline._touched - before)

    pipeline._catch_up = catching_up
    quiet_idle = []
    oracle_decide = pipeline.decide
    last = {"steps": -1, "candidates": 1}

    def decide(queue_, inflight, now):
        quiet = (
            framework.env.steps != last["steps"]
            and last["candidates"] == 0
            and retired
            and not queue_touched
            and not any(queue.pending_for(vp) for vp in retired)
        )
        del examined[:], marked[:]
        decision = oracle_decide(queue_, inflight, now)
        if quiet and decision.job is None and not marked:
            assert examined == []
            quiet_idle.append(now)
        last["steps"] = framework.env.steps
        last["candidates"] = decision.n_candidates
        del retired[:]
        queue_touched.clear()
        return decision

    pipeline.decide = decide
    framework.run_workload(get_workload("vectorAdd").scaled_to(1024, iterations=1))
    assert len(queue) == 0
    return decisions, skipped, quiet_idle


def test_benchmark_shaped_coalesced_fleet_decisions_equal_the_full_walk():
    decisions, skipped, quiet_idle = _benchmark_shaped_run(32, max_batch=16)
    assert sum(d.job is not None for d in decisions) > 100
    assert skipped and quiet_idle


def test_benchmark_shaped_interleaved_fleet_decisions_equal_the_full_walk():
    decisions, skipped, quiet_idle = _benchmark_shaped_run(
        24, n_host_gpus=2, coalescing=False,
        policy="interleaving", placement="least-backlog",
    )
    assert sum(d.job is not None for d in decisions) > 100
    assert not skipped and quiet_idle


def test_benchmark_shaped_serial_decisions_equal_the_full_walk():
    decisions, skipped, _quiet_idle = _benchmark_shaped_run(8, interleaving=False)
    assert sum(d.job is not None for d in decisions) > 20
    assert skipped


def test_unkeyed_policies_see_candidates_in_head_order():
    """A policy that overrides ``select`` gets the candidates in
    ``heads_per_vp`` order on every decision of a burst."""
    from repro.core.jobs import JobQueue
    from repro.sched import RoundRobinPlacement, SchedulerPipeline

    class Recording(SchedulingPolicy):
        name = "recording"

        def __init__(self):
            self.seen = []

        def select(self, dispatchable, backlog):
            self.seen.append([job.vp for job in dispatchable])
            return dispatchable[0] if dispatchable else None

    env = Environment()
    queue = JobQueue(env)
    policy = Recording()
    assert not policy.keyed
    pipeline = SchedulerPipeline(policy, RoundRobinPlacement(), EngineBacklog())
    for seq in range(2):
        for vp in ("c", "a", "b"):
            queue.put(_job(env, vp=vp, seq=seq, kind=JobKind.MALLOC))
    inflight = {}
    for _ in range(3):
        choice = pipeline.decide(queue, inflight, env.now).job
        queue.remove(choice)
        inflight[choice.vp] = choice
    assert policy.seen == [["c", "a", "b"], ["a", "b"], ["b"]]


def _fleet_kernel():
    from repro.kernels import MemoryFootprint, uniform_kernel

    return uniform_kernel(
        "oracle-k",
        {"fp32": 4, "load": 2, "store": 1, "int": 2},
        MemoryFootprint(bytes_in=4096, bytes_out=4096, working_set_bytes=8192),
        signature="oracle-k",
    )


def _fleet_app(api, program):
    from repro.kernels import LaunchConfig

    def app():
        handle = yield from api.malloc(4096)
        out = yield from api.malloc(4096)
        data = np.zeros(1024, dtype=np.float32)
        kernel = _fleet_kernel()
        for op, sync in program:
            if op == "h2d":
                yield from api.memcpy_h2d(handle, data, sync=sync)
            elif op == "kernel":
                launch = LaunchConfig(grid_size=2, block_size=256,
                                      elements=512)
                yield from api.launch_kernel(kernel, launch, args=[handle],
                                             out=out, sync=sync)
            elif op == "d2h":
                yield from api.memcpy_d2h(out, nbytes=4096, sync=sync)
            elif op == "event":
                marker = yield from api.event_create()
                yield from api.event_record(marker)
            else:
                yield from api.cpu_work(1e4)
        yield from api.free(handle)
        yield from api.synchronize()

    return app


_oracle_program = st.lists(
    st.tuples(st.sampled_from(["h2d", "kernel", "d2h", "event", "cpu"]),
              st.booleans()),
    min_size=1, max_size=8,
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    policy=st.sampled_from(["fifo", "interleaving", "sjf", "fair-share",
                            "priority-deadline"]),
    placement=st.sampled_from(["round-robin", "least-backlog"]),
    coalescing=st.booleans(),
    n_host_gpus=st.integers(min_value=1, max_value=2),
    n_vps=st.integers(min_value=2, max_value=16),
    programs=st.lists(_oracle_program, min_size=1, max_size=3),
    host_call_ms=st.sampled_from([0.0, 0.002]),
)
def test_incremental_decisions_equal_the_full_walk(
    policy, placement, coalescing, n_host_gpus, n_vps, programs, host_call_ms
):
    """Every decision's candidates, holds, rejections and pick equal a
    from-scratch walk of the heads, across policies and placements."""
    from repro.core import SHARED_MEMORY, SigmaVP
    from repro.kernels.functional import FunctionalRegistry

    framework = SigmaVP(
        coalescing=coalescing,
        transport=SHARED_MEMORY,
        registry=FunctionalRegistry(),
        hold_window_ms=0.5,
        n_host_gpus=n_host_gpus,
        policy=policy,
        placement=placement,
    )
    checks = []
    _oracle_checked(framework.dispatcher.pipeline, checks)
    processes = []
    for index in range(n_vps):
        session = framework.add_vp()
        app = _fleet_app(session.runtime, programs[index % len(programs)])
        process = session.vp.run_app(app)
        session.processes.append(process)
        processes.append(process)
    with patch.object(backlog_mod, "HOST_CALL_MS", host_call_ms):
        framework.run_until(processes)
    assert len(framework.queue) == 0
    assert any(decision.job is not None for decision in checks)


def test_default_stages_keep_scenario_label():
    """Default policy/placement must not perturb labels (cache keys)."""
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    spec = get_workload("vectorAdd").scaled_to(1024, iterations=1)
    legacy = "sigma-vp(interleave=True, coalesce=True)"
    assert run_sigma_vp(spec, n_vps=2).scenario == legacy
    assert run_sigma_vp(spec, n_vps=2, placement="round-robin").scenario == legacy


def test_config_resolve_policy_and_default_stages():
    """A named policy, or a non-default placement, gives the long label
    naming both stages as built; an unnamed policy is resolved from the
    ``interleaving`` flag and an unnamed placement is round-robin."""
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    spec = get_workload("vectorAdd").scaled_to(1024, iterations=1)
    assert run_sigma_vp(spec, n_vps=2, policy="sjf").scenario == (
        "sigma-vp(interleave=True, coalesce=True, policy=sjf, "
        "placement=round-robin)"
    )
    assert run_sigma_vp(
        spec, n_vps=2, interleaving=False, placement="least-backlog"
    ).scenario == (
        "sigma-vp(interleave=False, coalesce=True, policy=fifo, "
        "placement=least-backlog)"
    )


# -- the host-side cost constants --------------------------------------------


def test_host_cost_constants():
    assert backlog_mod.HOST_CALL_MS == 0.002
    assert backlog_mod.PROFILING_OVERHEAD_MS == 0.15


def test_config_timing_overrides_change_the_simulation():
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    spec = get_workload("vectorAdd").scaled_to(4096, iterations=2)
    base = run_sigma_vp(spec, n_vps=2)
    with patch.object(backlog_mod, "HOST_CALL_MS", 5.0), \
            patch.object(backlog_mod, "PROFILING_OVERHEAD_MS", 10.0):
        slow = run_sigma_vp(spec, n_vps=2)
    assert slow.total_ms > base.total_ms


# -- backlog drift: the silent-drift satellite -------------------------------


def _job(env, vp="vp0", seq=0, kind=JobKind.KERNEL):
    return Job(vp=vp, seq=seq, kind=kind, completion=env.event())


def test_backlog_retire_mismatch_records_drift():
    env = Environment()
    backlog = EngineBacklog()
    job = _job(env)
    backlog.add(job, 5.0)
    backlog.retire(job, 3.0)  # engine finished, 2ms unaccounted
    assert backlog.drift_events == 1
    assert backlog.drift_ms == pytest.approx(2.0)
    # Totals snap to exactly zero anyway: no silent residue accumulates.
    assert backlog.quiesced


def test_backlog_drift_increments_obs_counter():
    registry = obs_metrics.enable()
    try:
        env = Environment()
        backlog = EngineBacklog()
        job = _job(env)
        backlog.add(job, 5.0)
        backlog.retire(job, 3.0)
        assert registry.counter("dispatch.backlog_drift").value == 1.0
    finally:
        obs_metrics.disable()


def test_backlog_sub_tolerance_residue_is_not_drift():
    env = Environment()
    backlog = EngineBacklog()
    job = _job(env)
    backlog.add(job, 1.0)
    backlog.retire(job, 1.0 - DRIFT_TOLERANCE_MS / 10)
    assert backlog.drift_events == 0
    assert backlog.quiesced


def test_backlogs_quiesce_to_exactly_zero_after_scenarios():
    """Regression for the silent backlog drift: exact zero, every run."""
    from repro.core.scenarios import run_sigma_vp
    from repro.workloads import get_workload

    for app, kwargs in [
        ("vectorAdd", dict(interleaving=True, coalescing=True)),
        ("mergeSort", dict(interleaving=True, coalescing=False)),
        ("matrixMul", dict(interleaving=False, coalescing=False)),
        ("BlackScholes", dict(interleaving=True, coalescing=True,
                              n_host_gpus=2)),
    ]:
        spec = get_workload(app).scaled_to(2048, iterations=1)
        result = run_sigma_vp(spec, n_vps=3, **kwargs)
        backlog = result.extras["framework"].dispatcher.backlog
        assert backlog.quiesced, f"{app}: {backlog.per_engine!r}"
        assert all(v == 0.0 for v in backlog.per_engine.values())
        assert backlog.drift_events == 0


# -- name lookups ------------------------------------------------------------


def test_unknown_policy_and_placement_raise_with_known_names():
    with pytest.raises(ValueError, match="fifo"):
        make_policy("nope")
    with pytest.raises(ValueError, match="round-robin"):
        make_placement("nope")


# -- the new policies --------------------------------------------------------


def test_sjf_picks_cheapest_expected_job():
    env = Environment()
    policy = ShortestJobFirstPolicy()
    costly = _job(env, vp="vp0")
    cheap = _job(env, vp="vp1")
    policy.attach(lambda job: 9.0 if job is costly else 1.0)
    assert policy.select([costly, cheap], EngineBacklog()) is cheap


def test_fair_share_rotates_between_vps():
    env = Environment()
    policy = FairSharePolicy(quantum_ms=1.0)
    policy.attach(lambda job: 4.0)
    backlog = EngineBacklog()
    a0, a1 = _job(env, "vp0", 0), _job(env, "vp0", 1)
    b0 = _job(env, "vp1", 0)
    # Tie on credit: lowest job_id (vp0) wins and pays 4ms of credit...
    assert policy.select([a0, b0], backlog) is a0
    # ...so the next round goes to vp1 even though vp0 is ready again.
    assert policy.select([a1, b0], backlog) is b0


def test_fair_share_rejects_bad_quantum():
    with pytest.raises(ValueError):
        FairSharePolicy(quantum_ms=0.0)


def test_priority_deadline_prefers_tight_tier():
    env = Environment()
    # vp1's job is older (lower job_id) but rides the slack tier.
    late = _job(env, vp="vp1")
    urgent = _job(env, vp="vp0")
    policy = PriorityDeadlinePolicy(tiers={"vp0": 0, "vp1": 2})
    assert policy.select([late, urgent], EngineBacklog()) is urgent


def test_priority_deadline_rejects_empty_budgets():
    with pytest.raises(ValueError):
        PriorityDeadlinePolicy(budgets_ms=())


def test_least_backlog_placement_avoids_loaded_device():
    env = Environment()
    backlog = EngineBacklog()
    placement = make_placement("least-backlog")
    loaded = _job(env, vp="vp0")
    loaded.device = 0
    assert placement.device_for("vp0", 2, backlog) == 0
    backlog.add(loaded, 50.0)  # device 0 now has 50ms of compute queued
    assert placement.device_for("vp1", 2, backlog) == 1


# -- CLI ---------------------------------------------------------------------


def test_cli_policies_lists_registered_stages(capsys):
    from repro.cli import main

    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    for name in ("fifo", "interleaving", "sjf", "fair-share",
                 "priority-deadline", "round-robin", "least-backlog"):
        assert name in out


def test_cli_run_with_policy_and_placement(capsys):
    from repro.cli import main

    assert main([
        "run", "vectorAdd", "--vps", "2",
        "--policy", "sjf", "--placement", "least-backlog",
    ]) == 0
    out = capsys.readouterr().out
    assert "policy=sjf" in out
    assert "placement=least-backlog" in out
