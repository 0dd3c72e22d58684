"""The Job Dispatcher: executes Job Queue entries on the host GPU.

"The Job Dispatcher links the requests to the GPU driver library on the
host machine and invokes the physical GPU instructions based on the
requests in the Job Queue" (paper Section 2).

Two service disciplines are provided:

* :attr:`ServiceMode.SERIAL` — the unoptimized prototype: one request is
  served to completion before the next is fetched, in arrival order.
  This is the baseline against which Kernel Interleaving's Eq. (7)/(8)
  gains are defined (3N phases fully serialized).
* :attr:`ServiceMode.PIPELINED` — optimized multiplexing: jobs flow to
  the three hardware engines concurrently.  Engine queues are kept
  shallow (one op executing, at most one queued) so the scheduling
  policy re-decides at every slot — that is what lets a late-arriving
  D2H overtake queued H2Ds and form the interleaved schedule of Fig. 3b.

Per-VP partial order is preserved structurally: only each VP's earliest
pending job is dispatchable, and a VP never has two jobs in flight (the
stream-pump semantics of a per-VP CUDA stream).

Scheduling decisions themselves live in :mod:`repro.sched`: the
dispatcher is a thin engine-facing executor that consults a
:class:`~repro.sched.SchedulerPipeline` (admission → hold → select,
with placement) for *what* to run next and then runs it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..backend import ExecutionBackend, NumpyBackend
from ..gpu.device import HostGPU
from ..gpu.engines import Engine
from ..gpu.timing import ExecutionProfile
from ..kernels.functional import REGISTRY, FunctionalRegistry
from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from ..sched import backlog as _backlog
from ..sched.backlog import EngineBacklog, engine_role
from ..sched.pipeline import SchedulerPipeline
from ..sched.placement import PlacementStrategy, RoundRobinPlacement
from ..sched.policies import SchedulingPolicy
from ..sim import Environment, Event, Initialize, annotate
from .coalescing import KernelCoalescer
from .handles import HandleTable
from .jobs import Job, JobKind, JobQueue
from .profiler import Profiler

#: Kind names for engine-op labels, read per dispatched op.
_KIND_NAMES: Dict[JobKind, str] = {kind: kind.name for kind in JobKind}


class ServiceMode(enum.Enum):
    SERIAL = "serial"
    PIPELINED = "pipelined"


@dataclass
class DispatchStats:
    """Counters the experiments and tests read."""

    dispatched: Dict[JobKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in JobKind}
    )
    completed: int = 0


class JobDispatcher:
    """Pulls jobs from the queue and runs them on the host GPU."""

    def __init__(
        self,
        env: Environment,
        gpu: HostGPU,
        queue: JobQueue,
        handles: HandleTable,
        policy: SchedulingPolicy,
        mode: ServiceMode = ServiceMode.PIPELINED,
        coalescer: Optional[KernelCoalescer] = None,
        registry: FunctionalRegistry = REGISTRY,
        profiler: Optional[Profiler] = None,
        extra_gpus: Optional[List[HostGPU]] = None,
        placement: Optional[PlacementStrategy] = None,
        backend: Optional[ExecutionBackend] = None,
    ):
        self.env = env
        self.gpu = gpu
        #: All host GPUs this dispatcher multiplexes ("SigmaVP multiplexes
        #: the host GPUs", paper Section 2).  VPs get a device affinity
        #: via the placement strategy on their first request; their
        #: buffers and kernels stay on that device.
        self.gpus: List[HostGPU] = [gpu, *(extra_gpus or [])]
        self.queue = queue
        self.handles = handles
        self.policy = policy
        self.mode = mode
        self.coalescer = coalescer
        #: The execution backend every functional effect routes through
        #: (launches, H2D/D2H payload movement).
        self.backend = backend if backend is not None else NumpyBackend(registry)
        #: Whether a kernel can execute at all.  With an empty registry
        #: (a timing-only run) no launch could return a result, so H2D
        #: copies and kernels carry no functional effect; D2H copies
        #: still deliver to their sink.
        self._functional = len(self.backend.registry) > 0
        #: Each device's engine per job kind (host calls have none).
        self._engines: List[Dict[JobKind, Engine]] = [
            {
                JobKind.COPY_H2D: g.h2d_engine,
                JobKind.COPY_D2H: g.d2h_engine,
                JobKind.KERNEL: g.compute_engine,
            }
            for g in self.gpus
        ]
        self.profiler = profiler
        self.backlog = EngineBacklog()
        #: The dispatch pipeline this executor consults (admission →
        #: hold → select, with placement).
        self.pipeline = SchedulerPipeline(
            policy,
            placement if placement is not None else RoundRobinPlacement(),
            self.backlog,
            n_devices=len(self.gpus),
            coalescer=coalescer,
            engine_has_room=self._engine_has_room,
            expected_ms=self._expected_ms,
        )
        self.stats = DispatchStats()
        #: Every job this dispatcher completed, in completion order
        #: (members of merged jobs included) — the accounting source.
        self.completed_log: List[Job] = []
        self._inflight: Dict[str, Job] = {}
        if coalescer is not None:
            # The coalescer must see in-flight jobs: a merged kernel may
            # not sweep a member VP's buffers while that VP's copy is
            # still on an engine (its triple then has no queued H2D, so
            # queue-level ordering alone cannot protect it).
            coalescer.inflight_of = self.inflight_for
        #: Idle periods so far; idle with no wake scheduled yet; a poke
        #: of this idle period has scheduled its relay.
        self._generation = 0
        self._idle = False
        self._poked = False
        queue.on_put = self._poke
        # The first burst runs in the URGENT slot a process would start in.
        Initialize(env, self._loop)

    def __repr__(self) -> str:
        return (
            f"<JobDispatcher mode={self.mode.value} policy={self.policy.name} "
            f"inflight={len(self._inflight)}>"
        )

    # -- engine mapping ----------------------------------------------------

    def device_index_for(self, vp: str) -> int:
        """The device a VP is bound to (placement strategy, first use)."""
        return self.pipeline.placer.device_for(vp, self.backlog)

    def inflight_for(self, vp: str) -> Optional[Job]:
        """The job a VP currently has executing on an engine, if any."""
        return self._inflight.get(vp)

    def _engine_has_room(self, job: Job) -> bool:
        """Keep engine queues shallow so the policy re-decides per slot."""
        engine = self._engines[job.device].get(job.kind)
        if engine is None:
            return True
        return engine.queued == 0

    # -- main loop -------------------------------------------------------------

    def _loop(self, _: Event) -> None:
        """One dispatch burst: coalesce, decide and dispatch until the
        pipeline has nothing to run (serial mode: one job), then idle.

        The burst runs in the dispatcher's own event: its first
        ``Initialize``, a wake, or (serial mode) the event the finished
        job scheduled.  The jobs it dispatches start at its end, in
        dispatch order, so every decision of the burst reads the engine
        queues as they were when it began.
        """
        dispatched: List[Tuple[Job, float, Optional[ExecutionProfile]]] = []
        try:
            while True:
                if self.coalescer is not None:
                    self.coalescer.coalesce_pass(self.queue)

                decision = self.pipeline.decide(
                    self.queue, self._inflight, self.env.now
                )
                job = decision.job
                if job is None:
                    self._go_idle(decision.hold_deadline)
                    break

                self.queue.remove(job)
                expected, profile = self._timing(job)
                self.backlog.add(job, expected)
                self._inflight[job.vp] = job
                self.stats.dispatched[job.kind] += 1
                registry = _obs_metrics.REGISTRY
                if registry is not None:
                    registry.counter(f"dispatch.kind.{job.kind.name}").inc()
                    registry.histogram(
                        "jobqueue.depth_at_dispatch", _obs_metrics.DEPTH_BUCKETS
                    ).observe(len(self.queue))
                dispatched.append((job, expected, profile))
                if self.mode is ServiceMode.SERIAL:
                    break  # the job's finish runs the next burst
        except BaseException as exc:
            annotate(exc, "dispatcher:host/run", self.env.now)
            raise
        for job, expected, profile in dispatched:
            self._start(job, expected, profile)

    def _go_idle(self, hold_deadline: Optional[float]) -> None:
        """Wait for a poke, or for the earliest hold deadline."""
        self._generation += 1
        self._idle = True
        self._poked = False
        if hold_deadline is not None and hold_deadline > self.env.now:
            deadline = self.env.timeout(hold_deadline - self.env.now)
            assert deadline.callbacks is not None
            deadline.callbacks.append(partial(self._wake, self._generation))

    def _poke(self, *_: object) -> None:
        """Work may have become dispatchable (an arrival, a retired job).

        The first poke of an idle period schedules a relay event, and the
        relay the burst.  Two events, not one: their heap slots keep the
        same-instant tie order that ``tests/test_sched_pipeline.py`` pins.
        """
        if self._idle and not self._poked:
            self._poked = True
            self.env.call_soon(partial(self._wake, self._generation))

    def _wake(self, generation: int, _: Event) -> None:
        # A relay or deadline of an earlier idle period is stale.
        if self._idle and generation == self._generation:
            self._idle = False
            self.env.call_soon(self._loop)

    # -- job execution -------------------------------------------------------------

    def _timing(self, job: Job) -> Tuple[float, Optional[ExecutionProfile]]:
        """A job's expected duration and, for a kernel, the profile it
        runs with: one compile and one profile lookup per dispatch."""
        kind = job.kind
        if kind is JobKind.KERNEL:
            gpu = self.gpus[job.device]
            timing = gpu.timing
            profile = timing.execute(
                gpu.compiler.compile(job.kernel, gpu.arch), job.launch
            )
            return (
                _backlog.PROFILING_OVERHEAD_MS
                + (timing.arch.kernel_launch_overhead_ms + profile.time_ms),
                profile,
            )
        if kind is JobKind.EVENT:
            return 0.0, None
        if kind is JobKind.COPY_H2D or kind is JobKind.COPY_D2H:
            return self.gpus[job.device].arch.copy_time_ms(job.nbytes), None
        return _backlog.HOST_CALL_MS, None  # malloc / free

    def _expected_ms(self, job: Job) -> float:
        """The expected-duration oracle the scheduling policies rank by."""
        return self._timing(job)[0]

    def _start(
        self, job: Job, expected_ms: float, profile: Optional[ExecutionProfile]
    ) -> None:
        """Start ``job``: a host call's timeout, or an op on its engine.

        A timing-only dispatcher attaches no effect to H2D copies and
        kernels (see :attr:`_functional`)."""
        job.dispatched_at_ms = self.env.now
        kind = job.kind
        engine = self._engines[job.device].get(kind)
        try:
            if engine is None:
                # A record point (zero time) or a malloc/free host call.
                done = self.env.timeout(expected_ms)
            else:
                if kind is JobKind.COPY_D2H:
                    apply = self._apply_d2h(job)
                elif not self._functional:
                    apply = None
                elif kind is JobKind.KERNEL:
                    apply = self._apply_kernel(job)
                else:
                    apply = self._apply_h2d(job)
                if profile is not None and self.profiler is not None:
                    self.profiler.record(job, profile)  # kernels only
                done = self._run_on_engine(engine, job, expected_ms, apply)
        except BaseException as exc:
            self._fail(job, expected_ms, exc)
            return
        assert done.callbacks is not None
        done.callbacks.append(partial(self._finish, job, expected_ms))

    def _finish(self, job: Job, expected_ms: float, _: Event) -> None:
        """Complete ``job``; in serial mode, schedule the next burst."""
        kind = job.kind
        try:
            if kind is JobKind.EVENT:
                # A record point: deliver the stream timestamp.
                if job.sink is not None:
                    job.sink(self.env.now)
            elif kind is JobKind.COPY_H2D:
                self.gpus[job.device].bytes_copied_h2d += job.nbytes
            elif kind is JobKind.COPY_D2H:
                self.gpus[job.device].bytes_copied_d2h += job.nbytes
            elif kind is JobKind.MALLOC:
                buffer = self.gpus[job.device].malloc(job.size, owner=job.vp)
                self.handles.bind(job.handle, buffer)
            elif kind is JobKind.FREE:
                self.gpus[job.device].free(self.handles.release(job.handle))
        except BaseException as exc:
            self._fail(job, expected_ms, exc)
            return
        self._retire(job, expected_ms)
        self._complete(job)
        if self.mode is ServiceMode.SERIAL:
            self.env.call_soon(self._loop)

    def _retire(self, job: Job, expected_ms: float) -> None:
        self.backlog.retire(job, expected_ms)
        self._inflight.pop(job.vp, None)
        self.pipeline.freed(job.vp)
        self._poke()

    def _fail(self, job: Job, expected_ms: float, exc: BaseException) -> None:
        """Surface a failure to the requesting VP (e.g. device OOM),
        mirroring a CUDA error return; ``env.run()`` re-raises it from
        one more event, named after the job.  A serial dispatcher stops."""
        job.completion.fail(exc)
        self._retire(job, expected_ms)
        annotate(
            exc, f"gpu:{job.device}/execute({job.vp}#{job.seq})", self.env.now
        )
        self.env.event().fail(exc)

    def _run_on_engine(self, engine: Engine, job: Job, duration_ms: float, apply):
        metadata: dict = {"job_id": job.job_id}
        if _obs_trace.TRACER is not None:
            # Full identity only when a tracer will read it: the span
            # must name its vp / stream / kernel / job, but the disabled
            # path should not pay for packing the extra keys.
            metadata.update(
                vp=job.vp,
                seq=job.seq,
                kind=job.kind.name,
                role=engine_role(job).partition("@")[0],
                device=job.device,
                stream=f"{job.vp}/stream0",
            )
            if job.kernel is not None:
                metadata["kernel"] = job.kernel.name
            if job.is_copy:
                metadata["nbytes"] = job.nbytes
            if job.members:
                metadata["members"] = len(job.members)
                metadata["member_vps"] = ",".join(
                    sorted({m.vp for m in job.members})
                )
        op = engine.submit(
            f"{_KIND_NAMES[job.kind]}:{job.vp}#{job.seq}",
            duration_ms,
            apply,
            metadata,
        )
        return op.done

    def _complete(self, job: Job) -> None:
        job.completed_at_ms = self.env.now
        self.stats.completed += 1
        self.completed_log.append(job)
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            # Run-wide totals only; the per-VP breakdown is derived
            # from the completed log by ``repro.obs.account`` at
            # collection time.
            registry.counter("account.completed").inc()
            if job.members:
                registry.counter(
                    "account.coalesced_members"
                ).inc(len(job.members))
        for member in job.members:
            # Recursive: members may themselves be merged jobs.
            self._complete(member)
        job.completion.succeed_lazily(job)

    # -- functional effects -----------------------------------------------------------

    def _effective_members(self, job: Job) -> Sequence[Job]:
        return job.members if job.members else [job]

    def _apply_h2d(self, job: Job):
        def apply() -> None:
            for member in self._effective_members(job):
                if member.host_data is not None and member.handle is not None:
                    buffer = self.handles.buffer(member.handle)
                    # Zero-copy backends hand back a read-only view
                    # instead of a defensive copy: apps never mutate a
                    # submitted array in place (kernels rebind payloads,
                    # they do not write through), and the cleared
                    # writeable flag turns any future violation into a
                    # loud ValueError instead of a silent wrong result.
                    buffer.payload = self.backend.h2d(member.host_data)

        return apply

    def _apply_d2h(self, job: Job):
        def apply() -> None:
            for member in self._effective_members(job):
                if member.sink is not None and member.handle is not None:
                    member.sink(
                        self.backend.d2h(self.handles.buffer(member.handle).payload)
                    )

        return apply

    def _apply_kernel(self, job: Job):
        # A merged job's functional effect is one backend launch per
        # member: host-side bookkeeping that simulated timing never reads.
        def apply() -> None:
            for member in self._effective_members(job):
                if member.kernel is None or member.out_handle is None:
                    continue
                inputs = [
                    self.handles.buffer(h).payload for h in member.arg_handles
                ]
                result = self.backend.launch(
                    member.kernel.signature, inputs, member.params
                )
                if result is None:
                    continue
                self.handles.buffer(member.out_handle).payload = result

        return apply
