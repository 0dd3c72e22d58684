"""The dispatch pipeline: admission → hold → select, with placement.

One dispatch decision picks among the per-VP queue heads:

* :class:`AdmissionStage` — which heads are dispatchable *right now*:
  the VP has nothing in flight (stream-pump semantics of a per-VP CUDA
  stream), the head is not behind a coalescing barrier, its
  dependencies are processed, and its target engine has room (engine
  queues stay shallow so the policy re-decides at every slot);
* **hold** — Kernel Coalescing's window: the coalescer's
  ``hold_deadline`` keeps a coalescible head back until its group
  completes or the window expires (the dispatcher runs the merges
  themselves through ``coalesce_pass`` before each decision);
* **select** — the :class:`SchedulingPolicy` picking among the
  admitted candidates;
* :class:`PlacementStage` — the :class:`PlacementStrategy` binding each
  VP to a host GPU on first use, between the dependency and engine-room
  checks (sticky thereafter: a VP's buffers live on its device).

Decisions come in *bursts*: the dispatcher loops decide → dispatch
without yielding, so every decision of a burst runs between the same
two processed events (one value of :attr:`Environment.steps`).  Within
a burst:

* a head's status — rejected, held (with its deadline) or candidate —
  changes only when the queue touches its VP (:meth:`JobQueue.watch`)
  or the coalescer changes its group (``Coalescer.watch``).  Everything
  else it depends on — other VPs' in-flight slots, barriers,
  dependencies, engine room, the clock — moves only when an event is
  processed (the jobs a burst dispatches start after its last
  decision);
* engine room is asked once per ``(device, kind)``;
* a keyed policy's order keys stay put (the key contract of
  :class:`SchedulingPolicy`), so candidates stay sorted in a
  :class:`CandidateIndex`.

The first decision of a burst therefore walks every head, and each later
one re-examines only the VPs a change touched, in head order, so
first-use placement binds happen in the order a full walk makes them.
``tests/test_sched_pipeline.py`` keeps the full walk as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Protocol, Set, Tuple

from ..core.jobs import Job, JobKind, JobQueue
from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from .backlog import EngineBacklog
from .placement import PlacementStrategy
from .policies import CandidateIndex, ExpectedMs, SchedulingPolicy


class Coalescer(Protocol):
    """The group-index surface the hold stage needs (duck-typed to
    :class:`repro.core.coalescing.KernelCoalescer`)."""

    def find_triples(self, queue: JobQueue) -> object: ...

    def hold_deadline(self, queue: JobQueue, job: Job) -> Optional[float]: ...

    def watch(self) -> Set[str]: ...


@dataclass(frozen=True)
class Decision:
    """Outcome of one pipeline pass over the queue heads."""

    #: The job to dispatch, or ``None`` to idle.
    job: Optional[Job]
    #: Earliest coalescing hold deadline when heads are being held.
    hold_deadline: Optional[float]
    #: Candidates the select stage chose among.
    n_candidates: int = 0
    #: Heads held back by the coalescing window this pass.
    n_held: int = 0
    #: Heads rejected by admission (in flight / barred / deps / engine).
    n_rejected: int = 0


class AdmissionStage:
    """Filters per-VP heads down to the currently dispatchable ones."""

    def __init__(self, engine_has_room: Callable[[Job], bool]) -> None:
        self._engine_has_room = engine_has_room

    def eligible(
        self, job: Job, queue: JobQueue, inflight: Mapping[str, Job]
    ) -> bool:
        """Pre-placement checks: stream free, not barred, deps met."""
        if job.vp in inflight:
            return False
        if queue.barred(job.vp, job.seq):
            return False
        if job.depends_on and any(not dep.processed for dep in job.depends_on):
            return False
        return True

    def has_room(self, job: Job) -> bool:
        """Post-placement check: the bound device's engine has room.

        A function of the job's ``(device, kind)`` only, and it changes
        only when an event is processed: a burst asks once per engine.
        """
        return self._engine_has_room(job)


class PlacementStage:
    """Binds jobs to host GPUs through the placement strategy."""

    def __init__(self, strategy: PlacementStrategy, n_devices: int) -> None:
        self.strategy = strategy
        self.n_devices = n_devices
        #: First-use VP->device binds made (``sched.place.binds`` counter).
        self.binds = 0

    def device_for(self, vp: str, backlog: EngineBacklog) -> int:
        return self.strategy.device_for(vp, self.n_devices, backlog)

    def bind(self, job: Job, backlog: EngineBacklog) -> None:
        fresh = not job.members and job.vp not in self.strategy._assigned
        self.strategy.bind(job, self.n_devices, backlog)
        if fresh:
            self.binds += 1
            registry = _obs_metrics.REGISTRY
            if registry is not None:
                registry.counter("sched.place.binds").inc()


class SchedulerPipeline:
    """Admission, hold, select and placement for each dispatch decision."""

    def __init__(
        self,
        policy: SchedulingPolicy,
        placement: PlacementStrategy,
        backlog: EngineBacklog,
        *,
        n_devices: int = 1,
        coalescer: Optional[Coalescer] = None,
        engine_has_room: Callable[[Job], bool] = lambda job: True,
        expected_ms: Optional[ExpectedMs] = None,
    ) -> None:
        self.backlog = backlog
        self.policy = policy
        self.coalescer = coalescer
        self.admission = AdmissionStage(engine_has_room)
        self.placer = PlacementStage(placement, n_devices)
        if expected_ms is not None:
            policy.attach(expected_ms)
        # The burst memo: what the previous decision found, valid while
        # the queue, the in-flight map and the event count stay put.
        self._burst: Tuple[Optional[JobQueue], Optional[Mapping[str, Job]], int] = (
            None, None, -1,
        )
        self._touched: Set[str] = set()
        self._group_touched: Set[str] = (
            coalescer.watch() if coalescer is not None else set()
        )
        self._rejected: Set[str] = set()
        self._held: Dict[str, float] = {}
        self._candidates = CandidateIndex(policy)
        self._room: Dict[Tuple[int, JobKind], bool] = {}

    @property
    def placement(self) -> PlacementStrategy:
        return self.placer.strategy

    def decide(
        self, queue: JobQueue, inflight: Mapping[str, Job], now: float
    ) -> Decision:
        """One decision: admit heads, hold coalescibles, select, report.

        The first decision of a burst (a new ``queue.env.steps``, queue
        or in-flight map) walks every head in ``heads_per_vp`` order.  A
        later one re-examines only the VPs the queue touched or whose
        coalescing group changed since the previous decision, also in
        head order; every other head keeps its status.  Either way the
        candidates, held deadlines, rejected count and pick equal a full
        walk's.
        """
        with _obs_metrics.timed("sched.decide"):
            coalescer = self.coalescer
            if coalescer is not None:
                # Bring the group index up to date so its watch set holds
                # every group that changed since the previous decision.
                coalescer.find_triples(queue)
            burst = self._burst
            steps = queue.env.steps
            rejected = self._rejected
            held = self._held
            candidates = self._candidates
            if burst[0] is not queue or burst[1] is not inflight or burst[2] != steps:
                if burst[0] is not queue:
                    self._touched = queue.watch()
                self._burst = (queue, inflight, steps)
                self._touched.clear()
                self._group_touched.clear()
                self._room.clear()
                rejected.clear()
                held.clear()
                candidates.clear()
                heads: Iterable[Job] = queue.heads_per_vp().values()
            else:
                dirty = self._touched | self._group_touched
                self._touched.clear()
                self._group_touched.clear()
                for vp in dirty:
                    rejected.discard(vp)
                    held.pop(vp, None)
                    candidates.discard(vp)
                heads = queue.heads_of(dirty)
            self._examine(heads, queue, inflight)
            if candidates.keyed:
                choice = candidates.pick(self.backlog)
            else:
                choice = self.policy.select(
                    queue.heads_of(candidates.jobs), self.backlog
                )
        self._observe(choice, now)
        return Decision(
            job=choice,
            hold_deadline=min(held.values()) if held else None,
            n_candidates=len(candidates),
            n_held=len(held),
            n_rejected=len(rejected),
        )

    def _examine(
        self, heads: Iterable[Job], queue: JobQueue, inflight: Mapping[str, Job]
    ) -> None:
        """Sort each head into rejected, held or candidate."""
        eligible = self.admission.eligible
        bind = self.placer.bind
        backlog = self.backlog
        room = self._room
        rejected = self._rejected
        held = self._held
        admit = self._candidates.add
        hold_deadline = (
            self.coalescer.hold_deadline if self.coalescer is not None else None
        )
        for job in heads:
            if not eligible(job, queue, inflight):
                rejected.add(job.vp)
                continue
            bind(job, backlog)
            engine = (job.device, job.kind)
            fits = room.get(engine)
            if fits is None:
                fits = room[engine] = self.admission.has_room(job)
            if not fits:
                rejected.add(job.vp)
                continue
            if hold_deadline is not None:
                deadline = hold_deadline(queue, job)
                if deadline is not None:
                    held[job.vp] = deadline
                    continue
            admit(job)

    def _observe(self, choice: Optional[Job], now: float) -> None:
        tracer = _obs_trace.TRACER
        registry = _obs_metrics.REGISTRY
        if tracer is None and registry is None:
            return
        candidates = list(self._candidates.jobs.values())
        if tracer is not None and choice is not None:
            # A pick is a *reorder* when the policy passed over an older
            # job — the observable act of Kernel Interleaving.
            fifo_head = min(job.job_id for job in candidates)
            tracer.instant(
                "dispatcher", "dispatch", now, cat="sched",
                args={
                    "job": choice.job_id,
                    "vp": choice.vp,
                    "seq": choice.seq,
                    "kind": choice.kind.name,
                    "policy": self.policy.name,
                    "reordered": choice.job_id != fifo_head,
                    "candidates": len(candidates),
                },
            )
        if registry is None:
            return
        if choice is not None:
            registry.counter("dispatch.decisions").inc()
            if choice.job_id != min(job.job_id for job in candidates):
                registry.counter("dispatch.reorders").inc()
            registry.histogram(
                "dispatch.candidates", _obs_metrics.DEPTH_BUCKETS
            ).observe(len(candidates))
            # Queue delay = submit -> this dispatch decision; the live
            # per-decision signal behind the ``account.vp.*.wait_ms``
            # end-of-run gauges.
            registry.histogram(
                "sched.queue_delay_ms", _obs_metrics.MS_BUCKETS
            ).observe(max(0.0, now - choice.submitted_at_ms))
        if self._rejected:
            registry.counter("sched.admission.rejected").inc(len(self._rejected))
        if self._held:
            registry.counter("sched.hold.held").inc(len(self._held))
        if choice is None:
            registry.counter("sched.select.idle").inc()
