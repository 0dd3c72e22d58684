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

Decisions are incremental: a head keeps its status — rejected, held
(with its deadline) or candidate — until one of its inputs changes, and
only the heads whose inputs changed are re-examined, in head order, so
first-use placement binds happen in the order a full walk makes them.
The inputs of a head's status are:

* its VP's queue entries (:meth:`JobQueue.watch`) and its coalescing
  group (``Coalescer.watch``);
* its VP's in-flight slot, which a retire frees (:meth:`freed`);
* the barrier or dependency event it waits on, once processed;
* engine room on its ``(device, kind)`` (asked once per engine per
  burst, and re-asked at the next burst for every engine with a
  room-rejected or held head);
* its hold deadline, once the clock reaches it.

Decisions come in *bursts*: the dispatcher loops decide → dispatch
without yielding, so every decision of a burst runs between the same
two processed events (one value of :attr:`Environment.steps`).  Within
a burst only the queue and the group index move (the jobs a burst
dispatches start after its last decision), and a keyed policy's order
keys stay put (the key contract of :class:`SchedulingPolicy`), so
candidates stay sorted in a :class:`CandidateIndex`.  A pipelined burst
ends with no candidates, so the next one carries only rejected and
held heads across the events between them; a burst that ended with
candidates (serial mode) is followed by a walk of every head.
``tests/test_sched_pipeline.py`` keeps the full walk as the oracle.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Hashable, Iterable, Mapping, NamedTuple, Optional, Protocol,
    Set, Tuple, Union,
)

from ..core.jobs import Job, JobKind, JobQueue
from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from ..sim import Event
from .backlog import EngineBacklog
from .placement import PlacementStrategy
from .policies import CandidateIndex, ExpectedMs, SchedulingPolicy


class Coalescer(Protocol):
    """The group-index surface the hold stage needs (duck-typed to
    :class:`repro.core.coalescing.KernelCoalescer`)."""

    def find_triples(self, queue: JobQueue) -> object: ...

    def hold_deadline(self, queue: JobQueue, job: Job) -> Optional[float]: ...

    def watch(self) -> Set[str]: ...


class Decision(NamedTuple):
    """Outcome of one pipeline pass over the queue heads (immutable: a
    decision that finds nothing changed is handed out again)."""

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


#: Builds a :class:`Decision` from its fields in order, without the
#: keyword constructor's Python-level ``__new__`` (what ``_make`` does).
_new_tuple = tuple.__new__

#: What :meth:`AdmissionStage.blocker` returns for a head whose VP has a
#: job in flight: the head waits for that job's retire.
IN_FLIGHT = "in flight"


class AdmissionStage:
    """Filters per-VP heads down to the currently dispatchable ones."""

    def __init__(self, engine_has_room: Callable[[Job], bool]) -> None:
        self._engine_has_room = engine_has_room

    def blocker(
        self, job: Job, queue: JobQueue, inflight: Mapping[str, Job]
    ) -> Union[None, str, Event]:
        """What fails the pre-placement checks, or None if they pass:
        :data:`IN_FLIGHT` (the VP's stream is busy), or the barrier or
        unprocessed dependency event the head waits on."""
        if job.vp in inflight:
            return IN_FLIGHT
        barrier = queue.barred(job.vp, job.seq)
        if barrier is not None:
            return barrier
        for dep in job.depends_on:
            if not dep.processed:
                return dep
        return None

    def eligible(
        self, job: Job, queue: JobQueue, inflight: Mapping[str, Job]
    ) -> bool:
        """Pre-placement checks: stream free, not barred, deps met."""
        return self.blocker(job, queue, inflight) is None

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
        # The decision memo: each head's status as the previous decision
        # left it, with the burst it was made in (the queue, the
        # in-flight map and the event count).
        self._burst: Tuple[Optional[JobQueue], Optional[Mapping[str, Job]], int] = (
            None, None, -1,
        )
        #: VPs to re-examine: the queue touched them, or a retire freed
        #: their slot (:meth:`freed`).
        self._touched: Set[str] = set()
        self._group_touched: Set[str] = (
            coalescer.watch() if coalescer is not None else set()
        )
        self._rejected: Set[str] = set()
        self._held: Dict[str, float] = {}
        #: The earliest of ``_held`` as the previous decision left it.
        self._next_deadline: Optional[float] = None
        self._candidates = CandidateIndex(policy)
        #: The previous decision, returned again while nothing changes.
        self._decision = Decision(job=None, hold_deadline=None)
        self._room: Dict[Tuple[int, JobKind], bool] = {}
        #: What a rejected or held head waits on -> {VP: head}: its
        #: barrier or dependency event, or its ``(device, kind)`` engine
        #: (room-rejected and held heads).  In-flight heads wait for
        #: :meth:`freed` instead.
        self._waiting: Dict[Hashable, Dict[str, Job]] = {}
        #: VP -> its key in ``_waiting``.
        self._wait_of: Dict[str, Hashable] = {}

    @property
    def placement(self) -> PlacementStrategy:
        return self.placer.strategy

    def freed(self, vp: str) -> None:
        """``vp``'s in-flight job retired: its head, if the last look
        rejected it (a VP's head is rejected while it has a job in
        flight; a head put since is marked by the queue), needs a new
        look."""
        if vp in self._rejected:
            self._touched.add(vp)

    def decide(
        self, queue: JobQueue, inflight: Mapping[str, Job], now: float
    ) -> Decision:
        """One decision: admit heads, hold coalescibles, select, report.

        Re-examines, in ``heads_per_vp`` order, only the heads whose
        status inputs (see the module docstring) changed since the
        previous decision; every other head keeps its status.  A new
        queue or in-flight map, or a new burst after one that ended with
        candidates, walks every head instead.  Either way the
        candidates, held deadlines, rejected count and pick equal a full
        walk's.
        """
        if _obs_metrics.REGISTRY is not None:
            with _obs_metrics.timed("sched.decide"):
                decision = self._decide(queue, inflight)
        else:
            decision = self._decide(queue, inflight)
        if _obs_trace.TRACER is not None or _obs_metrics.REGISTRY is not None:
            self._observe(decision.job, now)
        return decision

    def _decide(self, queue: JobQueue, inflight: Mapping[str, Job]) -> Decision:
        coalescer = self.coalescer
        if coalescer is not None:
            # Bring the group index up to date so its watch set holds
            # every group that changed since the previous decision.
            coalescer.find_triples(queue)
        burst = self._burst
        steps = queue.env.steps
        candidates = self._candidates
        if (
            burst[0] is not queue
            or burst[1] is not inflight
            or (burst[2] != steps and candidates.jobs)
        ):
            if burst[0] is not queue:
                self._touched = queue.watch()
            self._burst = (queue, inflight, steps)
            self._touched.clear()
            self._group_touched.clear()
            self._room.clear()
            self._waiting.clear()
            self._wait_of.clear()
            self._rejected.clear()
            self._held.clear()
            candidates.clear()
            self._examine(queue.heads_per_vp().values(), queue, inflight)
        else:
            if burst[2] != steps:
                self._burst = (queue, inflight, steps)
                self._catch_up(queue)
            if (
                not (self._touched or self._group_touched)
                or not self._reexamine(queue, inflight)
            ) and not candidates.jobs and candidates.keyed:
                # Nothing changed since a decision that picked nothing.
                return self._decision
        if not candidates.keyed:
            choice = self.policy.select(
                queue.heads_of(candidates.jobs), self.backlog
            )
        elif candidates.jobs:
            choice = candidates.pick(self.backlog)
        else:
            choice = None
        held = self._held
        deadline = self._next_deadline = min(held.values()) if held else None
        decision: Decision = _new_tuple(
            Decision,
            (choice, deadline, len(candidates.jobs), len(held), len(self._rejected)),
        )
        self._decision = decision
        return decision

    def _reexamine(self, queue: JobQueue, inflight: Mapping[str, Job]) -> bool:
        """Drop the status of every marked VP and examine its head;
        False if no marked VP had a status or a head.

        A group change matters only to heads the hold stage looked at: a
        rejected head never reaches it, and a held head whose other
        inputs stand keeps its status while its hold deadline does.
        """
        touched = self._touched
        group_touched = self._group_touched
        held = self._held
        candidates = self._candidates
        jobs = candidates.jobs
        if group_touched:
            if held:
                hold_deadline = self.coalescer.hold_deadline  # type: ignore[union-attr]
                waiting = self._waiting
                wait_of = self._wait_of
                for vp in held.keys() & group_touched:
                    if vp not in touched:
                        head = waiting[wait_of[vp]][vp]
                        if hold_deadline(queue, head) != held[vp]:
                            touched.add(vp)
            if jobs:
                touched.update(jobs.keys() & group_touched)
            group_touched.clear()
        dirty = set(touched)
        touched.clear()
        rejected = self._rejected
        wait_of = self._wait_of
        changed = False
        for vp in dirty:
            if vp in rejected:
                rejected.remove(vp)
            elif vp in held:
                del held[vp]
            elif vp in jobs:
                candidates.discard(vp)
                changed = True
                continue
            else:
                continue
            changed = True
            key = wait_of.pop(vp, None)
            if key is not None:
                heads_waiting = self._waiting[key]
                del heads_waiting[vp]
                if not heads_waiting:
                    del self._waiting[key]
        heads = queue.heads_of(dirty)
        if heads:
            self._examine(heads, queue, inflight)
            return True
        return changed

    def _catch_up(self, queue: JobQueue) -> None:
        """Mark every head whose status the events since the previous
        decision changed: a processed barrier or dependency, engine room
        that flipped, a hold deadline the clock reached.  (Retires mark
        their VP through :meth:`freed`.)"""
        waiting = self._waiting
        if not waiting:
            self._room.clear()
            return
        dirty = self._touched
        room = self._room
        fresh: Dict[Tuple[int, JobKind], bool] = {}
        for key, heads in waiting.items():
            if isinstance(key, tuple):
                fits = fresh[key] = self.admission.has_room(
                    next(iter(heads.values()))
                )
                if fits != room[key]:
                    dirty.update(heads)
            elif key.processed:
                dirty.update(heads)
        self._room = fresh
        deadline = self._next_deadline
        if deadline is not None:
            now = queue.env.now
            if deadline <= now:
                dirty.update(vp for vp, due in self._held.items() if due <= now)

    def _examine(
        self, heads: Iterable[Job], queue: JobQueue, inflight: Mapping[str, Job]
    ) -> None:
        """Sort each head into rejected, held or candidate, and file each
        rejected or held head under what it waits on."""
        blocker = self.admission.blocker
        bind = self.placer.bind
        backlog = self.backlog
        room = self._room
        rejected = self._rejected
        held = self._held
        waiting = self._waiting
        wait_of = self._wait_of
        admit = self._candidates.add
        hold_deadline = (
            self.coalescer.hold_deadline if self.coalescer is not None else None
        )
        for job in heads:
            vp = job.vp
            waits_on = blocker(job, queue, inflight)
            if waits_on is None:
                bind(job, backlog)
                waits_on = engine = (job.device, job.kind)
                fits = room.get(engine)
                if fits is None:
                    fits = room[engine] = self.admission.has_room(job)
                if fits:
                    deadline = (
                        hold_deadline(queue, job)
                        if hold_deadline is not None else None
                    )
                    if deadline is None:
                        admit(job)
                        continue
                    held[vp] = deadline
                else:
                    rejected.add(vp)
            else:
                rejected.add(vp)
                if waits_on is IN_FLIGHT:
                    continue
            heads_waiting = waiting.get(waits_on)
            if heads_waiting is None:
                heads_waiting = waiting[waits_on] = {}
            heads_waiting[vp] = job
            wait_of[vp] = waits_on

    def _observe(self, choice: Optional[Job], now: float) -> None:
        tracer = _obs_trace.TRACER
        registry = _obs_metrics.REGISTRY
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
