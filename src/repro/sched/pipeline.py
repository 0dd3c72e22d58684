"""The dispatch pipeline: admission → hold/merge → select → place.

One dispatch decision used to be a single opaque scan inside
``JobDispatcher._choose``; this module decomposes it into four explicit
stages, each independently pluggable:

* :class:`AdmissionStage` — which per-VP queue heads are dispatchable
  *right now*: the VP has nothing in flight (stream-pump semantics of a
  per-VP CUDA stream), the head is not behind a coalescing barrier, its
  dependencies are processed, and its target engine has room (engine
  queues stay shallow so the policy re-decides at every slot);
* :class:`HoldStage` — Kernel Coalescing as a stage: merge ready groups
  and hold coalescible heads until their group completes or the
  coalescing window expires;
* :class:`SelectStage` — the :class:`SchedulingPolicy` picking among
  the admitted candidates;
* :class:`PlacementStage` — the :class:`PlacementStrategy` binding each
  VP to a host GPU on first use (sticky thereafter: a VP's buffers live
  on its device).

The stage order preserves the legacy scan exactly — same head iteration
order, same per-job check order, same device-binding side effects — so
FIFO/interleaving scenario digests stay bit-identical to the
pre-refactor dispatcher (proven by ``tests/test_sched_pipeline.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Protocol, Tuple

from ..core.jobs import Job, JobKind, JobQueue
from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from .backlog import EngineBacklog
from .placement import PlacementStrategy
from .policies import ExpectedMs, SchedulingPolicy


class Coalescer(Protocol):
    """The queue-scan surface the hold/merge stage needs (duck-typed to
    :class:`repro.core.coalescing.KernelCoalescer`)."""

    def coalesce_pass(self, queue: JobQueue) -> List[Job]: ...

    def hold_deadline(self, queue: JobQueue, job: Job) -> Optional[float]: ...


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

        A function of the job's ``(device, kind)`` only: a decision asks
        once per engine.
        """
        return self._engine_has_room(job)


class HoldStage:
    """Kernel Coalescing as a pipeline stage (no-op without a coalescer)."""

    def __init__(self, coalescer: Optional[Coalescer]) -> None:
        self.coalescer = coalescer

    def merge(self, queue: JobQueue) -> List[Job]:
        """Merge ready coalescing groups before scanning heads.

        Returns the merged jobs minted this pass (empty without a
        coalescer).
        """
        if self.coalescer is None:
            return []
        return self.coalescer.coalesce_pass(queue)

    def hold_deadline(self, queue: JobQueue, job: Job) -> Optional[float]:
        """Deadline to hold a coalescible head until, or None to pass."""
        if self.coalescer is None:
            return None
        return self.coalescer.hold_deadline(queue, job)


class SelectStage:
    """Wraps the scheduling policy choosing among admitted candidates."""

    def __init__(self, policy: SchedulingPolicy) -> None:
        self.policy = policy

    def choose(
        self, candidates: List[Job], backlog: EngineBacklog
    ) -> Optional[Job]:
        return self.policy.select(candidates, backlog)


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
    """Runs the four stages over the Job Queue for one dispatch decision."""

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
        self.admission = AdmissionStage(engine_has_room)
        self.hold = HoldStage(coalescer)
        self.selector = SelectStage(policy)
        self.placer = PlacementStage(placement, n_devices)
        if expected_ms is not None:
            policy.attach(expected_ms)

    @property
    def policy(self) -> SchedulingPolicy:
        return self.selector.policy

    @property
    def placement(self) -> PlacementStrategy:
        return self.placer.strategy

    def decide(
        self, queue: JobQueue, inflight: Mapping[str, Job], now: float
    ) -> Decision:
        """One pass: admit heads, hold coalescibles, select, and report.

        Mirrors the legacy ``JobDispatcher._choose`` scan bit-for-bit:
        heads are visited in ``heads_per_vp`` order, device binding
        happens between the dependency and engine-room checks (so
        first-use placement order is unchanged), and the engine-room
        check runs against the bound device.
        """
        with _obs_metrics.timed("sched.decide"):
            heads = queue.heads_per_vp()
            candidates: List[Job] = []
            deadlines: List[float] = []
            rejected = 0
            # Engine room depends only on the bound engine, and nothing in
            # one pass changes an engine: ask once per (device, kind).
            room: Dict[Tuple[int, JobKind], bool] = {}
            eligible = self.admission.eligible
            bind = self.placer.bind
            hold_deadline = self.hold.hold_deadline
            backlog = self.backlog
            for job in heads.values():
                if not eligible(job, queue, inflight):
                    rejected += 1
                    continue
                bind(job, backlog)
                engine = (job.device, job.kind)
                fits = room.get(engine)
                if fits is None:
                    fits = room[engine] = self.admission.has_room(job)
                if not fits:
                    rejected += 1
                    continue
                deadline = hold_deadline(queue, job)
                if deadline is not None:
                    deadlines.append(deadline)
                    continue
                candidates.append(job)
            choice = self.selector.choose(candidates, backlog)
        self._observe(choice, candidates, deadlines, rejected, now)
        return Decision(
            job=choice,
            hold_deadline=min(deadlines) if deadlines else None,
            n_candidates=len(candidates),
            n_held=len(deadlines),
            n_rejected=rejected,
        )

    def _observe(
        self,
        choice: Optional[Job],
        candidates: List[Job],
        deadlines: List[float],
        rejected: int,
        now: float,
    ) -> None:
        tracer = _obs_trace.TRACER
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
        registry = _obs_metrics.REGISTRY
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
        if rejected:
            registry.counter("sched.admission.rejected").inc(rejected)
        if deadlines:
            registry.counter("sched.hold.held").inc(len(deadlines))
        if choice is None:
            registry.counter("sched.select.idle").inc()
