"""Kernel Coalescing (paper Section 3, Figs. 5 and 6).

"When multiple VP instances are running it is likely that an identical
kernel is called by more than one VP at the same time.  Such simulations
can be accelerated by coalescing those common invocations from each VP
into a single kernel invocation."

The coalescer operates on the Job Queue.  For each VP it recognises a
*triple* at the VP's queue head — host-to-device copies, an identical
kernel, and (if already submitted) device-to-host copies.  Triples from
different VPs with the same coalesce key (kernel signature + block size)
merge into one triple:

* the member buffers are moved, not re-allocated, into one
  physically-contiguous device region (Fig. 5), so a single kernel can
  sweep the merged data; each guest handle keeps its buffer;
* one H2D copy moves the concatenated inputs (one DMA latency instead of
  N), one kernel launch covers the merged grid (one launch overhead, and
  a grid that aligns to the device's wave quantum — the data-alignment
  gain the paper highlights), and one D2H copy returns all results;
* each member job's completion fires when its merged stage completes,
  and the results are "properly divided to be copied ... back to the
  host memory addresses" through each member's sink.

Because matching requests from different VPs arrive within an IPC-latency
window rather than at one instant, the coalescer *holds* coalescible jobs
briefly (the reproduction's analog of VP control pausing platforms) and
merges when the group is complete or the window expires.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..gpu.device import HostGPU
from ..gpu.memory import OutOfDeviceMemory
from ..kernels.ir import MemoryFootprint
from ..kernels.launch import LaunchConfig
from ..obs import metrics as _obs_metrics
from ..obs import tracer as _obs_trace
from ..sim import Environment
from .handles import HandleTable
from .jobs import Job, JobKind, JobQueue

#: Default time a coalescible job may be held waiting for its group, in
#: milliseconds.  Covers a few guest->host socket latencies so a VP's
#: whole (copy, kernel, copy) triple can arrive and match its peers.
DEFAULT_HOLD_WINDOW_MS = 2.5

#: Once the kernel group is complete, how long to wait for members'
#: still-in-flight D2H requests before merging without them (ms).
DEFAULT_SETTLE_MS = 0.1

#: Copies larger than this stay individual jobs even when their kernels
#: merge.  Merging a batch of large copies into one DMA saves only the
#: per-transfer latency but serializes what the dual copy engines would
#: otherwise pipeline against compute — a net loss above this size.
DEFAULT_COPY_MERGE_LIMIT_BYTES = 512 * 1024


@dataclass
class Triple:
    """One VP's (H2D*, KERNEL, D2H*) prefix at its queue head."""

    vp: str
    h2d: List[Job]
    kernel: Job
    d2h: List[Job]

    @property
    def key(self) -> tuple:
        return self.kernel.coalesce_key

    @property
    def jobs(self) -> List[Job]:
        return [*self.h2d, self.kernel, *self.d2h]


#: A coalescing group keeps its triples sorted by VP (one per VP).
_vp = attrgetter("vp")

#: The only job kinds whose put can change its VP's head triple: a put
#: appends, and only a kernel (after a run of H2D copies) or a D2H copy
#: (after a triple) extends the H2D*, KERNEL, D2H* parse.
_TRIPLE_TAILS = (JobKind.KERNEL, JobKind.COPY_D2H)


@dataclass
class CoalesceStats:
    """Counters describing what the coalescer did."""

    merges: int = 0
    kernels_coalesced: int = 0
    copies_merged: int = 0
    batch_sizes: List[int] = field(default_factory=list)


class KernelCoalescer:
    """Merges identical kernel requests from different VPs."""

    def __init__(
        self,
        env: Environment,
        gpu: HostGPU,
        handles: HandleTable,
        device_of=None,
        min_batch: int = 2,
        max_batch: int = 64,
        target_batch: Optional[int] = None,
        hold_window_ms: float = DEFAULT_HOLD_WINDOW_MS,
        settle_ms: float = DEFAULT_SETTLE_MS,
        copy_merge_limit_bytes: int = DEFAULT_COPY_MERGE_LIMIT_BYTES,
    ):
        if min_batch < 2:
            raise ValueError(f"min_batch must be >= 2, got {min_batch}")
        if max_batch < min_batch:
            raise ValueError("max_batch must be >= min_batch")
        self.env = env
        self.gpu = gpu
        #: Maps a VP name to its host-GPU index; wired by the framework
        #: on multi-GPU hosts so triples never merge across devices.
        self.device_of = device_of or (lambda vp: 0)
        #: Maps a VP name to its currently executing job (or None); wired
        #: by the dispatcher.  A merged kernel must wait out members'
        #: in-flight transfers — see :meth:`_merge_batch`.
        self.inflight_of = lambda vp: None
        #: GPUs indexed by device; extended by the framework.
        self.gpus = [gpu]
        self.handles = handles
        self.min_batch = min_batch
        self.max_batch = max_batch
        self._target_batch = target_batch
        self.hold_window_ms = hold_window_ms
        self.settle_ms = settle_ms
        self.copy_merge_limit_bytes = copy_merge_limit_bytes
        self.stats = CoalesceStats()
        self._merge_counter = 0
        #: Per member VP, the merged H2D copy that last moved its inputs.
        #: The copy runs under its group's name, so neither the VP's
        #: in-flight slot nor its queue shows it; a later merged kernel
        #: reading those inputs must wait for it explicitly.
        self._group_inputs: Dict[str, Job] = {}
        # The triple index, kept current for the VPs the queue reports
        # touched (:meth:`JobQueue.watch`): the dispatcher asks for the
        # grouping on every scheduling decision, but a queue change only
        # moves the head triples of the VPs it touched.
        self._queue: Optional[JobQueue] = None
        self._dirty: Set[str] = set()
        #: VP -> (group key, its head triple), for VPs in a group.
        self._triple_of: Dict[str, Tuple[tuple, Triple]] = {}
        self._groups: Dict[tuple, List[Triple]] = {}
        #: ``job_id`` -> the group its triple belongs to; a job sits in
        #: at most one VP's head triple.
        self._group_of: Dict[int, List[Triple]] = {}
        #: Bumped whenever the index is updated or the goal batch moves.
        self._generation = 0
        #: Sets handed out by :meth:`watch`.
        self._watchers: List[Set[str]] = []
        #: ``_group_state`` per group (by ``id``), valid for one
        #: ``(now, generation)`` stamp.
        self._states: Dict[int, Tuple[bool, Optional[float]]] = {}
        self._states_stamp: Optional[Tuple[float, int]] = None
        # What :meth:`coalesce_pass` needs to know to skip a pass that
        # cannot merge: whether a group's state inputs (its triples, the
        # goal batch) moved since the last full pass, and the earliest
        # deadline that pass found on a group that was not ready.
        self._regrouped = True
        self._wake_at = -math.inf

    @property
    def target_batch(self) -> Optional[int]:
        """The batch a group waits for (``None``: ``max_batch``)."""
        return self._target_batch

    @target_batch.setter
    def target_batch(self, value: Optional[int]) -> None:
        # Every group's state depends on the goal batch.
        self._target_batch = value
        self._generation += 1
        self._regrouped = True
        for touched in self._watchers:
            touched.update(self._triple_of)

    # -- triple discovery --------------------------------------------------

    def find_triples(self, queue: JobQueue) -> Dict[tuple, List[Triple]]:
        """Group each VP's head triple by coalesce key.

        Within a group, triples are in sorted VP order.  Only the VPs the
        queue changed since the last call are looked at, in sorted order,
        so ``device_of`` binds first-seen VPs in the same order a full
        scan would (treat the result as read-only).
        """
        if queue is not self._queue:
            self._queue = queue
            self._dirty = queue.watch(puts_of=_TRIPLE_TAILS)
            self._triple_of = {}
            self._groups = {}
            self._group_of = {}
            self._regrouped = True
        if self._dirty:
            self._update(queue)
        return self._groups

    def _update(self, queue: JobQueue) -> None:
        """Bring the head triple of every VP the queue touched up to date.

        Each VP's head is scanned in place: its run of H2D copies and
        the job after it.  With no kernel there, the VP has no triple.
        A triple whose kernel is still there is updated in place (copies
        dispatched from its head, D2H copies put behind it); only a
        kernel new to the head is parsed into a new triple.
        """
        dirty = sorted(self._dirty)
        self._dirty.clear()
        groups = self._groups
        group_of = self._group_of
        triple_of = self._triple_of
        # Groups that lost, gained or changed a triple, by ``id``.
        changed: Dict[int, List[Triple]] = {}
        moved = False
        for vp in dirty:
            pending = queue.pending_for(vp)
            end = len(pending)
            index = 0
            while index < end and pending[index].kind is JobKind.COPY_H2D:
                index += 1
            # The job after the run: the kernel of the VP's triple, if any.
            kernel = pending[index] if index < end else None
            entry = triple_of.get(vp)
            if entry is not None:
                key, triple = entry
                group = groups[key]
                if kernel is triple.kernel:
                    stop = index + 1
                    while stop < end and pending[stop].kind is JobKind.COPY_D2H:
                        stop += 1
                    h2d = pending[:index]
                    d2h = pending[index + 1 : stop]
                    if h2d == triple.h2d and d2h == triple.d2h:
                        continue
                    moved = True
                    changed[id(group)] = group
                    if not any(j.members for j in (*h2d, *d2h)):
                        for job in (*triple.h2d, *triple.d2h):
                            del group_of[job.job_id]
                        triple.h2d = h2d
                        triple.d2h = d2h
                        for job in (*h2d, *d2h):
                            group_of[job.job_id] = group
                        continue
                # The triple is gone (or took a merged copy).
                moved = True
                del triple_of[vp]
                del group[bisect_left(group, vp, key=_vp)]
                if group:
                    changed[id(group)] = group
                else:
                    del groups[key]
                    changed.pop(id(group), None)
                for job in triple.jobs:
                    del group_of[job.job_id]
            if kernel is None or kernel.kind is not JobKind.KERNEL:
                continue
            triple = self._head_triple(pending)
            if triple is None or triple.key is None:
                continue
            if any(j.members for j in triple.jobs):
                continue  # already a merged triple: never re-coalesce
            key = (*triple.key, self.device_of(vp))
            group = groups.setdefault(key, [])
            insort(group, triple, key=_vp)
            moved = True
            changed[id(group)] = group
            triple_of[vp] = (key, triple)
            for job in triple.jobs:
                group_of[job.job_id] = group
        if moved:
            self._generation += 1
            self._regrouped = True
        if self._watchers and changed:
            members = [t.vp for group in changed.values() for t in group]
            for touched in self._watchers:
                touched.update(members)

    def watch(self) -> Set[str]:
        """A set the coalescer adds every VP of a changed group to.

        A group changes when :meth:`find_triples` brings a triple in or
        out of it; every VP still in the group is added, because a held
        head's :meth:`hold_deadline` depends on the whole group.  The
        set starts with every VP in a group, and the caller empties it
        (in place) once it has caught up.
        """
        touched = set(self._triple_of)
        self._watchers.append(touched)
        return touched

    @staticmethod
    def _head_triple(pending: Sequence[Job]) -> Optional[Triple]:
        """Parse H2D*, KERNEL, D2H* at the head of one VP's pending jobs."""
        h2d: List[Job] = []
        index = 0
        while index < len(pending) and pending[index].kind is JobKind.COPY_H2D:
            h2d.append(pending[index])
            index += 1
        if index >= len(pending) or not pending[index].is_kernel:
            return None
        kernel = pending[index]
        index += 1
        d2h: List[Job] = []
        while index < len(pending) and pending[index].kind is JobKind.COPY_D2H:
            d2h.append(pending[index])
            index += 1
        return Triple(vp=kernel.vp, h2d=h2d, kernel=kernel, d2h=d2h)

    # -- hold decision -----------------------------------------------------

    def _goal_batch(self) -> int:
        if self._target_batch is not None:
            return min(self._target_batch, self.max_batch)
        return self.max_batch

    def _group_state(self, triples: List[Triple]) -> Tuple[bool, Optional[float]]:
        """(ready_to_merge, wake_deadline_or_None) for one key's group.

        A group merges when (a) it has reached the goal batch size *and*
        every member's D2H either arrived or the short settle window
        passed, or (b) the hold window since the group's first kernel
        expired (merge whatever gathered, if at least ``min_batch``).
        """
        now = self.env.now
        first_arrival = min(t.kernel.submitted_at_ms for t in triples)
        window_deadline = first_arrival + self.hold_window_ms
        if len(triples) >= self._goal_batch():
            if all(t.d2h for t in triples):
                return True, None
            last_arrival = max(t.kernel.submitted_at_ms for t in triples)
            settle_deadline = min(last_arrival + self.settle_ms, window_deadline)
            if now >= settle_deadline:
                return True, None
            return False, settle_deadline
        if now >= window_deadline:
            return len(triples) >= self.min_batch, None
        return False, window_deadline

    def hold_deadline(self, queue: JobQueue, job: Job) -> Optional[float]:
        """If ``job`` should wait for coalescing, when its hold expires.

        Returns None when the job should dispatch normally: either it is
        not part of a coalescible group, or its group is ready to merge
        right now (the merge happens in the same dispatcher pass).
        """
        self.find_triples(queue)
        triples = self._group_of.get(job.job_id)
        if triples is None:
            return None
        ready, deadline = self._state(triples)
        return None if ready else deadline

    def _state(self, triples: List[Triple]) -> Tuple[bool, Optional[float]]:
        """:meth:`_group_state`, computed once per group per decision.

        The state is pure in the clock, the goal batch and the group's
        triples, and the index generation moves whenever either of the
        last two does.
        """
        stamp = (self.env.now, self._generation)
        if stamp != self._states_stamp:
            self._states_stamp = stamp
            self._states = {}
        state = self._states.get(id(triples))
        if state is None:
            state = self._states[id(triples)] = self._group_state(triples)
        return state

    # -- the merge -----------------------------------------------------------

    def coalesce_pass(self, queue: JobQueue) -> List[Job]:
        """Merge every ready group in the queue; returns merged jobs.

        After a pass that left no group ready, the next one returns at
        once while no group changed and the clock is short of the
        earliest deadline that pass found: every group's state is still
        what it was.
        """
        groups = self.find_triples(queue)
        if not self._regrouped and self.env.now < self._wake_at:
            return []
        if _obs_metrics.REGISTRY is not None:
            with _obs_metrics.timed("coalesce.pass"):
                return self._coalesce_pass(queue, groups)
        return self._coalesce_pass(queue, groups)

    def _coalesce_pass(
        self, queue: JobQueue, groups: Dict[tuple, List[Triple]]
    ) -> List[Job]:
        self._regrouped = False
        wake_at = math.inf
        merged_jobs: List[Job] = []
        for _key, triples in sorted(groups.items()):
            ready, deadline = self._state(triples)
            if not ready:
                if deadline is not None and deadline < wake_at:
                    wake_at = deadline
                continue
            # A merge regroups; a ready group too small to merge stays
            # ready, and the next pass must look at it again.
            wake_at = -math.inf
            while len(triples) >= self.min_batch:
                batch = triples[: self.max_batch]
                triples = triples[self.max_batch :]
                if len(batch) < self.min_batch:
                    break
                merged_jobs.extend(self._merge_batch(queue, batch))
        self._wake_at = wake_at
        return merged_jobs

    def _merge_batch(self, queue: JobQueue, batch: List[Triple]) -> List[Job]:
        """Replace a batch of triples with one merged triple."""
        self._merge_counter += 1
        group = f"coalesced#{self._merge_counter}"
        device = self.device_of(batch[0].vp)
        self.stats.merges += 1
        self.stats.kernels_coalesced += len(batch)
        self.stats.batch_sizes.append(len(batch))
        tracer = _obs_trace.TRACER
        if tracer is not None:
            tracer.instant(
                "coalescer", "merge", self.env.now, cat="sched",
                args={
                    "group": group,
                    "batch": len(batch),
                    "kernel": batch[0].kernel.kernel.name
                    if batch[0].kernel.kernel is not None else None,
                    "vps": ",".join(sorted(t.vp for t in batch)),
                    "device": device,
                },
            )
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            registry.counter("coalesce.live_merges").inc()
            registry.histogram(
                "coalesce.live_batch_size", _obs_metrics.DEPTH_BUCKETS
            ).observe(len(batch))

        self._relayout_buffers(batch, owner=group)

        merged: List[Job] = []
        seq = 0

        def mergeable_copies(jobs: List[Job]) -> bool:
            return bool(jobs) and all(
                j.nbytes <= self.copy_merge_limit_bytes for j in jobs
            )

        h2d_members = [job for triple in batch for job in triple.h2d]
        h2d_merged = mergeable_copies(h2d_members)
        if h2d_merged:
            self.stats.copies_merged += len(h2d_members)
            job = Job(
                vp=group,
                seq=seq,
                kind=JobKind.COPY_H2D,
                completion=self.env.event(),
                nbytes=sum(j.nbytes for j in h2d_members),
                sync=False,
                device=device,
            )
            job.members = h2d_members
            queue.replace(h2d_members, job)
            merged.append(job)
            seq += 1

        kernel_members = [triple.kernel for triple in batch]
        merged_kernel = self._merged_kernel_job(group, seq, kernel_members)
        merged_kernel.device = device
        depends_on = []
        if h2d_members and not h2d_merged:
            # Large input copies stay individual (and pipelined); the
            # merged kernel must still wait for all of them.
            depends_on.extend(j.completion for j in h2d_members)
        for triple in batch:
            # A member VP whose input copy is already *on an engine* has
            # no queued H2D left, so its triple is a bare (kernel, d2h)
            # pair — but the merged kernel still sweeps that VP's
            # buffers and must not run before the transfer lands.  The
            # merged job's fresh group vp bypasses the per-VP inflight
            # admission check, so the ordering has to be an explicit
            # dependency.  Only input copies matter: an in-flight D2H
            # reads a buffer the relayout already snapshotted, so
            # waiting on it would only serialize unrelated pipelining.
            inflight = self.inflight_of(triple.vp)
            if inflight is not None and inflight.kind is JobKind.COPY_H2D:
                depends_on.append(inflight.completion)
            # Likewise for an earlier merge's group copy of this VP's
            # inputs, queued or in flight under the group's name.
            group_copy = self._group_inputs.get(triple.vp)
            if (
                group_copy is not None
                and not group_copy.completion.processed
                and group_copy.completion not in depends_on
            ):
                depends_on.append(group_copy.completion)
        if depends_on:
            merged_kernel.depends_on = depends_on
        if h2d_merged:
            # This merge's own group copy precedes its kernel in the
            # group's queue order; later merges must wait for it.
            for member in h2d_members:
                self._group_inputs[member.vp] = merged[0]
        queue.replace(kernel_members, merged_kernel)
        merged.append(merged_kernel)
        seq += 1

        d2h_members = [job for triple in batch for job in triple.d2h]
        if mergeable_copies(d2h_members):
            self.stats.copies_merged += len(d2h_members)
            job = Job(
                vp=group,
                seq=seq,
                kind=JobKind.COPY_D2H,
                completion=self.env.event(),
                nbytes=sum(j.nbytes for j in d2h_members),
                sync=False,
                device=device,
            )
            job.members = d2h_members
            queue.replace(d2h_members, job)
            merged.append(job)
        # Unmerged D2H members stay queued behind the merged kernel via
        # their VP's barrier, so ordering is preserved without deps.

        # A member VP's subsequent jobs must not overtake the merged
        # stages acting on its behalf.
        final_stage = merged[-1]
        for triple in batch:
            queue.set_barrier(
                triple.vp,
                final_stage.completion,
                exempt_below_seq=triple.kernel.seq,
            )
        return merged

    def _merged_kernel_job(self, group: str, seq: int, members: List[Job]) -> Job:
        """Build the single kernel job covering every member's data."""
        launch = LaunchConfig.merge([m.launch for m in members])
        kernel = members[0].kernel.with_footprint(
            MemoryFootprint.merge([m.kernel.footprint for m in members])
        )

        job = Job(
            vp=group,
            seq=seq,
            kind=JobKind.KERNEL,
            completion=self.env.event(),
            kernel=kernel,
            launch=launch,
            sync=False,
        )
        job.members = members
        return job

    def _relayout_buffers(self, batch: List[Triple], owner: str) -> None:
        """Move every member buffer into one contiguous region (Fig. 5);
        each handle keeps its buffer, so the backend sees no allocation."""
        buffers = self.handles.bound(
            handle
            for triple in batch
            for handle in (*triple.kernel.arg_handles, triple.kernel.out_handle)
            if handle
        )
        if not buffers:
            return
        try:
            self.gpus[self.device_of(batch[0].vp)].memory.relocate(buffers, owner)
        except OutOfDeviceMemory:
            return  # fragmented device memory: keep original layout
