"""Job requests and the host-side Job Queue.

Every CUDA call a virtual platform makes arrives on the host as a
:class:`Job` pushed into the :class:`JobQueue` by the IPC manager (paper
Fig. 2).  The Re-scheduler inspects and reorders/merges the queue under
one invariant: **per-VP partial order** — jobs from the same VP must
dispatch in their original sequence, while jobs from different VPs may be
freely reordered (paper Section 2: "reorders the asynchronous kernel jobs
in the Job Queue by keeping a partial order in the original VP").
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..kernels.ir import KernelIR
from ..kernels.launch import LaunchConfig
from ..obs import metrics as _obs_metrics
from ..sim import Environment, Event


class JobKind(enum.Enum):
    """The operation a job asks the host GPU to perform."""

    MALLOC = "malloc"
    FREE = "free"
    COPY_H2D = "copy_h2d"
    COPY_D2H = "copy_d2h"
    KERNEL = "kernel"
    EVENT = "event"  # cudaEventRecord marker: timestamps stream progress

    # Members are singletons compared by identity, so hash by identity
    # too: the scheduler keys per-decision tables by kind, and Enum's own
    # ``__hash__`` is a Python-level call.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"JobKind.{self.name}"


#: Job kinds the copy engine serves.
COPY_KINDS = (JobKind.COPY_H2D, JobKind.COPY_D2H)

_job_ids = itertools.count()

#: Sentinel marking a job's coalesce key as not yet computed (``None``
#: is a valid key value, meaning "not coalescible").
_KEY_UNSET = object()

_seq = attrgetter("seq")


@dataclass(slots=True, eq=False)
class Job:
    """One GPU request from a VP, as seen by the host.

    ``slots=True``: jobs are allocated per CUDA call across every VP, so
    they are among the hottest objects of a simulation; slots cut both
    the per-instance memory and the attribute-access cost the dispatcher
    and coalescer pay on every scheduling decision.  ``eq=False``: a job
    is an identity, so queue lookups (``list.index``/``list.remove``)
    compare by ``is`` instead of field by field.
    """

    vp: str
    seq: int
    kind: JobKind
    completion: Event
    # Copies:
    nbytes: int = 0
    handle: Optional[str] = None
    host_data: Optional[np.ndarray] = None
    sink: Optional[Callable[[Any], None]] = None
    # Kernels:
    kernel: Optional[KernelIR] = None
    launch: Optional[LaunchConfig] = None
    arg_handles: Sequence[str] = ()
    out_handle: Optional[str] = None
    # Kernel jobs from a guest always carry their launch parameters; a
    # merged job's members carry theirs.
    params: Optional[Dict[str, Any]] = None
    # Mallocs:
    size: int = 0
    # Coalescing: a merged job lists the member jobs it stands for.  The
    # two containers default to a shared empty tuple: only the coalescer
    # sets them, each time to a fresh list, and nothing mutates them.
    members: Sequence["Job"] = ()
    # Cross-VP dependencies: events that must have fired before this job
    # may dispatch (used when a merged kernel keeps its members' copies
    # as individual jobs).
    depends_on: Sequence[Event] = ()
    # Multi-GPU hosts: index of the device this job is bound to (set by
    # the dispatcher from the VP's affinity, or by the coalescer for
    # merged jobs).  0 on single-GPU hosts.
    device: int = 0
    # Bookkeeping:
    sync: bool = True
    job_id: int = field(default_factory=_job_ids.__next__)
    submitted_at_ms: float = 0.0
    dispatched_at_ms: Optional[float] = None
    completed_at_ms: Optional[float] = None
    # Memoized coalesce key (kernel and launch are fixed at creation).
    _coalesce_key: Any = field(
        default=_KEY_UNSET, init=False, repr=False
    )

    def __repr__(self) -> str:
        return (
            f"Job(#{self.job_id} {self.kind.name} vp={self.vp!r} seq={self.seq})"
        )

    @property
    def is_copy(self) -> bool:
        return self.kind in COPY_KINDS

    @property
    def is_kernel(self) -> bool:
        return self.kind is JobKind.KERNEL

    @property
    def coalesce_key(self) -> Optional[tuple]:
        """Identity key for Kernel Coalescing: same code, same geometry.

        Two kernel jobs coalesce when they run the *identical kernel*
        with the same block size — they then process different data
        chunks of one merged launch.  Identity is structural (the
        Kernel Match submodule of paper Fig. 2): each VP runs its own
        binary, so the match is on the kernel's code digest, not on a
        name the guests happen to share.
        """
        if self._coalesce_key is _KEY_UNSET:
            if not self.is_kernel or self.kernel is None or self.launch is None:
                self._coalesce_key = None
            else:
                from .kernel_match import match_key  # local: avoid import cycle

                self._coalesce_key = match_key(self.kernel, self.launch.block_size)
        return self._coalesce_key


class JobQueue:
    """The host-side queue of pending jobs.

    Queue order is a rank per job (no heap, no global list): the
    Re-scheduler inspects and reorders the queue through per-VP views,
    and only tests and observers walk it whole.  Its one consumer learns
    of new work through :attr:`on_put`.

    The dispatcher and coalescer consult the per-VP view (heads, pending
    lists) on every scheduling decision, so it is kept as indexes that
    :meth:`put`, :meth:`remove` and :meth:`replace` update for the VPs
    they touch only.  The indexes are exact: they always equal a scan of
    :attr:`jobs` (``tests/test_core_coalescing.py`` holds that scan,
    and a plain list of the queue, as the oracles).
    """

    def __init__(self, env: Environment):
        self.env = env
        #: Called with every job :meth:`put` adds (the dispatcher's poke).
        self.on_put: Optional[Callable[[Job], None]] = None
        self._barriers: Dict[str, tuple] = {}
        self.total_enqueued = 0
        #: Queue-order rank of every pending job: ``put`` hands out
        #: increasing ranks and a merged job takes its earliest member's,
        #: so sorting by rank gives queue order.
        self._rank: Dict[Job, int] = {}
        self._next_rank = 0
        #: Each VP's pending jobs in queue order (VPs with none absent).
        self._by_vp: Dict[str, List[Job]] = {}
        #: Each VP's earliest job by ``seq`` (first in queue order on ties).
        self._head: Dict[str, Job] = {}
        #: ``(rank of the VP's first queued job, VP)``, sorted: the order
        #: :meth:`heads_per_vp` iterates VPs in.
        self._order: List[Tuple[int, str]] = []
        #: The :meth:`heads_per_vp` mapping, rebuilt after a head moves.
        self._heads: Optional[Dict[str, Job]] = None
        #: Sets handed out by :meth:`watch`, each with the job kinds
        #: whose puts it sees (``None``: every kind).
        self._watchers: List[Tuple[Set[str], Optional[FrozenSet[JobKind]]]] = []

    def __len__(self) -> int:
        return len(self._rank)

    def __iter__(self):
        return iter(self.jobs)

    @property
    def jobs(self) -> List[Job]:
        """Snapshot of pending jobs in current queue order."""
        return sorted(self._rank, key=self._rank.__getitem__)

    def put(self, job: Job) -> None:
        job.submitted_at_ms = self.env.now
        rank = self._rank[job] = self._next_rank
        self._next_rank += 1
        vp = job.vp
        pending = self._by_vp.get(vp)
        if pending is None:
            self._by_vp[vp] = [job]
            self._head[vp] = job
            self._order.append((rank, vp))  # the highest rank: stays sorted
            self._heads = None
        else:
            pending.append(job)
            if job.seq < self._head[vp].seq:
                self._head[vp] = job
                self._heads = None
        kind = job.kind
        for touched, kinds in self._watchers:
            if kinds is None or kind in kinds:
                touched.add(vp)
        self.total_enqueued += 1
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            registry.histogram(
                "jobqueue.depth", _obs_metrics.DEPTH_BUCKETS
            ).observe(len(self._rank))
        if self.on_put is not None:
            self.on_put(job)

    def remove(self, job: Job) -> None:
        if job not in self._rank:
            raise RuntimeError(f"{job!r} is not in the queue")
        pending = self._by_vp[job.vp]
        first = self._rank[pending[0]]
        pending.remove(job)
        del self._rank[job]
        self._reindex(job.vp, first)
        self._changed(job.vp)

    def replace(self, members: Sequence[Job], merged: Job) -> None:
        """Swap ``members`` for one ``merged`` job at the earliest slot.

        The merged job takes the queue position of the earliest member so
        coalescing never delays work behind unrelated jobs.
        """
        if not members:
            raise ValueError("replace requires at least one member")
        ranks = self._rank
        by_vp = self._by_vp
        try:
            rank = min([ranks[m] for m in members])
        except KeyError as missing:
            raise ValueError(f"{missing.args[0]!r} is not in the queue") from None
        touched = {merged.vp, *(m.vp for m in members)}
        first = {vp: ranks[by_vp[vp][0]] for vp in touched if vp in by_vp}
        for member in members:
            by_vp[member.vp].remove(member)
            del ranks[member]
        ranks[merged] = rank
        pending = by_vp.setdefault(merged.vp, [])
        pending.insert(bisect_left(pending, rank, key=ranks.__getitem__), merged)
        for vp in touched:
            self._reindex(vp, first.get(vp))
        for watched, _ in self._watchers:
            watched.update(touched)

    def _reindex(self, vp: str, old_first: Optional[int]) -> None:
        """Refresh ``vp``'s head and order entry after its list changed.

        ``old_first`` is the rank of the VP's first job before the change
        (``None`` if it had none).
        """
        pending = self._by_vp[vp]
        if pending:
            self._head[vp] = min(pending, key=_seq)
            new_first: Optional[int] = self._rank[pending[0]]
        else:
            del self._by_vp[vp], self._head[vp]
            new_first = None
        if new_first != old_first:
            if old_first is not None:
                del self._order[bisect_left(self._order, (old_first, vp))]
            if new_first is not None:
                insort(self._order, (new_first, vp))
        self._heads = None

    def _changed(self, vp: str) -> None:
        for touched, _ in self._watchers:
            touched.add(vp)

    def watch(self, puts_of: Optional[Iterable[JobKind]] = None) -> Set[str]:
        """A set the queue adds every VP whose pending jobs change to.

        It starts with every VP that has pending jobs.  Given
        ``puts_of``, a put adds its VP only if the job's kind is one of
        them (removes and replaces always do).  The caller empties the
        set (in place) once it has caught up: this is how the coalescer
        looks only at the VPs a change can have moved the head triple
        of.
        """
        touched = set(self._by_vp)
        kinds = None if puts_of is None else frozenset(puts_of)
        self._watchers.append((touched, kinds))
        return touched

    def set_barrier(self, vp: str, until: Event, exempt_below_seq: int = 0) -> None:
        """Block dispatching ``vp``'s jobs until ``until`` fires.

        Kernel Coalescing uses this: once a VP's jobs were absorbed into
        a merged triple, its *next* jobs must not overtake the merged
        stages still executing on the VP's behalf.  Jobs with
        ``seq < exempt_below_seq`` are exempt — they are the triple's own
        unmerged input copies, which the merged kernel waits for.
        """
        self._barriers[vp] = (until, exempt_below_seq)

    def barred(self, vp: str, seq: Optional[int] = None) -> Optional[Event]:
        """The event ``vp`` waits for while it is behind an active
        coalescing barrier (``seq`` exempt or no barrier: None)."""
        barrier = self._barriers.get(vp)
        if barrier is None:
            return None
        until, exempt_below_seq = barrier
        if until.processed:
            del self._barriers[vp]
            return None
        if seq is not None and seq < exempt_below_seq:
            return None
        return until

    def heads_per_vp(self) -> Dict[str, Job]:
        """The earliest pending job of each VP — the dispatchable set.

        Dispatching only per-VP heads preserves the per-VP partial order
        by construction, whatever cross-VP order a policy picks.  VPs
        iterate in the queue order of each VP's first pending job: the
        dispatcher binds VPs to devices on first use in this order.

        The mapping is shared between calls until a head moves; treat it
        as read-only.
        """
        heads = self._heads
        if heads is None:
            head = self._head
            heads = self._heads = {vp: head[vp] for _, vp in self._order}
        return heads

    def heads_of(self, vps: Iterable[str]) -> List[Job]:
        """The heads of ``vps`` (those with pending jobs), in the order
        :meth:`heads_per_vp` iterates them."""
        by_vp = self._by_vp
        present = by_vp.keys() & vps
        head = self._head
        if len(present) < 2:
            return [head[vp] for vp in present]
        rank = self._rank
        order = sorted([(rank[by_vp[vp][0]], vp) for vp in present])
        return [head[vp] for _, vp in order]

    def pending_for(self, vp: str) -> List[Job]:
        """``vp``'s pending jobs in queue order (a live, read-only list)."""
        return self._by_vp.get(vp, [])
