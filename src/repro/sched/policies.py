"""Scheduling policies: the *select* stage of the dispatch pipeline.

"The Re-scheduler ... reorders the asynchronous kernel jobs in the Job
Queue by keeping a partial order in the original VP.  It is a
non-preemptive, optimal scheduler augmented for job dependencies"
(paper Section 2).  The partial-order invariant is enforced
structurally: policies only ever choose among each VP's *earliest*
pending job (the dispatchable heads), so jobs of one VP can never be
reordered against each other, while jobs of different VPs can.

Every policy here is listed by name in :data:`POLICIES` and must hold
the conformance invariants checked by
``tests/test_sched_conformance.py``: pick only from the candidates it
was given (or ``None``), deterministically under a fixed seed.

Most policies rank by a per-job *order key* (:meth:`SchedulingPolicy.order_key`)
and inherit the reference :meth:`~SchedulingPolicy.select` built from it;
the pipeline then keeps candidates sorted by that key in a
:class:`CandidateIndex` across a dispatch burst instead of re-ranking
every head on every decision.  A policy that ranks some other way
(fair-share) overrides ``select`` and is handed the candidate list.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from ..core.jobs import Job, JobKind
from .backlog import (
    HOST_CALL_MS,
    PROFILING_OVERHEAD_MS,
    EngineBacklog,
    engine_role,
)

#: Signature of the dispatcher's expected-duration oracle, attached to
#: duration-aware policies via :meth:`SchedulingPolicy.attach`.
ExpectedMs = Callable[[Job], float]

#: A job's rank under a keyed policy: the smallest dispatches first.
OrderKey = Tuple[Any, ...]


class SchedulingPolicy:
    """Chooses the next job to dispatch among the dispatchable heads."""

    name: str = "abstract"
    description: str = ""

    #: Rank candidates by their engine's expected backlog ahead of the
    #: order key (Kernel Interleaving feeds the starving engine first).
    backlog_first: bool = False

    #: Expected-duration oracle, attached by the pipeline.  ``None``
    #: until attached; duration-aware policies fall back to a crude
    #: static estimate so they stay usable (and deterministic) alone.
    _expected_ms: Optional[ExpectedMs] = None

    def order_key(self, job: Job) -> OrderKey:
        """The job's rank among candidates: the smallest goes first.

        The key contract: the key ends in ``job_id`` (no two candidates
        tie), and a job's key changes only when the policy picks a job
        of the same VP (:meth:`picked`).  A picked VP is in flight until
        the next event, so within one dispatch burst every candidate's
        key stays put and the pipeline can keep candidates sorted.
        """
        raise NotImplementedError(
            f"{type(self).__name__} defines neither order_key nor select"
        )

    def picked(self, job: Job) -> None:
        """Record that ``job`` was chosen (the one place state may move)."""

    def select(self, dispatchable: List[Job], backlog: EngineBacklog) -> Optional[Job]:
        """Pick the next job, or None to dispatch nothing right now.

        The reference ranking: the smallest :meth:`order_key`, after the
        job's engine backlog when :attr:`backlog_first`.  A policy that
        overrides this gets the full candidate list on every decision.
        """
        if not dispatchable:
            return None
        if self.backlog_first:
            choice = min(
                dispatchable,
                key=lambda job: (backlog.for_job(job), self.order_key(job)),
            )
        else:
            choice = min(dispatchable, key=self.order_key)
        self.picked(choice)
        return choice

    @property
    def keyed(self) -> bool:
        """Whether :meth:`select` is the key-ranked reference, so a
        :class:`CandidateIndex` may pick in its place."""
        return type(self).select is SchedulingPolicy.select

    def attach(self, expected_ms: ExpectedMs) -> None:
        """Give the policy the dispatcher's expected-duration oracle."""
        self._expected_ms = expected_ms

    def expected_ms(self, job: Job) -> float:
        """Expected duration of a job, via the oracle when attached."""
        if self._expected_ms is not None:
            return self._expected_ms(job)
        # Static fallback: crude but deterministic, so a policy used
        # outside a dispatcher (unit tests, conformance suite) still
        # ranks copies by size and kernels above host calls.
        if job.kind is JobKind.EVENT:
            return 0.0
        if job.kind in (JobKind.MALLOC, JobKind.FREE):
            return HOST_CALL_MS
        if job.is_copy:
            return job.nbytes / 1e6  # ~1 ms per MB
        return PROFILING_OVERHEAD_MS + 1.0

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__}>"


class CandidateIndex:
    """One candidate per VP, sorted by a keyed policy's order key.

    Candidates are kept per engine role, so :meth:`pick` compares one
    head per role: the smallest ``(backlog, key)`` for a backlog-first
    policy, else the smallest key.  Under the key contract that is what
    ``select`` over the same candidates returns.
    """

    def __init__(self, policy: SchedulingPolicy) -> None:
        self.policy = policy
        #: Whether to rank at all (an unkeyed policy only needs :attr:`jobs`).
        self.keyed = policy.keyed
        #: VP -> its candidate, in insertion order.
        self.jobs: Dict[str, Job] = {}
        #: Role -> ``(key, vp)`` entries, sorted (no empty lists).
        self._ranked: Dict[str, List[Tuple[OrderKey, str]]] = {}
        #: VP -> where its entry sits: ``(role, key)``.
        self._entry: Dict[str, Tuple[str, OrderKey]] = {}

    def __len__(self) -> int:
        return len(self.jobs)

    def add(self, job: Job) -> None:
        """Admit ``job`` as its VP's candidate (the VP must have none)."""
        self.jobs[job.vp] = job
        if not self.keyed:
            return
        role = engine_role(job)
        key = self.policy.order_key(job)
        self._entry[job.vp] = (role, key)
        insort(self._ranked.setdefault(role, []), (key, job.vp))

    def discard(self, vp: str) -> None:
        """Drop ``vp``'s candidate, if it has one."""
        self.jobs.pop(vp, None)
        entry = self._entry.pop(vp, None)
        if entry is None:
            return
        role, key = entry
        ranked = self._ranked[role]
        del ranked[bisect_left(ranked, (key, vp))]
        if not ranked:
            del self._ranked[role]

    def clear(self) -> None:
        self.jobs.clear()
        self._ranked.clear()
        self._entry.clear()

    def pick(self, backlog: EngineBacklog) -> Optional[Job]:
        """The keyed policy's choice among the candidates, or None."""
        best: Optional[str] = None
        best_rank: Optional[OrderKey] = None
        backlog_first = self.policy.backlog_first
        per_engine = backlog.per_engine
        for role, ranked in self._ranked.items():
            key, vp = ranked[0]
            rank: OrderKey = (per_engine.get(role, 0.0), key) if backlog_first else key
            if best_rank is None or rank < best_rank:
                best, best_rank = vp, rank
        if best is None:
            return None
        choice = self.jobs[best]
        self.policy.picked(choice)
        return choice


class FIFOPolicy(SchedulingPolicy):
    """Arrival order — the unoptimized baseline (paper Fig. 3a)."""

    name = "fifo"
    description = "arrival order; the unoptimized baseline (paper Fig. 3a)"

    def order_key(self, job: Job) -> OrderKey:
        return (job.job_id,)


class InterleavingPolicy(SchedulingPolicy):
    """Kernel Interleaving: keep both engines busy, rotate across VPs.

    Among the dispatchable per-VP heads the policy prefers

    1. jobs whose target engine has the smaller expected backlog (feed
       the starving engine — the mechanism of paper Fig. 3b), then
    2. the VP served least recently (fair rotation, which produces the
       copy/kernel pipelining of Fig. 4), then
    3. arrival order as the deterministic tie-break.
    """

    name = "interleaving"
    description = (
        "feed the engine with the smallest expected backlog, rotating "
        "across VPs (paper Fig. 3b)"
    )
    backlog_first = True

    def __init__(self) -> None:
        self._last_served: Dict[str, int] = {}
        self._serve_counter = 0

    def order_key(self, job: Job) -> OrderKey:
        return (self._last_served.get(job.vp, -1), job.job_id)

    def picked(self, job: Job) -> None:
        self._serve_counter += 1
        self._last_served[job.vp] = self._serve_counter


class ShortestJobFirstPolicy(SchedulingPolicy):
    """Shortest expected job first (non-preemptive SJF).

    Minimizes mean waiting time across VPs by draining cheap host calls
    and small copies ahead of long kernels.  Long jobs cannot be starved
    forever: a VP's later jobs only become dispatchable once its head
    runs, and every head eventually becomes the cheapest remaining.
    """

    name = "sjf"
    description = "shortest expected job first (minimize mean wait)"

    def order_key(self, job: Job) -> OrderKey:
        return (self.expected_ms(job), job.job_id)


class FairSharePolicy(SchedulingPolicy):
    """Deficit-round-robin fair share of dispatch time across VPs.

    Every VP with a dispatchable head earns ``quantum_ms`` of credit per
    decision round; dispatching charges the job's expected duration to
    its VP.  The VP deepest in credit goes next, so a VP issuing long
    kernels is throttled while ones issuing short copies catch up —
    classic DRR applied to the ΣVP job queue.  Credit moves for every
    candidate on every decision, so this policy has no order key.
    """

    name = "fair-share"
    description = "deficit round-robin: balance expected GPU time across VPs"

    def __init__(self, quantum_ms: float = 1.0) -> None:
        if quantum_ms <= 0.0:
            raise ValueError(f"quantum_ms must be > 0, got {quantum_ms}")
        self.quantum_ms = quantum_ms
        self._credit: Dict[str, float] = {}

    def select(self, dispatchable: List[Job], backlog: EngineBacklog) -> Optional[Job]:
        if not dispatchable:
            return None
        for job in dispatchable:
            self._credit[job.vp] = self._credit.get(job.vp, 0.0) + self.quantum_ms
        choice = min(
            dispatchable, key=lambda job: (-self._credit[job.vp], job.job_id)
        )
        self._credit[choice.vp] -= self.expected_ms(choice)
        return choice


class PriorityDeadlinePolicy(SchedulingPolicy):
    """QoS tiers with per-tier latency budgets (earliest deadline first).

    Each VP maps to a tier (default: ``default_tier``); a job's deadline
    is its submission time plus the tier's budget.  Jobs run earliest
    deadline first, tier breaking deadline ties, so a tier-0 VP (e.g. a
    safety-critical guest in a mixed-criticality virtual platform) keeps
    overtaking best-effort guests until the best-effort backlog ages
    past its longer budget — bounded starvation by construction.
    """

    name = "priority-deadline"
    description = "QoS tiers with latency budgets, earliest deadline first"

    def __init__(
        self,
        tiers: Optional[Mapping[str, int]] = None,
        default_tier: int = 1,
        budgets_ms: Sequence[float] = (1.0, 5.0, 25.0),
    ) -> None:
        if not budgets_ms:
            raise ValueError("budgets_ms must name at least one tier budget")
        self.tiers: Dict[str, int] = dict(tiers or {})
        self.default_tier = default_tier
        self.budgets_ms = tuple(float(b) for b in budgets_ms)

    def _tier(self, vp: str) -> int:
        tier = self.tiers.get(vp, self.default_tier)
        return max(0, min(tier, len(self.budgets_ms) - 1))

    def deadline_ms(self, job: Job) -> float:
        """The job's completion deadline: submission plus its tier's budget."""
        return job.submitted_at_ms + self.budgets_ms[self._tier(job.vp)]

    def order_key(self, job: Job) -> OrderKey:
        return (self.deadline_ms(job), self._tier(job.vp), job.job_id)


#: Every policy by name: the choices of ``--policy``, ``RunRequest.policy``
#: and ``repro policies``.  A new policy is added here.
POLICIES: Dict[str, Type[SchedulingPolicy]] = {
    cls.name: cls
    for cls in (
        FIFOPolicy,
        InterleavingPolicy,
        ShortestJobFirstPolicy,
        FairSharePolicy,
        PriorityDeadlinePolicy,
    )
}


def make_policy(name: str) -> SchedulingPolicy:
    """A fresh policy of the named kind."""
    cls = POLICIES.get(name)
    if cls is None:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown scheduling policy {name!r} ({known})")
    return cls()
