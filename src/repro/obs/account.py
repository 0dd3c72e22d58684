"""Per-VP accounting: who used the host GPU, and how much.

The one walk over a finished run's completed log.  Everything here
derives from state the simulation already records — job timestamps in
the dispatcher's completed log, coalesce membership, the guest CPU time
and elapsed time each virtual platform recorded, the scheduling
policy's deadlines — so accounting is a pure *read* of a finished run:
enabling it cannot perturb scheduling, and scenario digests stay
bit-identical with accounting on or off.

Emitted metric families (all prefixed ``account.``):

* ``account.vp.<name>.busy_ms`` / ``.wait_ms`` — service time on host
  engines vs time parked in the Job Queue (scheduling + coalescing
  holds), per VP.
* ``account.vp.<name>.jobs`` / ``.coalesced`` — jobs completed for the
  VP, and how many of those rode inside a merged (coalesced) launch.
* ``account.coalesce.share`` — fraction of all completed jobs served
  via coalesced members (the multiplexing win the paper's Kernel
  Coalescing section claims).
* ``account.fairness.jain`` — Jain's fairness index over per-VP service
  time: 1.0 when every VP got an equal share, ``1/n`` when one VP
  monopolized the host GPU.  The natural scoreboard for the fair-share
  DRR policy.
* ``account.deadline.hits`` / ``.misses`` (+ per-VP) — completion-time
  deadline attainment when the active policy assigns deadlines
  (duck-typed on ``deadline_ms(job)``, i.e. the priority-deadline
  policy).

:func:`render_accounts` (``repro account``) adds each VP's guest CPU
and elapsed time, and a per-kind table of mean wait and busy time.

Like everything in ``repro.obs``, this module is duck-typed against the
framework (no import of ``repro.core``) and collection only runs when a
metrics registry is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry


@dataclass
class VPUsage:
    """One VP's resource-usage account for a finished run."""

    vp: str
    jobs: int = 0
    coalesced_jobs: int = 0
    busy_ms: float = 0.0
    wait_ms: float = 0.0
    deadline_hits: int = 0
    deadline_misses: int = 0
    #: Guest-side CPU time the VP itself recorded.
    guest_cpu_ms: float = 0.0
    #: The VP's start-to-finish simulated time (``None`` if it never ran).
    elapsed_ms: Optional[float] = None

    @property
    def total_ms(self) -> float:
        return self.busy_ms + self.wait_ms


@dataclass
class KindUsage:
    """One job kind's totals over every VP's completed jobs."""

    kind: str
    jobs: int = 0
    busy_ms: float = 0.0
    wait_ms: float = 0.0

    @property
    def mean_busy_ms(self) -> float:
        return self.busy_ms / self.jobs if self.jobs else 0.0

    @property
    def mean_wait_ms(self) -> float:
        return self.wait_ms / self.jobs if self.jobs else 0.0


def jain_index(values: List[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 = perfectly fair; ``1/n`` = one party took everything.  An empty
    or all-zero population is vacuously fair (1.0).
    """
    n = len(values)
    if n == 0:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0.0:
        return 1.0
    return (total * total) / (n * squares)


def _walk(framework: Any) -> Tuple[Dict[str, VPUsage], Dict[str, KindUsage]]:
    """Per-VP and per-kind accounts from one pass over the completed log.

    Members of merged (coalesced) jobs inherit the merged job's dispatch
    and completion points — they were absorbed, not individually served —
    and are flagged as coalesced.  Synthetic merged-group rows (whose
    ``vp`` names no attached session) are excluded, so every guest call
    counts once, in both tables.
    """
    sessions = getattr(framework, "sessions", {})
    usage: Dict[str, VPUsage] = {}
    for name in sorted(sessions):
        vp = sessions[name].vp
        usage[name] = VPUsage(
            vp=name, guest_cpu_ms=vp.guest_cpu_ms, elapsed_ms=vp.elapsed_ms
        )
    kinds: Dict[str, KindUsage] = {}
    dispatcher = getattr(framework, "dispatcher", None)
    if dispatcher is None:
        return usage, kinds
    deadline_of = getattr(getattr(dispatcher, "policy", None), "deadline_ms", None)

    dispatch_point: Dict[int, float] = {}
    member_ids: set = set()
    for job in dispatcher.completed_log:
        if job.dispatched_at_ms is not None:
            dispatch_point[job.job_id] = job.dispatched_at_ms
            for member in job.members:
                dispatch_point.setdefault(member.job_id, job.dispatched_at_ms)
                member_ids.add(member.job_id)

    for job in dispatcher.completed_log:
        account = usage.get(job.vp)
        if account is None:
            continue  # synthetic merged-group rows
        dispatched = dispatch_point.get(job.job_id)
        if dispatched is None or job.completed_at_ms is None:
            continue
        wait = max(0.0, dispatched - job.submitted_at_ms)
        busy = max(0.0, job.completed_at_ms - dispatched)
        account.jobs += 1
        if job.job_id in member_ids:
            account.coalesced_jobs += 1
        account.wait_ms += wait
        account.busy_ms += busy
        kind = kinds.get(job.kind.name)
        if kind is None:
            kind = kinds[job.kind.name] = KindUsage(kind=job.kind.name)
        kind.jobs += 1
        kind.wait_ms += wait
        kind.busy_ms += busy
        if deadline_of is not None:
            if job.completed_at_ms <= deadline_of(job):
                account.deadline_hits += 1
            else:
                account.deadline_misses += 1
    return usage, kinds


def compute_usage(framework: Any) -> Dict[str, VPUsage]:
    """Per-VP usage accounts from the dispatcher's completed log."""
    return _walk(framework)[0]


def kind_breakdown(framework: Any) -> Dict[str, KindUsage]:
    """Per-kind wait/busy totals (keyed by job-kind name) of the same walk."""
    return _walk(framework)[1]


def coalesce_share(usage: Dict[str, VPUsage]) -> float:
    """Fraction of completed per-VP jobs served inside merged launches."""
    jobs = sum(u.jobs for u in usage.values())
    if jobs == 0:
        return 0.0
    return sum(u.coalesced_jobs for u in usage.values()) / jobs


def collect_accounts(
    framework: Any, registry: Optional[MetricsRegistry] = None
) -> Dict[str, VPUsage]:
    """Derive per-VP accounts and surface them as ``account.*`` metrics.

    Called from :func:`repro.obs.metrics.collect_framework` at the end
    of every captured run; safe to call directly on any finished
    framework.  Returns the computed usage map so callers (the
    ``repro account`` CLI) need not recompute it.
    """
    usage = compute_usage(framework)
    if registry is None:
        from . import metrics as _metrics_mod  # local: avoid cycle at import

        registry = _metrics_mod.REGISTRY
    if registry is None:
        return usage

    any_deadlines = False
    for name in sorted(usage):
        account = usage[name]
        prefix = f"account.vp.{name}"
        registry.gauge(f"{prefix}.busy_ms").set(account.busy_ms)
        registry.gauge(f"{prefix}.wait_ms").set(account.wait_ms)
        registry.counter(f"{prefix}.jobs").inc(account.jobs)
        registry.counter(f"{prefix}.coalesced").inc(account.coalesced_jobs)
        if account.deadline_hits or account.deadline_misses:
            any_deadlines = True
            registry.counter(f"{prefix}.deadline_hits").inc(account.deadline_hits)
            registry.counter(f"{prefix}.deadline_misses").inc(account.deadline_misses)
    registry.gauge("account.coalesce.share").set(coalesce_share(usage))
    registry.gauge("account.fairness.jain").set(
        jain_index([u.busy_ms for u in usage.values()])
    )
    if any_deadlines:
        registry.counter("account.deadline.hits").inc(
            sum(u.deadline_hits for u in usage.values())
        )
        registry.counter("account.deadline.misses").inc(
            sum(u.deadline_misses for u in usage.values())
        )
    return usage


def render_accounts(framework: Any) -> str:
    """Text report for ``repro account``: per-VP and per-kind tables."""
    from ..analysis.reporting import render_table  # local: avoid cycle

    usage, kinds = _walk(framework)
    share = coalesce_share(usage)
    jain = jain_index([u.busy_ms for u in usage.values()])
    has_deadlines = any(
        u.deadline_hits or u.deadline_misses for u in usage.values()
    )
    headers = ["VP", "Jobs", "Coalesced", "Busy (ms)", "Wait (ms)",
               "Guest CPU (ms)", "Elapsed (ms)"]
    if has_deadlines:
        headers += ["DL hit", "DL miss"]
    rows: List[List[object]] = []
    for name in sorted(usage):
        u = usage[name]
        row: List[object] = [
            u.vp, u.jobs, u.coalesced_jobs, u.busy_ms, u.wait_ms,
            u.guest_cpu_ms, u.elapsed_ms if u.elapsed_ms is not None else "-",
        ]
        if has_deadlines:
            row += [u.deadline_hits, u.deadline_misses]
        rows.append(row)
    per_vp = render_table(headers, rows, title="Per-VP accounting (account.*)")
    per_kind = render_table(
        ["Kind", "Jobs", "Mean wait (ms)", "Mean busy (ms)"],
        [
            (k.kind, k.jobs, k.mean_wait_ms, k.mean_busy_ms)
            for k in (kinds[name] for name in sorted(kinds))
        ],
        title="Per-kind latency",
    )
    return (
        f"{per_vp}\n"
        f"\ncoalesce share: {share:.3f}"
        f"\nJain fairness (busy_ms): {jain:.4f}"
        f"\n\n{per_kind}"
    )
