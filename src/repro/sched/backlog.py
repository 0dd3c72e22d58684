"""Engine backlog accounting for scheduling decisions.

The Re-scheduler "reorders the executions to reduce the wasted cycles
across the two engines ... by using the expected time for each
invocation" (paper Section 3) — :class:`EngineBacklog` maintains those
expected-time totals per hardware engine, and the interleaving and
least-backlog stages balance against them.

Accounting is *audited*: every ``add`` must be matched by one ``retire``
with the same expected time.  Floating-point subtraction can leave tiny
residues (and a buggy caller can leave large ones); instead of silently
clamping at zero — which masked add/retire mismatches — the backlog
counts outstanding jobs per engine, snaps the total to exactly ``0.0``
when an engine quiesces, and records any residue above
:data:`DRIFT_TOLERANCE_MS` as *drift* (the ``dispatch.backlog_drift``
obs counter).

The two host-side costs behind every expected time live here too: the
dispatcher charges them and the policies' static fallback estimates
with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..core.jobs import Job, JobKind
from ..obs import metrics as _obs_metrics

#: Host-side time to service a malloc/free request (driver bookkeeping).
HOST_CALL_MS = 0.002

#: Host-side profiling cost charged per kernel *job* (the CUPTI-style
#: per-launch instrumentation SigmaVP's Profiler needs for Section 4's
#: estimation).  A coalesced launch pays this once for its whole batch —
#: one of the fixed per-invocation overheads Kernel Coalescing amortizes.
PROFILING_OVERHEAD_MS = 0.15

#: Residue below this is IEEE-754 noise from summing expected times; at
#: or above it, the add/retire streams genuinely disagree.
DRIFT_TOLERANCE_MS = 1e-6


_ENGINES = {
    JobKind.COPY_H2D: "h2d",
    JobKind.COPY_D2H: "d2h",
    JobKind.KERNEL: "compute",
}

#: ``(kind, device)`` -> role name, filled on first use of each pair.
_ROLES: Dict[Tuple[JobKind, int], str] = {}


def engine_role(job: Job) -> str:
    """Which hardware engine a job occupies.

    On a multi-GPU host the role is qualified by the device the job is
    bound to (``job.device``), so each GPU's engines are balanced
    independently.  Policies rank every candidate by its role's backlog,
    so the names come from a table rather than being built per call.
    """
    try:
        return _ROLES[job.kind, job.device]
    except KeyError:
        pass
    engine = _ENGINES.get(job.kind)
    if engine is None:
        role = "host"  # malloc/free: host-side bookkeeping, no engine
    elif job.device:
        role = f"{engine}@{job.device}"
    else:
        role = engine
    _ROLES[job.kind, job.device] = role
    return role


def role_device(role: str) -> int:
    """The device index encoded in an engine role (0 when unqualified)."""
    _, _, device = role.partition("@")
    return int(device) if device else 0


@dataclass
class EngineBacklog:
    """Predicted outstanding work per engine, maintained by the dispatcher."""

    per_engine: Dict[str, float] = field(default_factory=dict)
    #: Jobs added but not yet retired, per engine — the audit trail that
    #: lets the float total snap back to exactly zero at quiesce.
    outstanding: Dict[str, int] = field(default_factory=dict)
    #: Add/retire mismatches observed (residue above tolerance).
    drift_events: int = 0
    #: Total absolute drift absorbed, in expected-time milliseconds.
    drift_ms: float = 0.0

    def for_job(self, job: Job) -> float:
        return self.per_engine.get(engine_role(job), 0.0)

    def for_device(self, device: int) -> float:
        """Total expected backlog across one device's engines."""
        return sum(
            ms for role, ms in self.per_engine.items()
            if role != "host" and role_device(role) == device
        )

    def add(self, job: Job, expected_ms: float) -> None:
        role = engine_role(job)
        self.per_engine[role] = self.per_engine.get(role, 0.0) + expected_ms
        self.outstanding[role] = self.outstanding.get(role, 0) + 1

    def retire(self, job: Job, expected_ms: float) -> None:
        role = engine_role(job)
        remaining = self.per_engine.get(role, 0.0) - expected_ms
        left = self.outstanding.get(role, 0) - 1
        self.outstanding[role] = max(left, 0)
        residue = 0.0
        if left <= 0:
            # Engine quiesced: whatever is left is pure accounting error.
            residue = abs(remaining)
            remaining = 0.0
        elif remaining < 0.0:
            # Still-busy engine driven negative: a retire outran its add.
            residue = -remaining
            remaining = 0.0
        self.per_engine[role] = remaining
        if residue >= DRIFT_TOLERANCE_MS:
            self._record_drift(residue)

    def _record_drift(self, residue: float) -> None:
        self.drift_events += 1
        self.drift_ms += residue
        registry = _obs_metrics.REGISTRY
        if registry is not None:
            registry.counter("dispatch.backlog_drift").inc()

    @property
    def quiesced(self) -> bool:
        """True when every engine has zero outstanding jobs and exactly
        zero expected backlog — the invariant at the end of a scenario."""
        return all(count == 0 for count in self.outstanding.values()) and all(
            ms == 0.0 for ms in self.per_engine.values()
        )
