"""The scheduling layer: a staged dispatch pipeline.

The paper's Re-scheduler and Kernel Coalescing decisions used to be
smeared across the dispatcher, the rescheduler module, and the framework
wiring.  This package decomposes every dispatch decision into four
explicit stages (see ``docs/SCHEDULING.md``):

* **admission** — which per-VP queue heads are dispatchable right now
  (VP not in flight, not behind a coalescing barrier, dependencies met,
  target engine has room);
* **hold** — Kernel Coalescing's window: hold coalescible jobs until
  their group completes or the window expires (the coalescer merges
  ready groups before each decision);
* **select** — the :class:`SchedulingPolicy` choosing among candidates
  (FIFO, interleaving, SJF, fair-share, priority/deadline);
* **place** — the :class:`PlacementStrategy` binding VPs to host GPUs
  (round-robin or least-backlog).

Policies and placements are looked up by name in two tables,
:data:`POLICIES` and :data:`PLACEMENTS`; the names come from
``RunRequest.policy``/``placement`` (or ``--policy``/``--placement``).
Every entry is exercised by the conformance suite in
``tests/test_sched_conformance.py`` (no job dropped or duplicated,
per-VP partial order preserved, determinism under a fixed seed, backlog
quiesces to exactly zero).
"""

from .backlog import EngineBacklog, engine_role
from .pipeline import (
    AdmissionStage,
    Decision,
    PlacementStage,
    SchedulerPipeline,
)
from .placement import (
    PLACEMENTS,
    LeastBacklogPlacement,
    PlacementStrategy,
    RoundRobinPlacement,
    make_placement,
)
from .policies import (
    POLICIES,
    CandidateIndex,
    FairSharePolicy,
    FIFOPolicy,
    InterleavingPolicy,
    PriorityDeadlinePolicy,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
    make_policy,
)

__all__ = [
    "AdmissionStage",
    "CandidateIndex",
    "Decision",
    "EngineBacklog",
    "FIFOPolicy",
    "FairSharePolicy",
    "InterleavingPolicy",
    "LeastBacklogPlacement",
    "PLACEMENTS",
    "POLICIES",
    "PlacementStage",
    "PlacementStrategy",
    "PriorityDeadlinePolicy",
    "RoundRobinPlacement",
    "SchedulerPipeline",
    "SchedulingPolicy",
    "ShortestJobFirstPolicy",
    "engine_role",
    "make_placement",
    "make_policy",
]
