"""The scheduling layer: a pluggable dispatch pipeline.

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
  (FIFO, interleaving, SJF, fair-share, priority/deadline, or any
  registered plugin);
* **place** — the :class:`PlacementStrategy` binding VPs to host GPUs
  (round-robin or least-backlog).

Policies and placements live in name-keyed registries
(:func:`register_policy` / :func:`register_placement`); every
registered implementation is exercised by the conformance suite in
``tests/test_sched_conformance.py``, so plugins inherit the safety net
(no job dropped or duplicated, per-VP partial order preserved,
determinism under a fixed seed, backlog quiesces to exactly zero).

A :class:`SchedulerConfig` carries the stage choices plus the host-side
cost constants from the CLI through the scenario farm, the framework,
and the dispatcher.
"""

from .backlog import EngineBacklog, engine_role
from .config import SchedulerConfig
from .pipeline import (
    AdmissionStage,
    Decision,
    PlacementStage,
    SchedulerPipeline,
)
from .placement import (
    LeastBacklogPlacement,
    PlacementStrategy,
    RoundRobinPlacement,
)
from .policies import (
    CandidateIndex,
    FairSharePolicy,
    FIFOPolicy,
    InterleavingPolicy,
    PriorityDeadlinePolicy,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
)
from .registry import (
    available_placements,
    available_policies,
    make_placement,
    make_policy,
    register_placement,
    register_policy,
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
    "PlacementStage",
    "PlacementStrategy",
    "PriorityDeadlinePolicy",
    "RoundRobinPlacement",
    "SchedulerConfig",
    "SchedulerPipeline",
    "SchedulingPolicy",
    "ShortestJobFirstPolicy",
    "available_placements",
    "available_policies",
    "engine_role",
    "make_placement",
    "make_policy",
    "register_placement",
    "register_policy",
]
