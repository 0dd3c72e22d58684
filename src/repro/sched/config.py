"""Scheduler configuration: one object that travels every layer.

:class:`SchedulerConfig` names the pluggable stages (policy, placement)
and carries the host-side cost constants the dispatcher used to keep as
module globals.  Experiments parameterize these fields instead of
monkeypatching ``repro.core.dispatcher`` module state, and the scenario
farm ships them across process boundaries as plain JSON-able values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Host-side time to service a malloc/free request (driver bookkeeping).
DEFAULT_HOST_CALL_MS = 0.002

#: Host-side profiling cost charged per kernel *job* (the CUPTI-style
#: per-launch instrumentation SigmaVP's Profiler needs for Section 4's
#: estimation).  A coalesced launch pays this once for its whole batch —
#: one of the fixed per-invocation overheads Kernel Coalescing amortizes.
DEFAULT_PROFILING_OVERHEAD_MS = 0.15

#: Environment switch for the backlog-accounting debug assertions.
DEBUG_ENV_VAR = "REPRO_SCHED_DEBUG"


def debug_from_env() -> bool:
    """Whether ``REPRO_SCHED_DEBUG`` asks for backlog drift assertions."""
    return os.environ.get(DEBUG_ENV_VAR, "0").lower() not in ("0", "", "false")


@dataclass(frozen=True)
class SchedulerConfig:
    """Configuration of the dispatch pipeline's pluggable stages.

    ``policy=None`` keeps the legacy behavior: the framework derives the
    policy from its ``interleaving`` flag (``"interleaving"`` when on,
    ``"fifo"`` when off), which is what keeps pre-refactor scenario
    digests bit-identical.  Every field is JSON-able so the config can
    ride inside a :class:`~repro.exec.FarmJob`'s kwargs.
    """

    #: Registered policy name (see :func:`repro.sched.available_policies`),
    #: or ``None`` to derive from the framework's ``interleaving`` flag.
    policy: Optional[str] = None
    #: Registered placement name (device selection across host GPUs).
    placement: str = "round-robin"
    #: Host-side time to service a malloc/free request.
    host_call_ms: float = DEFAULT_HOST_CALL_MS
    #: Host-side profiling cost charged once per kernel job.
    profiling_overhead_ms: float = DEFAULT_PROFILING_OVERHEAD_MS
    #: Turn backlog-accounting mismatches into hard assertion errors
    #: (also switchable globally via ``REPRO_SCHED_DEBUG=1``).
    debug: bool = False

    def __post_init__(self) -> None:
        if self.host_call_ms < 0.0:
            raise ValueError(
                f"host_call_ms must be >= 0, got {self.host_call_ms}"
            )
        if self.profiling_overhead_ms < 0.0:
            raise ValueError(
                "profiling_overhead_ms must be >= 0, got "
                f"{self.profiling_overhead_ms}"
            )

    def resolve_policy(self, interleaving: bool = True) -> str:
        """The policy name to instantiate given the legacy flag."""
        if self.policy is not None:
            return self.policy
        return "interleaving" if interleaving else "fifo"

    @property
    def debug_enabled(self) -> bool:
        return self.debug or debug_from_env()

    def is_default_stages(self) -> bool:
        """True when policy/placement match the legacy hardcoded wiring."""
        return self.policy is None and self.placement == "round-robin"

    @classmethod
    def from_names(
        cls,
        policy: Optional[str] = None,
        placement: Optional[str] = None,
    ) -> "SchedulerConfig":
        """Build a config from optional CLI/farm-style names."""
        kwargs: Dict[str, Any] = {}
        if policy is not None:
            kwargs["policy"] = policy
        if placement is not None:
            kwargs["placement"] = placement
        return cls(**kwargs)
