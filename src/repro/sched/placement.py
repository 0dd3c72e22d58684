"""Placement strategies: the *place* stage of the dispatch pipeline.

"SigmaVP multiplexes the host GPUs" (paper Section 2): on a multi-GPU
host every VP gets a device affinity on its first request and its
buffers and kernels stay on that device — memory allocated on one GPU
is not addressable from another, so placement is sticky by necessity.
What *is* pluggable is the initial pick, which this module decomposes
out of the dispatcher's hardcoded round-robin.
"""

from __future__ import annotations

import abc
from typing import Dict, Type

from ..core.jobs import Job
from .backlog import EngineBacklog


class PlacementStrategy(abc.ABC):
    """Binds VPs to host GPU indices (sticky after the first pick)."""

    name: str = "abstract"
    description: str = ""

    def __init__(self) -> None:
        #: VP name -> device index, fixed at first use.
        self._assigned: Dict[str, int] = {}

    def device_for(
        self, vp: str, n_devices: int, backlog: EngineBacklog
    ) -> int:
        """The device a VP is bound to (assigned by :meth:`pick` on
        first use, sticky thereafter)."""
        device = self._assigned.get(vp)
        if device is None:
            device = self.pick(vp, n_devices, backlog)
            if not 0 <= device < n_devices:
                raise ValueError(
                    f"{self.name!r} picked device {device} for {vp!r}, "
                    f"host has {n_devices}"
                )
            self._assigned[vp] = device
        return device

    def bind(self, job: Job, n_devices: int, backlog: EngineBacklog) -> None:
        """Stamp a job with its VP's device (merged jobs keep theirs)."""
        if job.members:
            return  # merged jobs carry their members' device
        job.device = self.device_for(job.vp, n_devices, backlog)

    @abc.abstractmethod
    def pick(self, vp: str, n_devices: int, backlog: EngineBacklog) -> int:
        """Choose the device for a first-seen VP."""

    @property
    def assignments(self) -> Dict[str, int]:
        """Read-only view of VP -> device decisions made so far."""
        return dict(self._assigned)

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} assigned={len(self._assigned)}>"


class RoundRobinPlacement(PlacementStrategy):
    """Cycle VPs across devices in first-use order (the legacy default)."""

    name = "round-robin"
    description = "cycle VPs across host GPUs in first-use order"

    def pick(self, vp: str, n_devices: int, backlog: EngineBacklog) -> int:
        return len(self._assigned) % n_devices


class LeastBacklogPlacement(PlacementStrategy):
    """Bind a first-seen VP to the device with the least expected work.

    Ranks devices by total expected engine backlog, then by how many VPs
    are already bound there, then by index — so with idle devices it
    degrades to round-robin, and under skewed load (one VP hammering
    long kernels) new VPs land away from the hot device.
    """

    name = "least-backlog"
    description = "bind new VPs to the host GPU with the least expected work"

    def pick(self, vp: str, n_devices: int, backlog: EngineBacklog) -> int:
        counts = [0] * n_devices
        for device in self._assigned.values():
            counts[device] += 1
        return min(
            range(n_devices),
            key=lambda idx: (backlog.for_device(idx), counts[idx], idx),
        )


#: Every placement by name: the choices of ``--placement``,
#: ``RunRequest.placement`` and ``repro policies``.
PLACEMENTS: Dict[str, Type[PlacementStrategy]] = {
    cls.name: cls for cls in (RoundRobinPlacement, LeastBacklogPlacement)
}


def make_placement(name: str) -> PlacementStrategy:
    """A fresh placement strategy of the named kind."""
    cls = PLACEMENTS.get(name)
    if cls is None:
        known = ", ".join(sorted(PLACEMENTS))
        raise ValueError(f"unknown placement strategy {name!r} ({known})")
    return cls()
