"""The virtual embedded GPU hardware model (guest side).

"The Virtual Embedded GPU Hardware Model pushes the requested kernels
into the Job Queue in the host machine through the IPC manager" (paper
Section 2).  It is the last guest-side stop: it stamps each request with
the VP's sequence number (the per-VP partial order the Re-scheduler must
preserve) and ships it across the IPC boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..core.ipc import IPCManager
    from ..core.jobs import Job

from .platform import VirtualPlatform


class VirtualEmbeddedGPU:
    """The guest-visible GPU device; forwards work to the host."""

    def __init__(self, vp: VirtualPlatform, ipc: "IPCManager"):
        self.vp = vp
        self.ipc = ipc
        self._seq = 0
        self.jobs_pushed = 0

    def __repr__(self) -> str:
        return f"<VirtualEmbeddedGPU vp={self.vp.name} pushed={self.jobs_pushed}>"

    def next_seq(self) -> int:
        """The next per-VP sequence number (the partial-order stamp)."""
        seq = self._seq
        self._seq += 1
        return seq

    def push(self, job: "Job", payload_bytes: int = 0, after_ms: float = 0.0):
        """Generator: send ``job`` to the host Job Queue over IPC.

        The send starts ``after_ms`` from now (see
        :meth:`~repro.core.ipc.IPCManager.submit`).
        """
        self.jobs_pushed += 1
        yield from self.ipc.submit(job, payload_bytes=payload_bytes, after_ms=after_ms)
