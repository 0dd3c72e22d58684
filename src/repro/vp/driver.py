"""The virtual GPU device driver (guest side).

"This is a driver for the guest operating system that works as an
interface between the GPU user library and the virtual GPU hardware
model" (paper Section 2).  Every call through the driver costs guest CPU
time — an ioctl-style kernel crossing that, under binary translation,
becomes a measurable part of SigmaVP's per-call overhead.
"""

from __future__ import annotations

from .cpu import GUEST_DRIVER_CALL_OPS
from .platform import VirtualPlatform
from .vgpu import VirtualEmbeddedGPU

#: Guest ops spent in the GPU user library per intercepted call
#: (argument marshalling before the driver crossing).
USER_LIBRARY_CALL_OPS = GUEST_DRIVER_CALL_OPS / 3.0

#: Guest ops spent inside the driver per call (the kernel crossing).
DRIVER_CALL_OPS = GUEST_DRIVER_CALL_OPS - USER_LIBRARY_CALL_OPS


class VirtualGPUDriver:
    """Guest OS driver routing user-library requests to the virtual GPU."""

    def __init__(self, vp: VirtualPlatform, vgpu: VirtualEmbeddedGPU):
        self.vp = vp
        self.vgpu = vgpu
        self.calls = 0

    def __repr__(self) -> str:
        return f"<VirtualGPUDriver vp={self.vp.name} calls={self.calls}>"

    def submit(self, job, payload_bytes: int = 0):
        """Generator: carry one request from the library to the device.

        Charges the guest-side path cost (user library + driver) on the
        VP's CPU, then hands the request to the virtual GPU hardware
        model, which pushes it into the host Job Queue over IPC.  The
        guest time and the IPC send share one timeout: the send starts
        when the guest path ends.
        """
        self.calls += 1
        yield from self.vp.gate()
        guest_ms = self.vp.charge_ops(USER_LIBRARY_CALL_OPS + DRIVER_CALL_OPS)
        yield from self.vgpu.push(job, payload_bytes=payload_bytes, after_ms=guest_ms)
