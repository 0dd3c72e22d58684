"""Device-memory handle table.

A VP never sees raw host-GPU addresses: its ``cudaMalloc`` returns an
opaque handle which the host maps to an actual device buffer.  The
indirection is what lets Kernel Coalescing transparently *re-bind* a VP's
data to a physically-contiguous region (paper Fig. 5) without the guest
noticing.
"""

from __future__ import annotations

import itertools
from typing import Dict

from ..gpu.memory import DeviceBuffer


class HandleTable:
    """Maps opaque guest handles to host device buffers."""

    def __init__(self):
        self._buffers: Dict[str, DeviceBuffer] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._buffers)

    def __contains__(self, handle: str) -> bool:
        return handle in self._buffers

    def new_handle(self, vp: str) -> str:
        """Mint a fresh, unbound handle for ``vp``."""
        return f"{vp}/buf{next(self._counter)}"

    def bind(self, handle: str, buffer: DeviceBuffer) -> None:
        if handle in self._buffers:
            raise ValueError(f"handle {handle!r} is already bound")
        self._buffers[handle] = buffer

    def rebind(self, handle: str, buffer: DeviceBuffer) -> DeviceBuffer:
        """Point ``handle`` at a new buffer; returns the old one.

        Payload moves with the handle so functional state survives the
        coalescer's re-layout.
        """
        old = self.buffer(handle)
        buffer.payload = old.payload
        self._buffers[handle] = buffer
        return old

    def buffer(self, handle: str) -> DeviceBuffer:
        try:
            return self._buffers[handle]
        except KeyError:
            raise KeyError(f"unbound device handle {handle!r}") from None

    def release(self, handle: str) -> DeviceBuffer:
        try:
            return self._buffers.pop(handle)
        except KeyError:
            raise KeyError(f"unbound device handle {handle!r}") from None
