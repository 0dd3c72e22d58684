"""Device-memory handle table.

A VP never sees raw host-GPU addresses: its ``cudaMalloc`` returns an
opaque handle which the host maps to an actual device buffer.  The
indirection is what lets Kernel Coalescing transparently *move* a VP's
data into a physically-contiguous region (paper Fig. 5) without the guest
noticing.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List

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

    def bound(self, handles: Iterable[str]) -> List[DeviceBuffer]:
        """The buffers of the bound ``handles``, each handle once, in
        first-seen order (unbound handles are skipped)."""
        buffers = self._buffers
        return [buffers[h] for h in dict.fromkeys(handles) if h in buffers]

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
