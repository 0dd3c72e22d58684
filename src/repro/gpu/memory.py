"""Device memory management.

Kernel Coalescing (paper Section 3, Fig. 5) requires that the data sets of
the coalesced kernels live at *physically-contiguous* device addresses so
one kernel instance can sweep the merged region.  The allocator therefore
tracks real addresses and can move live buffers into one contiguous
region (:meth:`DeviceMemoryAllocator.relocate`), which the coalescer does
instead of re-allocating them.

Buffers optionally carry a numpy payload so the simulation doubles as a
functional model: copies move arrays, kernels transform them, and the
examples/tests can check numerical results end to end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..backend.api import ExecutionBackend


_address = attrgetter("address")


class OutOfDeviceMemory(Exception):
    """Raised when an allocation cannot be satisfied."""


@dataclass(eq=False, slots=True)
class DeviceBuffer:
    """A contiguous region of device memory.

    Compared by identity: a buffer is a live allocation, not a value, so
    an equal-looking copy never stands in for it (see
    :meth:`DeviceMemoryAllocator.free`).
    """

    address: int
    size: int
    owner: str = ""
    payload: Any = None
    freed: bool = False
    #: Token from the execution backend's allocation ledger, when the
    #: allocator is backend-attached.
    backend_token: Optional[int] = None

    @property
    def end(self) -> int:
        return self.address + self.size

    def __repr__(self) -> str:
        return (
            f"DeviceBuffer(addr=0x{self.address:x}, size={self.size}, "
            f"owner={self.owner!r})"
        )


class DeviceMemoryAllocator:
    """First-fit allocator over a flat device address space."""

    def __init__(
        self,
        capacity_bytes: int,
        backend: Optional["ExecutionBackend"] = None,
    ):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity = capacity_bytes
        #: Execution backend mirroring allocations (``exec.backend_*``
        #: accounting); the address-space bookkeeping stays here.
        self.backend = backend
        #: Live buffers by address (sizes are positive, so no two share one).
        self._buffers: Dict[int, DeviceBuffer] = {}
        #: Free ``(address, size)`` gaps in address order, never empty-sized
        #: and never adjacent: allocation splits one, ``free`` merges.
        self._free_gaps: List[Tuple[int, int]] = [(0, capacity_bytes)]

    def __len__(self) -> int:
        return len(self._buffers)

    @property
    def used_bytes(self) -> int:
        return sum(b.size for b in self._buffers.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def _take_first_fit(self, size: int) -> Optional[int]:
        """Carve ``size`` bytes off the first gap that holds them.

        Returns the carved address, or ``None`` when no gap is large
        enough.
        """
        for index, (address, gap) in enumerate(self._free_gaps):
            if gap >= size:
                if gap == size:
                    del self._free_gaps[index]
                else:
                    self._free_gaps[index] = (address + size, gap - size)
                return address
        return None

    def _release(self, address: int, size: int) -> None:
        """Return ``[address, address + size)`` to the gap list."""
        gaps = self._free_gaps
        index = bisect.bisect_left(gaps, (address,))
        end = address + size
        if index < len(gaps) and gaps[index][0] == end:
            end += gaps[index][1]
            del gaps[index]
        if index > 0:
            before, before_size = gaps[index - 1]
            if before + before_size == address:
                gaps[index - 1] = (before, end - before)
                return
        gaps.insert(index, (address, end - address))

    def allocate(self, size: int, owner: str = "") -> DeviceBuffer:
        """First-fit allocation of ``size`` bytes."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        address = self._take_first_fit(size)
        if address is None:
            raise OutOfDeviceMemory(
                f"cannot allocate {size} bytes (free={self.free_bytes}, "
                f"largest gap={max((g for _, g in self._free_gaps), default=0)})"
            )
        buffer = DeviceBuffer(address, size, owner)
        if self.backend is not None:
            buffer.backend_token = self.backend.allocate(size, owner=owner)
        self._buffers[address] = buffer
        return buffer

    def relocate(self, buffers: Sequence[DeviceBuffer], owner: str = "") -> None:
        """Move live ``buffers`` into one contiguous region, in order.

        The memory-merge primitive of Kernel Coalescing: a single kernel
        can then sweep all of them as one data set.  The region is carved
        by first fit before the old ranges are released (in order), so
        the gaps are those of allocating it and freeing the old buffers.
        Buffers keep their payload and backend token and take ``owner``.
        """
        if not buffers:
            raise ValueError("relocate requires at least one buffer")
        live = self._buffers
        for buffer in buffers:
            if live.get(buffer.address) is not buffer:
                raise RuntimeError(f"{buffer!r} was not allocated here")
        total = sum([buffer.size for buffer in buffers])
        cursor = self._take_first_fit(total)
        if cursor is None:
            raise OutOfDeviceMemory(
                f"cannot allocate {total} contiguous bytes (free={self.free_bytes})"
            )
        old = [(buffer.address, buffer.size) for buffer in buffers]
        for buffer in buffers:
            del live[buffer.address]
            live[cursor] = buffer
            buffer.address = cursor
            buffer.owner = owner
            cursor += buffer.size
        for address, size in old:
            self._release(address, size)

    def free(self, buffer: DeviceBuffer) -> None:
        if buffer.freed:
            raise RuntimeError(f"double free of {buffer!r}")
        if self._buffers.get(buffer.address) is not buffer:
            raise RuntimeError(f"{buffer!r} was not allocated here")
        del self._buffers[buffer.address]
        self._release(buffer.address, buffer.size)
        buffer.freed = True
        buffer.payload = None
        if self.backend is not None and buffer.backend_token is not None:
            self.backend.free(buffer.backend_token)
            buffer.backend_token = None

    def are_contiguous(self, buffers: Sequence[DeviceBuffer]) -> bool:
        """True if the buffers tile one gap-free address range, in order."""
        if not buffers:
            return False
        ordered = sorted(buffers, key=lambda b: b.address)
        for left, right in zip(ordered, ordered[1:]):
            if left.end != right.address:
                return False
        return True

    def owned_by(self, owner: str) -> List[DeviceBuffer]:
        """``owner``'s live buffers in address order."""
        return sorted(
            (b for b in self._buffers.values() if b.owner == owner), key=_address
        )

    def release_owner(self, owner: str) -> int:
        """Free every buffer belonging to ``owner``; returns bytes freed."""
        released = 0
        for buffer in list(self.owned_by(owner)):
            released += buffer.size
            self.free(buffer)
        return released
