"""Tests for the device memory allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.backend import NumpyBackend
from repro.gpu import DeviceBuffer, DeviceMemoryAllocator, OutOfDeviceMemory


def test_allocate_basics():
    mem = DeviceMemoryAllocator(1024)
    buf = mem.allocate(256, owner="vp0")
    assert buf.size == 256
    assert buf.owner == "vp0"
    assert mem.used_bytes == 256
    assert mem.free_bytes == 768


def test_allocate_zero_rejected():
    mem = DeviceMemoryAllocator(1024)
    with pytest.raises(ValueError):
        mem.allocate(0)


def test_capacity_validation():
    with pytest.raises(ValueError):
        DeviceMemoryAllocator(0)


def test_out_of_memory():
    mem = DeviceMemoryAllocator(100)
    mem.allocate(60)
    with pytest.raises(OutOfDeviceMemory):
        mem.allocate(50)


def test_free_reclaims_space():
    mem = DeviceMemoryAllocator(100)
    buf = mem.allocate(100)
    mem.free(buf)
    assert mem.free_bytes == 100
    again = mem.allocate(100)
    assert again.address == 0


def test_double_free_rejected():
    mem = DeviceMemoryAllocator(100)
    buf = mem.allocate(10)
    mem.free(buf)
    with pytest.raises(RuntimeError):
        mem.free(buf)


def test_free_foreign_buffer_rejected():
    mem_a = DeviceMemoryAllocator(100)
    mem_b = DeviceMemoryAllocator(100)
    buf = mem_a.allocate(10)
    with pytest.raises(RuntimeError):
        mem_b.free(buf)


def test_free_of_an_equal_looking_copy_rejected():
    mem = DeviceMemoryAllocator(1 << 20)
    live = mem.allocate(4096, owner="vp0")
    impostor = DeviceBuffer(address=live.address, size=live.size, owner="vp0")
    with pytest.raises(RuntimeError, match="not allocated here"):
        mem.free(impostor)
    # The live buffer still owns its range: the next allocation lands after it.
    assert not live.freed
    assert mem.allocate(4096).address == live.end


def test_first_fit_reuses_gap():
    mem = DeviceMemoryAllocator(300)
    a = mem.allocate(100)
    b = mem.allocate(100)
    mem.allocate(100)
    mem.free(a)
    mem.free(b)
    # A 150-byte allocation fits in the merged [0, 200) gap.
    buf = mem.allocate(150)
    assert buf.address == 0


def test_relocate_makes_buffers_adjacent():
    mem = DeviceMemoryAllocator(1000)
    a, _, b, _, c = (mem.allocate(size) for size in (100, 10, 200, 10, 50))
    mem.relocate([a, b, c], owner="coalesced")
    assert mem.are_contiguous([a, b, c])
    assert a.end == b.address
    assert b.end == c.address
    assert {buffer.owner for buffer in (a, b, c)} == {"coalesced"}


def test_relocate_skips_fragmented_gaps():
    mem = DeviceMemoryAllocator(1000)
    a = mem.allocate(100)       # [0, 100)
    b = mem.allocate(80)        # [100, 180)
    c = mem.allocate(80)        # [180, 260)
    mem.free(a)                 # gap [0, 100)
    mem.relocate([b, c])
    # 160 bytes do not fit the 100-byte gap; placed after existing data.
    assert b.address == 260
    assert mem.are_contiguous([b, c])
    # The old ranges are free again, merged with the gap before them.
    assert mem._free_gaps == [(0, 260), (420, 580)]


def test_relocate_validation():
    mem = DeviceMemoryAllocator(100)
    with pytest.raises(ValueError):
        mem.relocate([])
    foreign = DeviceMemoryAllocator(100).allocate(10)
    with pytest.raises(RuntimeError, match="not allocated here"):
        mem.relocate([foreign])
    freed = mem.allocate(10)
    mem.free(freed)
    with pytest.raises(RuntimeError, match="not allocated here"):
        mem.relocate([freed])


def test_relocate_out_of_memory_keeps_layout():
    mem = DeviceMemoryAllocator(100)
    a, b = mem.allocate(30), mem.allocate(30)
    with pytest.raises(OutOfDeviceMemory):
        mem.relocate([a, b])
    assert (a.address, b.address) == (0, 30)
    assert mem._free_gaps == [(60, 40)]


def test_relocate_moves_buffers_without_backend_calls():
    backend = NumpyBackend()
    mem = DeviceMemoryAllocator(1000, backend=backend)
    a, b = mem.allocate(100, owner="vp0"), mem.allocate(100, owner="vp1")
    a.payload = "a's data"
    tokens, live = (a.backend_token, b.backend_token), dict(backend._live)
    mem.relocate([b, a], owner="coalesced#1")
    assert (b.address, a.address) == (200, 300)
    assert a.payload == "a's data"
    assert (a.backend_token, b.backend_token) == tokens
    assert backend._live == live
    assert len(mem) == 2
    mem.free(a)
    mem.free(b)
    assert backend.live_bytes == 0
    assert mem._free_gaps == [(0, 1000)]


def test_are_contiguous_detects_gap():
    mem = DeviceMemoryAllocator(1000)
    a = mem.allocate(100)
    _gap = mem.allocate(100)
    b = mem.allocate(100)
    assert not mem.are_contiguous([a, b])
    assert not mem.are_contiguous([])


def test_owner_tracking_and_release():
    mem = DeviceMemoryAllocator(1000)
    mem.allocate(100, owner="vp0")
    mem.allocate(200, owner="vp0")
    mem.allocate(50, owner="vp1")
    assert len(mem.owned_by("vp0")) == 2
    released = mem.release_owner("vp0")
    assert released == 300
    assert mem.owned_by("vp0") == []
    assert len(mem.owned_by("vp1")) == 1


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=20))
def test_contiguous_allocation_total_and_order(sizes):
    mem = DeviceMemoryAllocator(2 * 64 * 20)
    buffers = [mem.allocate(size) for size in reversed(sizes)][::-1]
    mem.relocate(buffers)
    assert [b.size for b in buffers] == sizes
    assert mem.are_contiguous(buffers)
    span = buffers[-1].end - buffers[0].address
    assert span == sum(sizes)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=128)),
        min_size=1,
        max_size=50,
    )
)
def test_allocator_never_overlaps(ops):
    """Property: live buffers never overlap, whatever the alloc/free pattern."""
    mem = DeviceMemoryAllocator(4096)
    live = []
    for is_alloc, size in ops:
        if is_alloc or not live:
            try:
                live.append(mem.allocate(size))
            except OutOfDeviceMemory:
                pass
        else:
            mem.free(live.pop(0))
    ordered = sorted(live, key=lambda b: b.address)
    for left, right in zip(ordered, ordered[1:]):
        assert left.end <= right.address
    assert mem.used_bytes == sum(b.size for b in live)


# -- oracle: the gap scan the free-gap index replaced ------------------------------


class ScanAllocator:
    """First fit by rescanning the live buffers on every call.

    The allocator's original algorithm, kept as the reference its
    free-gap index must agree with, address for address.  It relocates
    buffers as the coalescer once did: allocate a contiguous region,
    then free the old buffers in order.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.live = []  # (address, size), address order

    def gaps(self):
        gaps, cursor = [], 0
        for address, size in self.live:
            if address > cursor:
                gaps.append((cursor, address - cursor))
            cursor = max(cursor, address + size)
        if cursor < self.capacity:
            gaps.append((cursor, self.capacity - cursor))
        return gaps

    @property
    def free_bytes(self):
        return self.capacity - sum(size for _, size in self.live)

    def allocate_contiguous(self, sizes):
        total = sum(sizes)
        for address, gap in self.gaps():
            if gap >= total:
                cursor, addresses = address, []
                for size in sizes:
                    self.live.append((cursor, size))
                    addresses.append(cursor)
                    cursor += size
                self.live.sort()
                return addresses
        return None

    def oom_message(self, sizes, contiguous):
        total = sum(sizes)
        if contiguous:
            return f"cannot allocate {total} contiguous bytes (free={self.free_bytes})"
        largest = max((g for _, g in self.gaps()), default=0)
        return (
            f"cannot allocate {total} bytes (free={self.free_bytes}, "
            f"largest gap={largest})"
        )

    def free(self, address, size):
        self.live.remove((address, size))

    def relocate(self, old):
        """Addresses for the ``(address, size)`` buffers ``old``, in order."""
        addresses = self.allocate_contiguous([size for _, size in old])
        if addresses is not None:
            for address, size in old:
                self.free(address, size)
        return addresses


_SIZES = st.integers(min_value=1, max_value=96)
_PICKS = st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=5)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), _SIZES),
            st.tuples(st.just("relocate"), _PICKS),
            st.tuples(st.just("free"), st.integers(min_value=0, max_value=1 << 16)),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_free_gap_index_matches_the_scan_oracle(ops):
    """Same addresses, same OOM step and message, same gaps, every step;
    a relocation matches allocating its region and freeing the old
    buffers."""
    mem = DeviceMemoryAllocator(1024)
    oracle = ScanAllocator(1024)
    live = []
    for kind, arg in ops:
        if kind == "free":
            if not live:
                continue
            buffer = live.pop(arg % len(live))
            mem.free(buffer)
            oracle.free(buffer.address, buffer.size)
        elif kind == "relocate":
            if not live:
                continue
            buffers = list({id(b): b for b in (live[i % len(live)] for i in arg)}
                           .values())
            old = [(b.address, b.size) for b in buffers]
            expected = oracle.relocate(old)
            if expected is None:
                message = oracle.oom_message([s for _, s in old], contiguous=True)
                with pytest.raises(OutOfDeviceMemory) as raised:
                    mem.relocate(buffers)
                assert str(raised.value) == message
                assert [(b.address, b.size) for b in buffers] == old
            else:
                mem.relocate(buffers)
                assert [b.address for b in buffers] == expected
        else:
            expected = oracle.allocate_contiguous([arg])
            if expected is None:
                message = oracle.oom_message([arg], contiguous=False)
                with pytest.raises(OutOfDeviceMemory) as raised:
                    mem.allocate(arg)
                assert str(raised.value) == message
                continue
            buffer = mem.allocate(arg)
            assert [buffer.address] == expected
            live.append(buffer)
        assert mem._free_gaps == oracle.gaps()
        assert mem.free_bytes == oracle.free_bytes
        assert len(mem) == len(oracle.live)
